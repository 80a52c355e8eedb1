import os
from contextlib import redirect_stdout
from io import StringIO

import numpy as np
import pytest

from convkern import LaurentPoly


def variables(dim):
    return [LaurentPoly.variable(dim, j) for j in range(dim)]


def const(dim, c):
    return LaurentPoly.constant(dim, c)


def random_poly(rng, dim, degree, complex_coeffs=False, laurent=False):
    """Random sparse polynomial with total degree at most ``degree``."""
    terms = {}
    lo = -degree if laurent else 0
    n_terms = rng.integers(1, 6)
    for _ in range(n_terms):
        exp = tuple(int(v) for v in rng.integers(lo, degree + 1, size=dim))
        if sum(abs(e) for e in exp) > degree:
            continue
        c = rng.normal()
        if complex_coeffs:
            c = complex(c, rng.normal())
        terms[exp] = terms.get(exp, 0) + c
    p = LaurentPoly(dim, terms)
    if p.is_zero:
        p = LaurentPoly.constant(dim, 1.0)
    return p


@pytest.fixture
def rng():
    return np.random.default_rng(20240329)


# one verdict line per end-to-end acceptance criterion, echoed after the
# test run so they survive output capture
acceptance_log = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_log:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_log:
            terminalreporter.write_line(line)


FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# The fixture-corpus CLI invocations (fixture file names) with their
# documented exit codes.
CLI_CORPUS = [
    (("verify", "filters_diff1.json", "spectrum_theta1_const.json"), 0),
    (("verify", "filters_kernel1d.json", "spectrum_kernel1d.json"), 0),
    (("verify", "filters_grid.json", "spectrum_fat_point_2d.json"), 1),
    (("verify", "filters_fat3_2d.json", "spectrum_fat3_2d.json"), 0),
    (("verify", "malformed.json", "spectrum_theta1_const.json"), 2),
    (("build-kernel", "spectrum_qpspaces.json"), 0),
    (("build-kernel", "spectrum_pi2.json"), 0),
    (("build-kernel", "spectrum_empty.json"), 0),
    (("hermite", "spectrum_two_points.json"), 0),
    (("hermite", "spectrum_fat_point_2d.json"), 0),
    (("hermite", "spectrum_duplicate.json"), 1),
    (("subdivide", "mask_diff2.json", "dilation_2.json",
      "candidates_1d_k0.json"), 0),
    (("subdivide", "mask_hat.json", "dilation_2.json",
      "candidates_1d_k0.json"), 1),
    (("subdivide", "mask_delta_2d.json", "dilation_nonexpanding.json",
      "candidates_2d_k0.json"), 2),
    (("subdivide", "mask_quincunx_k3.json", "dilation_quincunx.json",
      "candidates_2d_k0to3.json"), 1),
    (("eigen", "filter_avg.json", "eigen_const.json"), 0),
    (("eigen", "filter_avg.json", "eigen_linear.json"), 1),
    (("eigen", "filter_delta1.json", "eigen_shift.json"), 0),
    # finite inputs whose report values overflow to inf or NaN
    (("verify", "filters_overflow.json", "spectrum_theta1_const.json"), 2),
    (("subdivide", "mask_overflow.json", "dilation_2.json",
      "candidates_1d_k0.json"), 2),
    (("eigen", "filter_overflow.json", "eigen_theta_minus1.json"), 2),
]


def run_cli(*argv):
    """(exit code, standard output) of one in-process CLI run; arguments
    ending in .json name fixture files."""
    from convkern.cli import main
    args = [os.path.join(FIXTURES, a) if a.endswith(".json") else a for a in argv]
    buf = StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()
