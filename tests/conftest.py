import os
from contextlib import redirect_stdout
from io import StringIO
from itertools import product

import numpy as np
import pytest

from convkern import LaurentPoly
from convkern.mpoly import grlex_key


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


def dual_rows(qs, support, point):
    """R[i, k] = (qs[i](D) z^support[k])(point), from one jet table at the
    point alone: R @ g_coeffs over the same support gives every
    (q(D) g)(point) at once."""
    from convkern.linalg import coeff_matrix, diff_tables
    Q, orders = coeff_matrix(qs)
    return Q.T @ diff_tables(orders, support, [point])[0]


def scan_coset_reps(Xi, transpose=False):
    """Reference: every point of the bounding box of M [0,1)^s (from the
    vertices M v, v in {0,1}^s) whose M^-1 alpha = adj alpha / det lies in
    [0,1)^s, graded-lex sorted; M = Xi or Xi^T."""
    M, adj = (Xi.transpose(), Xi.adj_transpose()) if transpose else (Xi.Xi, Xi.adj)
    n, d = len(M), Xi.det
    vertices = [[sum(M[i][j] * v[j] for j in range(n)) for i in range(n)]
                for v in product((0, 1), repeat=n)]
    box = [range(min(v[i] for v in vertices), max(v[i] for v in vertices) + 1)
           for i in range(n)]

    def in_cell(alpha):
        values = [sum(r * a for r, a in zip(row, alpha)) for row in adj]
        return all(0 <= v < d if d > 0 else d < v <= 0 for v in values)

    return sorted((alpha for alpha in product(*box) if in_cell(alpha)), key=grlex_key)


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
    (("hermite", "spectrum_duplicate.json"), 2),
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
    # delta_1 maps e_2 to e_2(. - 1): an eigen-sequence with lambda = 1 at
    # alpha = -1, and not at alpha = 1
    (("eigen", "filter_delta1.json", "eigen_shift_alpha_minus1.json"), 0),
    (("eigen", "filter_delta1.json", "eigen_shift_alpha1.json"), 1),
    # finite inputs whose report values overflow to inf or NaN
    (("verify", "filters_overflow.json", "spectrum_theta1_const.json"), 2),
    (("subdivide", "mask_overflow.json", "dilation_2.json",
      "candidates_1d_k0.json"), 2),
    (("eigen", "filter_overflow.json", "eigen_theta_minus1.json"), 2),
    # eight dimension-2 zeros over two shared spaces (four Pi_0, four Pi_1),
    # with filters from ideal_complement_filters: the oracle stacks several
    # theta per window and the jet tables are shared per space
    (("verify", "filters_manyzeros_2d.json", "spectrum_manyzeros_2d.json"), 0),
    (("hermite", "spectrum_manyzeros_2d.json"), 0),
    (("build-kernel", "spectrum_manyzeros_2d.json"), 0),
    # masks with a symmetric zero of order exactly 1 over a sheared dilation
    # (|det| 4 in a box of 24 points) and one of determinant -6: the reports
    # pin the order of the coset representatives and subsymbols
    (("subdivide", "mask_shear25_k1.json", "dilation_shear25.json",
      "candidates_2d_k0to2.json"), 1),
    (("subdivide", "mask_det_minus6_k1.json", "dilation_det_minus6.json",
      "candidates_2d_k0to2.json"), 1),
    # the mask 1 - 0.249999999 z^2 at theta = 1/4: the symmetric-zero and
    # subsymbol tests read 8e-10 against tol and the oracle 1.6e-9 against
    # ORACLE_TOL, so all three pass with the largest value above tol
    (("subdivide", "mask_quarter_band.json", "dilation_2.json",
      "candidates_1d_quarter.json"), 0),
    # h = 4e306 z - 1e306 z^-1 at theta = 2, lambda = 0: from window point 7
    # on, the oracle's tap products overflow to inf - inf = NaN
    (("--window-pad", "8", "eigen", "filter_eigen_overflow.json",
      "eigen_theta2_lambda0.json"), 2),
    # a one-coordinate theta for a mask in two variables is malformed input
    (("subdivide", "mask_quincunx_k3.json", "dilation_quincunx.json",
      "candidates_1d_k1.json"), 2),
    # an intermediate coefficient that overflows is refused, not a failed
    # check: q(D) h* of the tap -1e308 z^3, the eigen taps 1e308 at 0 and 7
    # under q = x, and Q scaled by theta = 1 + 1e308 i
    (("verify", "filters_coeff_overflow.json", "spectrum_kernel1d.json"), 2),
    (("eigen", "filter_tap_overflow.json", "eigen_theta1_pi1.json"), 2),
    (("build-kernel", "spectrum_theta_huge_imag.json"), 2),
    # Q = span{1, x1, x1^2 + x2} is D-invariant but not spanned by
    # homogeneous polynomials, which the library refuses in every command
    (("verify", "filters_diff1_2d.json", "spectrum_nonhomog.json"), 2),
    (("build-kernel", "spectrum_nonhomog.json"), 2),
    (("eigen", "filter_diff1_2d.json", "eigen_nonhomog.json"), 2),
    (("hermite", "spectrum_nonhomog.json"), 2),
    # Pi_5 at theta = 1 and at theta = 2/3: the monomial collocation matrix
    # never reaches numerical rank 12, though interpolation on two distinct
    # points is solvable at degree 11; a failed report, not a refusal
    (("hermite", "spectrum_rank_deficient.json"), 1),
    # the tap index [1] given twice
    (("verify", "filters_repeated_tap.json", "spectrum_theta1_const.json"), 2),
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
