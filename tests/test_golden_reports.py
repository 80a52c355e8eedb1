"""Golden digests of the fixture-corpus CLI reports.

Each of the 21 CLI_CORPUS invocations runs with the default flags, with
--window-pad 3 and with --tol 1e-6; its exit code and the sha256 of its
standard output are pinned below.  A change that alters report bytes on
purpose updates these digests and records in CHANGES.md which reports
changed and why.
"""

import hashlib

import pytest

from conftest import CLI_CORPUS, run_cli

FLAGS = [(), ("--window-pad", "3"), ("--tol", "1e-6")]

# "flags command fixtures" -> (exit code, sha256 of stdout)
DIGESTS = {
    "verify filters_diff1.json spectrum_theta1_const.json":
        (0, "480c7bebb7f5dc793a86ccf289c10c6f9afe7fda6b70e16ada8dc385c00e616a"),
    "verify filters_kernel1d.json spectrum_kernel1d.json":
        (0, "273202442ed87d58eff0ffa50a4fc9304e67c673783eb3de84b4167651fb04ee"),
    "verify filters_grid.json spectrum_fat_point_2d.json":
        (1, "bbe3afa0b0d7a658795c851ba5dd3cf67b958627f321dd9f1ba352ed4462fed0"),
    "verify filters_fat3_2d.json spectrum_fat3_2d.json":
        (0, "a3017df857c70f416ec75666c53fe033a68b172307da7fc72c55d7f9371774de"),
    "verify malformed.json spectrum_theta1_const.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "build-kernel spectrum_qpspaces.json":
        (0, "4f920c7eda2ed659737f576c60da1fbce3bc962e23f9ec3789afa9b3e56c53e6"),
    "build-kernel spectrum_pi2.json":
        (0, "bf884454dade5f93b282725a32bb5ded4991fb3196272cdb3ea43f6febf9e8eb"),
    "build-kernel spectrum_empty.json":
        (0, "d0b443cad95652d218b3faf441c2bd785007d618eda39a439eb438eacbfefe1f"),
    "hermite spectrum_two_points.json":
        (0, "37e30c329270d5fdea698a3657f4ec1d3265bbb3dea0625ce40b5828bd123558"),
    "hermite spectrum_fat_point_2d.json":
        (0, "cd2690a07691ed51327c11842b57609ced8464831e768a061668ec3ee6bfc690"),
    "hermite spectrum_duplicate.json":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "subdivide mask_diff2.json dilation_2.json candidates_1d_k0.json":
        (0, "25364fe6bbc37b643aa97bf6c52831690d2165dd2df19c8bb7b4f09d6184269f"),
    "subdivide mask_hat.json dilation_2.json candidates_1d_k0.json":
        (1, "efdfeb303d923f663161a18e9c4cdcd2fa16b909727f18b46c2f376b719606c2"),
    "subdivide mask_delta_2d.json dilation_nonexpanding.json candidates_2d_k0.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "subdivide mask_quincunx_k3.json dilation_quincunx.json candidates_2d_k0to3.json":
        (1, "8dc3906d1091f6ca008a7b5260dd40e4be1f1b0f66d991973b4581a9f62123ab"),
    "eigen filter_avg.json eigen_const.json":
        (0, "1e6f7c92f177dbb3459ea97e7ab1f378e616023f521e8d0ea5f34e1557a12efe"),
    "eigen filter_avg.json eigen_linear.json":
        (1, "a438821d5afa218c2f557ba7ed13d509130ee38486f47066c7ea20cd467807e4"),
    "eigen filter_delta1.json eigen_shift.json":
        (0, "ef6518fb46240a337eb31250f7cb49b52d059db64979966128dff48327d7d06b"),
    "verify filters_overflow.json spectrum_theta1_const.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "subdivide mask_overflow.json dilation_2.json candidates_1d_k0.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "eigen filter_overflow.json eigen_theta_minus1.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--window-pad 3 verify filters_diff1.json spectrum_theta1_const.json":
        (0, "480c7bebb7f5dc793a86ccf289c10c6f9afe7fda6b70e16ada8dc385c00e616a"),
    "--window-pad 3 verify filters_kernel1d.json spectrum_kernel1d.json":
        (0, "3c4eeeda2f7b431bb9ae9261f6fe48f3c2957b0c60d334b94fbfc0464ec4e353"),
    "--window-pad 3 verify filters_grid.json spectrum_fat_point_2d.json":
        (1, "bbe3afa0b0d7a658795c851ba5dd3cf67b958627f321dd9f1ba352ed4462fed0"),
    "--window-pad 3 verify filters_fat3_2d.json spectrum_fat3_2d.json":
        (0, "7695b610f5135d615d7d292400b9dd5454b589c0d6c3ca11d38ff52764ed3667"),
    "--window-pad 3 verify malformed.json spectrum_theta1_const.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--window-pad 3 build-kernel spectrum_qpspaces.json":
        (0, "e3687899ac345cac29fd7793bd1dd4490f981ba972d23dded9e28da2791748d3"),
    "--window-pad 3 build-kernel spectrum_pi2.json":
        (0, "12b4cc1c1749f00548b6e39e9e6fe716e160268b9a1b4c868650cb3ce57685cc"),
    "--window-pad 3 build-kernel spectrum_empty.json":
        (0, "d0b443cad95652d218b3faf441c2bd785007d618eda39a439eb438eacbfefe1f"),
    "--window-pad 3 hermite spectrum_two_points.json":
        (0, "37e30c329270d5fdea698a3657f4ec1d3265bbb3dea0625ce40b5828bd123558"),
    "--window-pad 3 hermite spectrum_fat_point_2d.json":
        (0, "cd2690a07691ed51327c11842b57609ced8464831e768a061668ec3ee6bfc690"),
    "--window-pad 3 hermite spectrum_duplicate.json":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--window-pad 3 subdivide mask_diff2.json dilation_2.json candidates_1d_k0.json":
        (0, "25364fe6bbc37b643aa97bf6c52831690d2165dd2df19c8bb7b4f09d6184269f"),
    "--window-pad 3 subdivide mask_hat.json dilation_2.json candidates_1d_k0.json":
        (1, "efdfeb303d923f663161a18e9c4cdcd2fa16b909727f18b46c2f376b719606c2"),
    "--window-pad 3 subdivide mask_delta_2d.json dilation_nonexpanding.json candidates_2d_k0.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--window-pad 3 subdivide mask_quincunx_k3.json dilation_quincunx.json candidates_2d_k0to3.json":
        (1, "8dc3906d1091f6ca008a7b5260dd40e4be1f1b0f66d991973b4581a9f62123ab"),
    "--window-pad 3 eigen filter_avg.json eigen_const.json":
        (0, "1e6f7c92f177dbb3459ea97e7ab1f378e616023f521e8d0ea5f34e1557a12efe"),
    "--window-pad 3 eigen filter_avg.json eigen_linear.json":
        (1, "a438821d5afa218c2f557ba7ed13d509130ee38486f47066c7ea20cd467807e4"),
    "--window-pad 3 eigen filter_delta1.json eigen_shift.json":
        (0, "ef6518fb46240a337eb31250f7cb49b52d059db64979966128dff48327d7d06b"),
    "--window-pad 3 verify filters_overflow.json spectrum_theta1_const.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--window-pad 3 subdivide mask_overflow.json dilation_2.json candidates_1d_k0.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--window-pad 3 eigen filter_overflow.json eigen_theta_minus1.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--tol 1e-6 verify filters_diff1.json spectrum_theta1_const.json":
        (0, "175c5794ef4ab7dce096909bbac963cd81df9be25f4912e35e2a91ff7e1f7bab"),
    "--tol 1e-6 verify filters_kernel1d.json spectrum_kernel1d.json":
        (0, "f73ed32ea61eb18cb2436f604b0a92b1c1c555bfa0421260be9a1be502b9f332"),
    "--tol 1e-6 verify filters_grid.json spectrum_fat_point_2d.json":
        (1, "3c9552264748df78f35e71f232f305e0d61e1ac2156591669ca886cae067aad4"),
    "--tol 1e-6 verify filters_fat3_2d.json spectrum_fat3_2d.json":
        (0, "6e61788b220fd7a3c40d1b0fe8042571339e756945ace804f47ff17be7a651f4"),
    "--tol 1e-6 verify malformed.json spectrum_theta1_const.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--tol 1e-6 build-kernel spectrum_qpspaces.json":
        (0, "4f920c7eda2ed659737f576c60da1fbce3bc962e23f9ec3789afa9b3e56c53e6"),
    "--tol 1e-6 build-kernel spectrum_pi2.json":
        (0, "bf884454dade5f93b282725a32bb5ded4991fb3196272cdb3ea43f6febf9e8eb"),
    "--tol 1e-6 build-kernel spectrum_empty.json":
        (0, "d0b443cad95652d218b3faf441c2bd785007d618eda39a439eb438eacbfefe1f"),
    "--tol 1e-6 hermite spectrum_two_points.json":
        (0, "37e30c329270d5fdea698a3657f4ec1d3265bbb3dea0625ce40b5828bd123558"),
    "--tol 1e-6 hermite spectrum_fat_point_2d.json":
        (0, "cd2690a07691ed51327c11842b57609ced8464831e768a061668ec3ee6bfc690"),
    "--tol 1e-6 hermite spectrum_duplicate.json":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--tol 1e-6 subdivide mask_diff2.json dilation_2.json candidates_1d_k0.json":
        (0, "018d2eca6724d64969b3bd8d468e1391eac8335d5e649e2040a969ebee9eb922"),
    "--tol 1e-6 subdivide mask_hat.json dilation_2.json candidates_1d_k0.json":
        (1, "cb29be8a9312bf14d0bf63439fcbc445fcb6e8bbbb8a43afe5053c24d4fccd7a"),
    "--tol 1e-6 subdivide mask_delta_2d.json dilation_nonexpanding.json candidates_2d_k0.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--tol 1e-6 subdivide mask_quincunx_k3.json dilation_quincunx.json candidates_2d_k0to3.json":
        (1, "bc4056c7ad3734c9c958b2abf9fdec7be23bf95dc251c9d2b0d3d56379262313"),
    "--tol 1e-6 eigen filter_avg.json eigen_const.json":
        (0, "87f618e8d679a71be7dbece81abd55e0c3a119f6e78a0bb672284089959d19a8"),
    "--tol 1e-6 eigen filter_avg.json eigen_linear.json":
        (1, "f2d1dd08fd348171d962820ecec5839f5d74894613843bbc504742b22ceafde6"),
    "--tol 1e-6 eigen filter_delta1.json eigen_shift.json":
        (0, "2c159b5c2a4047c5432234a674a81bad070fec4ac29aebfc25099d06a240cca7"),
    "--tol 1e-6 verify filters_overflow.json spectrum_theta1_const.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--tol 1e-6 subdivide mask_overflow.json dilation_2.json candidates_1d_k0.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--tol 1e-6 eigen filter_overflow.json eigen_theta_minus1.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}

INVOCATIONS = [flags + argv for flags in FLAGS for argv, _ in CLI_CORPUS]


def test_digests_cover_the_corpus():
    assert sorted(" ".join(argv) for argv in INVOCATIONS) == sorted(DIGESTS)


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_report_matches_digest(argv):
    code, out = run_cli(*argv)
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == DIGESTS[" ".join(argv)]
