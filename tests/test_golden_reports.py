"""Golden digests of the fixture-corpus CLI reports.

Each of the 40 CLI_CORPUS invocations runs with the default flags, with
--window-pad 3 and with --tol 1e-6 (an invocation's own flags follow
these, and argparse keeps the last value); its exit code and the sha256 of its
standard output are pinned below.  A change that alters report bytes on
purpose updates these digests and records in CHANGES.md which reports
changed and why.
"""

import hashlib
import json

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
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "subdivide mask_diff2.json dilation_2.json candidates_1d_k0.json":
        (0, "25364fe6bbc37b643aa97bf6c52831690d2165dd2df19c8bb7b4f09d6184269f"),
    "subdivide mask_hat.json dilation_2.json candidates_1d_k0.json":
        (1, "efdfeb303d923f663161a18e9c4cdcd2fa16b909727f18b46c2f376b719606c2"),
    "subdivide mask_delta_2d.json dilation_nonexpanding.json candidates_2d_k0.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "subdivide mask_quincunx_k3.json dilation_quincunx.json candidates_2d_k0to3.json":
        (1, "87776075c057fb5738d47e69af23fafab62ffd96542d103e0ef926a8c59ce459"),
    "eigen filter_avg.json eigen_const.json":
        (0, "c5acfabc56d7362d4487e0b22ccbf0697aab6c21db6ba5468edd08cc0c44f469"),
    "eigen filter_avg.json eigen_linear.json":
        (1, "7f2dbed4d83626eab0bea2503ca427ebf9a43f924f22619b2a44b61cb5d27f0f"),
    "eigen filter_delta1.json eigen_shift.json":
        (0, "575905c3be5f7d0195fec8a24924c635f6c1cf5611593332edca28f60ef7a73b"),
    "eigen filter_delta1.json eigen_shift_alpha_minus1.json":
        (0, "ec12cb2c30e83cc2e824ba0005a2dd8ae56cc35042eeb26d2d9295796be74acd"),
    "eigen filter_delta1.json eigen_shift_alpha1.json":
        (1, "77546c093e195aec39062b3d5ba68353f0a11b13431e2d8485b7db9cd48c30e0"),
    "verify filters_overflow.json spectrum_theta1_const.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "subdivide mask_overflow.json dilation_2.json candidates_1d_k0.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "eigen filter_overflow.json eigen_theta_minus1.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify filters_manyzeros_2d.json spectrum_manyzeros_2d.json":
        (0, "8b8becbf6503cf95eda80f50045ba7dc1e5c870676011eb4fae3929606c5c041"),
    "hermite spectrum_manyzeros_2d.json":
        (0, "bea915d3bbccd1b032827103fc2524da387cecc801b691adc945b3c794a57ea2"),
    "build-kernel spectrum_manyzeros_2d.json":
        (0, "c33789f824278c01ff12426f9d533fd112e91934f59e9c402aab099a582ea510"),
    "subdivide mask_shear25_k1.json dilation_shear25.json candidates_2d_k0to2.json":
        (1, "0aea870768571aa9d24bff20129cf4798bfbf721b9ff2f958a360939ef59b279"),
    "subdivide mask_det_minus6_k1.json dilation_det_minus6.json candidates_2d_k0to2.json":
        (1, "1927c2c14bdfc5e82ee24b319a71cf26a7c17124076d6871f5df7995ba1e21e6"),
    "subdivide mask_quarter_band.json dilation_2.json candidates_1d_quarter.json":
        (0, "2c6615fdba4b9f5032e7b5a3a83c6046bb40ce489eecb262323d63a748def2f2"),
    "--window-pad 8 eigen filter_eigen_overflow.json eigen_theta2_lambda0.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "subdivide mask_quincunx_k3.json dilation_quincunx.json candidates_1d_k1.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify filters_coeff_overflow.json spectrum_kernel1d.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "eigen filter_tap_overflow.json eigen_theta1_pi1.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "build-kernel spectrum_theta_huge_imag.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify filters_diff1_2d.json spectrum_nonhomog.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "build-kernel spectrum_nonhomog.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "eigen filter_diff1_2d.json eigen_nonhomog.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "hermite spectrum_nonhomog.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "hermite spectrum_rank_deficient.json":
        (1, "b7a3e17a30f9a30eb6805b6092d5905d65f303891fdfb93f4890efd5e296d2b7"),
    "verify filters_repeated_tap.json spectrum_theta1_const.json":
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
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--window-pad 3 subdivide mask_diff2.json dilation_2.json candidates_1d_k0.json":
        (0, "25364fe6bbc37b643aa97bf6c52831690d2165dd2df19c8bb7b4f09d6184269f"),
    "--window-pad 3 subdivide mask_hat.json dilation_2.json candidates_1d_k0.json":
        (1, "efdfeb303d923f663161a18e9c4cdcd2fa16b909727f18b46c2f376b719606c2"),
    "--window-pad 3 subdivide mask_delta_2d.json dilation_nonexpanding.json candidates_2d_k0.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--window-pad 3 subdivide mask_quincunx_k3.json dilation_quincunx.json candidates_2d_k0to3.json":
        (1, "87776075c057fb5738d47e69af23fafab62ffd96542d103e0ef926a8c59ce459"),
    "--window-pad 3 eigen filter_avg.json eigen_const.json":
        (0, "c5acfabc56d7362d4487e0b22ccbf0697aab6c21db6ba5468edd08cc0c44f469"),
    "--window-pad 3 eigen filter_avg.json eigen_linear.json":
        (1, "7f2dbed4d83626eab0bea2503ca427ebf9a43f924f22619b2a44b61cb5d27f0f"),
    "--window-pad 3 eigen filter_delta1.json eigen_shift.json":
        (0, "575905c3be5f7d0195fec8a24924c635f6c1cf5611593332edca28f60ef7a73b"),
    "--window-pad 3 eigen filter_delta1.json eigen_shift_alpha_minus1.json":
        (0, "ec12cb2c30e83cc2e824ba0005a2dd8ae56cc35042eeb26d2d9295796be74acd"),
    "--window-pad 3 eigen filter_delta1.json eigen_shift_alpha1.json":
        (1, "28613166cffe64aacd9bf1cb2d193c9817e0bf6f84d8275ae92fb4414677e187"),
    "--window-pad 3 verify filters_overflow.json spectrum_theta1_const.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--window-pad 3 subdivide mask_overflow.json dilation_2.json candidates_1d_k0.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--window-pad 3 eigen filter_overflow.json eigen_theta_minus1.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--window-pad 3 verify filters_manyzeros_2d.json spectrum_manyzeros_2d.json":
        (0, "3a72aa6b2c799032d11fb331444941bd4edd56f0d979836119cf06c5637ca83b"),
    "--window-pad 3 hermite spectrum_manyzeros_2d.json":
        (0, "bea915d3bbccd1b032827103fc2524da387cecc801b691adc945b3c794a57ea2"),
    "--window-pad 3 build-kernel spectrum_manyzeros_2d.json":
        (0, "182c0e2ae352443fdf0e1250cedfd113b7ac1b2e690d65d053779f0431fc6554"),
    "--window-pad 3 subdivide mask_shear25_k1.json dilation_shear25.json candidates_2d_k0to2.json":
        (1, "0aea870768571aa9d24bff20129cf4798bfbf721b9ff2f958a360939ef59b279"),
    "--window-pad 3 subdivide mask_det_minus6_k1.json dilation_det_minus6.json candidates_2d_k0to2.json":
        (1, "1927c2c14bdfc5e82ee24b319a71cf26a7c17124076d6871f5df7995ba1e21e6"),
    "--window-pad 3 subdivide mask_quarter_band.json dilation_2.json candidates_1d_quarter.json":
        (0, "2c6615fdba4b9f5032e7b5a3a83c6046bb40ce489eecb262323d63a748def2f2"),
    "--window-pad 3 --window-pad 8 eigen filter_eigen_overflow.json eigen_theta2_lambda0.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--window-pad 3 subdivide mask_quincunx_k3.json dilation_quincunx.json candidates_1d_k1.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--window-pad 3 verify filters_coeff_overflow.json spectrum_kernel1d.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--window-pad 3 eigen filter_tap_overflow.json eigen_theta1_pi1.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--window-pad 3 build-kernel spectrum_theta_huge_imag.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--window-pad 3 verify filters_diff1_2d.json spectrum_nonhomog.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--window-pad 3 build-kernel spectrum_nonhomog.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--window-pad 3 eigen filter_diff1_2d.json eigen_nonhomog.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--window-pad 3 hermite spectrum_nonhomog.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--window-pad 3 hermite spectrum_rank_deficient.json":
        (1, "b7a3e17a30f9a30eb6805b6092d5905d65f303891fdfb93f4890efd5e296d2b7"),
    "--window-pad 3 verify filters_repeated_tap.json spectrum_theta1_const.json":
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
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--tol 1e-6 subdivide mask_diff2.json dilation_2.json candidates_1d_k0.json":
        (0, "018d2eca6724d64969b3bd8d468e1391eac8335d5e649e2040a969ebee9eb922"),
    "--tol 1e-6 subdivide mask_hat.json dilation_2.json candidates_1d_k0.json":
        (1, "cb29be8a9312bf14d0bf63439fcbc445fcb6e8bbbb8a43afe5053c24d4fccd7a"),
    "--tol 1e-6 subdivide mask_delta_2d.json dilation_nonexpanding.json candidates_2d_k0.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--tol 1e-6 subdivide mask_quincunx_k3.json dilation_quincunx.json candidates_2d_k0to3.json":
        (1, "82cb77a1c11518bbc8b40d4a0f8f7d893387ebcd5970029a8d3c582183d98f12"),
    "--tol 1e-6 eigen filter_avg.json eigen_const.json":
        (0, "8353031bcda419753244f0b4d1f21fbbe8c831d37241941eec626a82ceba4d62"),
    "--tol 1e-6 eigen filter_avg.json eigen_linear.json":
        (1, "0ff1692b394b04d905eec54ca3396ce39002e233c9f779a930168b57bb5cbb93"),
    "--tol 1e-6 eigen filter_delta1.json eigen_shift.json":
        (0, "8ab09474a8353a8e448fdfc6f0c20f29ea88855faf6b6d32fa353267d003ecac"),
    "--tol 1e-6 eigen filter_delta1.json eigen_shift_alpha_minus1.json":
        (0, "698a6a3ed7a254a768c00b3368cc6624c4afd3fa83e0d4f2bb204b1c368dcd7a"),
    "--tol 1e-6 eigen filter_delta1.json eigen_shift_alpha1.json":
        (1, "4056deb3273582501eaf5c557b5462201655aeb9fb58a6371c316e43481fdf4a"),
    "--tol 1e-6 verify filters_overflow.json spectrum_theta1_const.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--tol 1e-6 subdivide mask_overflow.json dilation_2.json candidates_1d_k0.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--tol 1e-6 eigen filter_overflow.json eigen_theta_minus1.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--tol 1e-6 verify filters_manyzeros_2d.json spectrum_manyzeros_2d.json":
        (0, "cab9bfd6d1875f7fb808f03ec9636b1345e2c12f72ecde27c7bb483fa6faf9ff"),
    "--tol 1e-6 hermite spectrum_manyzeros_2d.json":
        (0, "bea915d3bbccd1b032827103fc2524da387cecc801b691adc945b3c794a57ea2"),
    "--tol 1e-6 build-kernel spectrum_manyzeros_2d.json":
        (0, "c33789f824278c01ff12426f9d533fd112e91934f59e9c402aab099a582ea510"),
    "--tol 1e-6 subdivide mask_shear25_k1.json dilation_shear25.json candidates_2d_k0to2.json":
        (1, "9df74d3161315ccdccec066cccb42c86cc5df9d275fcbfdac2f01c6a4e0c82d5"),
    "--tol 1e-6 subdivide mask_det_minus6_k1.json dilation_det_minus6.json candidates_2d_k0to2.json":
        (1, "427a27890fb5c4f3c824479a0fe125077bad3288fe93b2aadf0aeef296daa725"),
    "--tol 1e-6 subdivide mask_quarter_band.json dilation_2.json candidates_1d_quarter.json":
        (0, "4d4c5fa5a31df4a5e1e69c3fff6f26456aef62cca4d187bc083ba7a7fc9acb1a"),
    "--tol 1e-6 --window-pad 8 eigen filter_eigen_overflow.json eigen_theta2_lambda0.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--tol 1e-6 subdivide mask_quincunx_k3.json dilation_quincunx.json candidates_1d_k1.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--tol 1e-6 verify filters_coeff_overflow.json spectrum_kernel1d.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--tol 1e-6 eigen filter_tap_overflow.json eigen_theta1_pi1.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--tol 1e-6 build-kernel spectrum_theta_huge_imag.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--tol 1e-6 verify filters_diff1_2d.json spectrum_nonhomog.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--tol 1e-6 build-kernel spectrum_nonhomog.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--tol 1e-6 eigen filter_diff1_2d.json eigen_nonhomog.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--tol 1e-6 hermite spectrum_nonhomog.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--tol 1e-6 hermite spectrum_rank_deficient.json":
        (1, "b7a3e17a30f9a30eb6805b6092d5905d65f303891fdfb93f4890efd5e296d2b7"),
    "--tol 1e-6 verify filters_repeated_tap.json spectrum_theta1_const.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}

INVOCATIONS = [flags + argv for flags in FLAGS for argv, _ in CLI_CORPUS]


def test_digests_cover_the_corpus():
    assert sorted(" ".join(argv) for argv in INVOCATIONS) == sorted(DIGESTS)


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_every_verdict_is_its_values(argv):
    """Each check passes exactly when its value is within its tolerance, a
    report passes exactly when all its checks do, and the exit code says so."""
    code, out = run_cli(*argv)
    if not out:  # a refused input: exit 1 always comes with a report
        assert code == 2
        return
    report = json.loads(out)
    checks = report.get("checks", [])
    for check in checks:
        assert check["pass"] == (check["value"] <= check["tolerance"]), check
    if "checks" in report:
        assert report["pass"] == all(check["pass"] for check in checks)
    assert code == (0 if report["pass"] else 1)


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_report_matches_digest(argv):
    code, out = run_cli(*argv)
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == DIGESTS[" ".join(argv)]
