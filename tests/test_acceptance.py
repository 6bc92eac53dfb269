"""Acceptance gate: every criterion at its stated tolerance.

Each test runs one suite from troplag.verify and prints a PASS/FAIL line;
the suites are the same ones `troplag verify` exposes.
"""

import pytest

from troplag import verify

SEED = 0


def _run(name):
    rec = verify.SUITES[name](seed=SEED)
    status = "PASS" if rec["passed"] else "FAIL"
    print(f"{status} criterion[{name}]: {rec['details']}")
    return rec


def test_suite_table_holds_the_suites_in_order():
    assert list(verify.SUITES) == [
        "hessian", "boundary", "region", "equivariance", "legendre", "decomposition",
        "appendix", "theorem41", "maslov", "exactness", "topology", "monotone"]
    for name, suite in verify.SUITES.items():
        assert suite is getattr(verify, f"verify_{name}")


def test_criterion_01_hessian_definiteness():
    rec = _run("hessian")
    assert rec["passed"], rec["details"]
    assert all(v < 0 for v in rec["details"]["max_eigenvalues"].values())
    assert rec["details"]["seconds"] < 10.0


def test_criterion_02_boundary_surface_identity():
    rec = _run("boundary")
    assert rec["passed"], rec["details"]
    assert all(v <= 1e-9 for v in rec["details"]["max_residuals"].values())


def test_criterion_03_region_containment():
    rec = _run("region")
    assert rec["passed"], rec["details"]
    assert all(v >= -1e-9 for v in rec["details"]["min_slacks"].values())


def test_criterion_04_equivariance():
    rec = _run("equivariance")
    assert rec["passed"], rec["details"]
    assert all(v <= 1e-10 for v in rec["details"]["max_errors"].values())


def test_criterion_05_legendre_round_trip():
    rec = _run("legendre")
    assert rec["passed"], rec["details"]
    assert rec["details"]["roundtrip_error"] <= 1e-8
    assert rec["details"]["fd_error"] <= 1e-6


def test_criterion_06_decomposition_constants():
    rec = _run("decomposition")
    assert rec["passed"], rec["details"]
    assert rec["details"]["z_error"] <= 1e-12
    assert rec["details"]["s0_error"] <= 1e-12
    assert rec["details"]["tau_error"] <= 1e-12


def test_criterion_07_appendix_sign_lemmas():
    rec = _run("appendix")
    assert rec["passed"], rec["details"]
    assert rec["details"]["tuples"] == 20
    assert rec["details"]["failures"] == []


def test_criterion_08_theorem41_at_desk_scale():
    rec = _run("theorem41")
    assert rec["passed"], rec["details"]
    d = rec["details"]
    assert all(r < 1e-6 for r in d["residuals"])
    assert d["hausdorff"][0] > d["hausdorff"][1] > d["hausdorff"][2]
    assert d["slope"] >= 0.8
    assert d["seconds"] < 60.0


def test_criterion_09_maslov_vanishing():
    rec = _run("maslov")
    assert rec["passed"], rec["details"]
    assert rec["details"]["windings"] == {"leg1": 0, "leg2": 0}


def test_criterion_10_exactness():
    rec = _run("exactness")
    assert rec["passed"], rec["details"]
    d = rec["details"]
    assert d["line_exact"] and not d["triangle_exact"] and d["fourvalent_exact"]
    assert d["triangle_edge_constant"] == 1


def test_criterion_11_topology_table():
    rec = _run("topology")
    assert rec["passed"], rec["details"]
    rows = rec["details"]["rows"]
    assert (rows["w1_line"]["chi"], rows["w1_line"]["punctures"]) == (-1, 3)
    assert (rows["w2_line"]["chi"], rows["w2_line"]["genus"],
            rows["w2_line"]["punctures"]) == (-4, 0, 6)
    assert (rows["fig8_vertex"]["chi"], rows["fig8_vertex"]["genus"],
            rows["fig8_vertex"]["punctures"]) == (-3, 1, 3)
    assert (rows["p2_curve"]["chi"], rows["p2_curve"]["orientable"]) == (0, True)
    assert (rows["nonorientable"]["chi"], rows["nonorientable"]["orientable"]) == (-4, False)


def test_criterion_12_monotone_arithmetic():
    rec = _run("monotone")
    assert rec["passed"], rec["details"]
    p2 = rec["details"]["p2"]
    assert p2["tau"] == (6, "3")
    assert all(p2[f"facet-{i}"] == (2, "1") for i in range(3))
    assert p2["fiber"] == (0, "0")
    p11 = rec["details"]["p1p1"]
    assert all(p11[f"facet-{i}"] == (2, "1") for i in range(4))
