"""Acceptance suites: the analytic claims checked at fixed tolerances.

Each suite returns {"name", "passed", "details"}; all sampling is
quasi-random or seeded so reports are reproducible byte-for-byte.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .coamoeba import PI, r_apply, rstar_apply
from .fixtures import load_fixture
from .lift import (default_schedule, exactness_check, hausdorff_distance,
                   maslov_winding, pants_basis_loop, pl_lift, smooth_lift,
                   symplectic_residual)
from .pants import DecompositionData, PantsMap, ProjectionPair, eta_curve, gamma_curve
from .toric import lift_topology, monotone_report


VOLATILE_KEYS = ("seconds",)  # stripped from written reports for determinism


def _record(name, passed, **details):
    return {"name": name, "passed": bool(passed), "details": details}


def report_lines(records):
    """JSON lines with volatile (timing) fields removed: byte-stable."""
    import json
    out = []
    for rec in records:
        details = {k: v for k, v in rec["details"].items() if k not in VOLATILE_KEYS}
        out.append(json.dumps({"name": rec["name"], "passed": rec["passed"],
                               "details": details}, sort_keys=True, default=str))
    return out


def verify_hessian(seed=0, m=10_000):
    """Criterion 1: Hessian negative definite on 10^4 interior points, n = 1, 2."""
    t0 = time.perf_counter()
    worst = {}
    for n in (1, 2):
        pm = PantsMap(n)
        ys = pm.sample_interior(m, seed=seed)
        worst[f"n{n}"] = float(pm.hessian_eigen_max(ys).max())
    dt = time.perf_counter() - t0
    passed = all(v < 0 for v in worst.values()) and dt < 10.0
    return _record("hessian", passed, max_eigenvalues=worst, seconds=round(dt, 3))


def verify_boundary(seed=0, m=1000):
    """Criterion 2: the exceptional set maps onto (n+1)^{n+1} prod x = 1."""
    worst = {}
    for n in (1, 2):
        pm = PantsMap(n)
        rng = np.random.default_rng(seed + n)
        alphas = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=(m, n)))
        x = np.atleast_2d(pm.h_chart(alphas, np.zeros(m)))
        resid = np.abs((n + 1) ** (n + 1) * np.prod(x, axis=1) - 1.0)
        worst[f"n{n}"] = float(resid.max())
    passed = all(v <= 1e-9 for v in worst.values())
    return _record("boundary", passed, max_residuals=worst, tolerance=1e-9)


def verify_region(seed=0, m=10_000):
    """Criterion 3: the vertex star maps into H_0 with slack >= -1e-9.

    Samples mix interior points of W_{J_0} with exceptional chart points
    (the blown-up vertex belongs to the star, its image is the boundary
    surface of H_0).
    """
    worst = {}
    for n in (1, 2):
        pm = PantsMap(n)
        count = m if n == 1 else m // 2
        ys = pm.sample_W_J0(count, seed=seed)
        x = pm.h(ys)
        rng = np.random.default_rng(seed + 5 * n)
        alphas = np.exp(rng.uniform(np.log(0.2), np.log(5.0), size=(count // 20, n)))
        x_chart = np.atleast_2d(pm.h_chart(alphas, np.zeros(len(alphas))))
        x = np.vstack([x, x_chart])
        cval = (pm.lam / pm.m) ** pm.m
        slack = np.minimum(x.min(axis=1), cval - np.prod(np.clip(x, 0, None), axis=1))
        worst[f"n{n}"] = float(slack.min())
    passed = all(v >= -1e-9 for v in worst.values())
    return _record("region", passed, min_slacks=worst, tolerance=-1e-9)


def verify_equivariance(seed=0, m=1000):
    """Criterion 4: h R_k = R*_k h and h iota = h to 1e-10.

    Samples keep a small margin from the boundary faces, where h blows up
    and no absolute float tolerance can hold.
    """
    worst = {}
    for n in (1, 2):
        pm = PantsMap(n)
        ys = pm.coamoeba.sample_interior(m, seed=seed, margin=0.01)
        h0 = pm.h(ys)
        errs = [float(np.abs(pm.h(-ys) - h0).max())]
        for k in range(1, n + 2):
            errs.append(float(np.abs(pm.h(r_apply(n, k, ys)) - rstar_apply(n, k, h0)).max()))
        worst[f"n{n}"] = max(errs)
    passed = all(v <= 1e-10 for v in worst.values())
    return _record("equivariance", passed, max_errors=worst, tolerance=1e-10)


def verify_legendre(seed=0, m=1000):
    """Criterion 5: fiber-solve round trip to 1e-8; FD of the transform
    identities to 1e-6."""
    pm = PantsMap(1)
    pp = ProjectionPair(pm, {1})
    ys = pm.sample_interior(4 * m, seed=seed)
    keep = pm.in_W({1}, ys, k=0, tol=0.0) & (ys[:, 0] > 1e-3) & (ys[:, 1] > 1e-3)
    ys = ys[keep][:m]
    yp, xp = pp.g(ys)
    q = pp.fiber_solve(xp, yp)
    rt_err = float(np.abs(q - ys).max())
    # finite-difference check of dG at 100 points, drawn (x1, y2) by (x1, y2)
    rng = np.random.default_rng(seed)
    draws = rng.uniform([0.2, 0.25], [1.5, PI / 2 - 0.25], size=(100, 2))
    x, ypr = draws * [1.0, 0.0], draws * [0.0, 1.0]
    G0, q0, dG = pp.legendre_G(x, ypr)
    h = 1e-6
    gx = (pp.legendre_G(x + [h, 0], ypr)[0] - pp.legendre_G(x - [h, 0], ypr)[0]) / (2 * h)
    gy = (pp.legendre_G(x, ypr + [0, h])[0] - pp.legendre_G(x, ypr - [0, h])[0]) / (2 * h)
    fd_err = float(max(np.abs(gx - dG["x"][:, 0]).max(), np.abs(gy - dG["yprime"][:, 0]).max()))
    passed = rt_err <= 1e-8 and fd_err <= 1e-6
    return _record("legendre", passed, roundtrip_error=rt_err, fd_error=fd_err,
                   tolerances=[1e-8, 1e-6])


def verify_decomposition(seed=0):
    """Criterion 6: decomposition constants of the 3-d region."""
    dd = DecompositionData()
    z_err = abs(dd.z(1.0 / 9.0) - 1.0 / 3.0)
    q0 = dd.q0
    s0_err = abs(27.0 * np.prod(q0) - 1.0)
    tau = dd.tau_intersection()
    tau_err = float(np.abs(tau - np.array([1 / 6, 1 / 6, 0.0])).max())
    passed = z_err <= 1e-12 and s0_err <= 1e-12 and tau_err <= 1e-12
    return _record("decomposition", passed, z_error=z_err, s0_error=s0_err,
                   tau_error=tau_err, tolerance=1e-12)


def verify_appendix(seed=0, tuples=20):
    """Criterion 7: the sign/ordering chains of the two boundary test curves."""
    rng = np.random.default_rng(seed)
    ts = (np.arange(99) + 1) / 100.0
    slack = 1e-11
    n_gamma = tuples // 2
    failures = []
    for i in range(n_gamma):
        n = 1 if i % 2 == 0 else 2
        a = np.sort(rng.uniform(0.05, 1.0, size=n + 1))[::-1]
        a = a / a.sum() * (PI / 2)
        a = np.sort(a)[::-1]
        g = gamma_curve(a, ts)
        d = np.diff(g, axis=0)
        ok = np.all(d[:, 0] < 0)
        for j in range(n):
            ok = ok and np.all(d[:, j + 1] <= d[:, j] + slack)
        if not ok:
            failures.append({"curve": "gamma", "a": a.tolist()})
    for i in range(tuples - n_gamma):
        a = float(rng.uniform(0.05, PI / 4 - 0.05))
        b = float(rng.uniform(0.05, PI / 4 - 0.05))
        e = eta_curve(a, b, ts)
        d = np.diff(e, axis=0)
        if not (np.all(d[:, 2] > 0) and np.all(d[:, 0] < 0) and np.all(d[:, 1] < 0)):
            failures.append({"curve": "eta", "a": a, "b": b})
    return _record("appendix", not failures, tuples=tuples, failures=failures)


def verify_theorem41(seed=0, resolution=128):
    """Criterion 8: smooth lifts of the triangle curve at three scales."""
    t0 = time.perf_counter()
    X = load_fixture("triangle")["curve"]
    sched = default_schedule(X)
    cloud_pl = pl_lift(X).sample(max(48, resolution // 2))
    residuals, dists = [], []
    for t in (1.0, 0.5, 0.1):
        mesh = smooth_lift(X, t, sched, resolution=resolution)
        residuals.append(symplectic_residual(mesh))
        points = mesh.points
        del mesh  # its frames are not needed for the distance
        dists.append(hausdorff_distance(points, cloud_pl))
    dt = time.perf_counter() - t0
    slope = math.log(dists[0] / dists[2]) / math.log(10.0)
    passed = (all(r < 1e-6 for r in residuals)
              and dists[0] > dists[1] > dists[2]
              and slope >= 0.8 and dt < 60.0)
    return _record("theorem41", passed, residuals=residuals, hausdorff=dists,
                   slope=slope, seconds=round(dt, 2))


def verify_maslov(seed=0):
    """Criterion 9: zero phase winding on both basis loops of the pants."""
    windings = {}
    max_step = 0.0
    for leg in (1, 2):
        pts, fr = pants_basis_loop(0.4, leg, 0.35, resolution=4096)
        from .lift import phase_values
        ang = np.angle(phase_values(pts, fr) ** 2)
        d = np.abs(np.mod(np.diff(ang) + PI, 2 * PI) - PI)
        max_step = max(max_step, float(d.max()))
        windings[f"leg{leg}"] = maslov_winding(pts, fr)
    passed = all(w == 0 for w in windings.values()) and max_step <= 0.01 * 2
    return _record("maslov", passed, windings=windings, max_phase_step=max_step)


def verify_exactness(seed=0):
    """Criterion 10: exactness of the three reference curves."""
    line = exactness_check(load_fixture("standard_line")["curve"])
    tri_X = load_fixture("triangle")["curve"]
    tri = exactness_check(tri_X)
    four = exactness_check(load_fixture("fourvalent_vertex")["curve"])
    # locate the edge on x1 + 2 x2 = 1
    target = None
    for i, e in enumerate(tri_X.edges):
        u = e.direction()
        if abs(u[0] * 1 + u[1] * 2) == 0 or (u[0], u[1]) in ((2, -1), (-2, 1)):
            target = tri["constants"][i]
    passed = (line["exact"] and not tri["exact"] and four["exact"]
              and target == 1)
    return _record("exactness", passed,
                   line_exact=line["exact"], triangle_exact=tri["exact"],
                   fourvalent_exact=four["exact"],
                   triangle_edge_constant=None if target is None else float(target))


def verify_topology(seed=0):
    """Criterion 11: the integer topology table."""
    rows = {}
    t = lift_topology(load_fixture("standard_line")["curve"])
    rows["w1_line"] = {"chi": t.chi, "punctures": t.punctures, "genus": t.genus,
                       "expect": (-1, 3, 0)}
    t = lift_topology(load_fixture("weight2_line")["curve"])
    rows["w2_line"] = {"chi": t.chi, "punctures": t.punctures, "genus": t.genus,
                       "expect": (-4, 6, 0)}
    t = lift_topology(load_fixture("genus1_vertex")["curve"])
    rows["fig8_vertex"] = {"chi": t.chi, "punctures": t.punctures, "genus": t.genus,
                           "expect": (-3, 3, 1)}
    fx = load_fixture("p2_torus")
    t = lift_topology(fx["curve"], fx["polygon"])
    rows["p2_curve"] = {"chi": t.chi, "orientable": t.orientable, "genus": t.genus,
                        "b": t.boundary_circles, "expect": (0, True, 1, 0)}
    fx = load_fixture("nonorientable")
    t = lift_topology(fx["curve"], fx["polygon"])
    rows["nonorientable"] = {"chi": t.chi, "orientable": t.orientable,
                             "b": t.boundary_circles, "expect": (-4, False, 0)}
    passed = all(tuple(v for k, v in row.items() if k != "expect") == row["expect"]
                 for row in rows.values())
    return _record("topology", passed, rows=rows)


def verify_monotone(seed=0):
    """Criterion 12: monotone arithmetic of the two torus fixtures."""
    fx = load_fixture("p2_monotone")
    r1 = monotone_report(fx["curve"], fx["polygon"])
    pairs1 = {row["class"]: (row["mu"], row["omega"]) for row in r1["pairs"]}
    fx = load_fixture("p1p1_monotone")
    r2 = monotone_report(fx["curve"], fx["polygon"])
    pairs2 = {row["class"]: (row["mu"], row["omega"]) for row in r2["pairs"]}
    ok1 = (pairs1["tau"] == (6, 3)
           and all(pairs1[f"facet-{i}"] == (2, 1) for i in range(3))
           and pairs1["fiber"] == (0, 0)
           and r1["proportional"] and r1["factor"] == 2)
    ok2 = (all(pairs2[f"facet-{i}"] == (2, 1) for i in range(4))
           and r2["proportional"] and r2["factor"] == 2)
    return _record("monotone", ok1 and ok2,
                   p2={k: (m, str(o)) for k, (m, o) in pairs1.items()},
                   p1p1={k: (m, str(o)) for k, (m, o) in pairs2.items()})


# every suite takes the seed, whether or not it samples
SUITES = {f.__name__[len("verify_"):]: f for f in (
    verify_hessian, verify_boundary, verify_region, verify_equivariance,
    verify_legendre, verify_decomposition, verify_appendix, verify_theorem41,
    verify_maslov, verify_exactness, verify_topology, verify_monotone)}


def run_suite(name, seed=0):
    if name == "all":
        return [SUITES[k](seed=seed) for k in SUITES]
    if name not in SUITES:
        from .errors import InputError
        raise InputError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return [SUITES[name](seed=seed)]
