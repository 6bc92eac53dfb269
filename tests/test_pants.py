import math

import numpy as np
import pytest
from helpers import region_slack
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from oracle_pants import OraclePantsMap, oracle_solve_scalar

from troplag.coamoeba import PI, r_apply, rstar_apply
from troplag.errors import DomainError, InputError, NumericError
from troplag.pants import (DecompositionData, PantsMap, ProjectionPair, _PlusJet,
                           eta_curve, gamma_curve, solve_leg_fiber)

PM1 = PantsMap(1)
PM2 = PantsMap(2)


# ---------------------------------------------------------------------------
# the potential

@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_pants_map_refuses_non_finite_scale(lam):
    with pytest.raises(InputError, match="finite"):
        PantsMap(1, lam)


def test_potential_closed_form_value():
    val = PM1.F([PI / 6, PI / 6])
    assert val == pytest.approx(math.sqrt(1 / 8), abs=1e-15)


def test_potential_vanishes_on_boundary():
    # the (n+1)-st root amplifies rounding, hence the loose absolute bound
    assert abs(PM1.F([PI / 4, PI / 4])) < 1e-8
    assert abs(PM1.F([0.3, 0.0])) < 1e-8
    assert abs(PM2.F([0.2, 0.3, PI / 2 - 0.5])) < 1e-5


def test_potential_odd_under_involution():
    for n, pm in ((1, PM1), (2, PM2)):
        ys = pm.sample_interior(1000, seed=11)
        assert np.abs(pm.F(-ys) + pm.F(ys)).max() < 1e-14


def test_potential_outside_raises():
    with pytest.raises(DomainError):
        PM1.F([PI / 2 + 0.3, PI / 2 + 0.3])


def test_rescaling_is_linear():
    pm5 = PantsMap(1, 0.5)
    ys = PM1.sample_interior(200, seed=2)
    assert np.allclose(pm5.F(ys), 0.5 * PM1.F(ys))
    assert np.allclose(pm5.h(ys), 0.5 * PM1.h(ys), atol=1e-14)


# ---------------------------------------------------------------------------
# the gradient map

def test_gradient_vanishes_at_barycentric_maximum():
    assert np.abs(PM1.h([PI / 6, PI / 6])).max() < 1e-12


def test_gradient_chart_value_on_exceptional_set():
    h0 = PM1.h_chart(np.array([[1.0]]), np.array([0.0]))
    assert np.allclose(h0, [0.5, 0.5])
    assert 4 * h0[0] * h0[1] == pytest.approx(1.0, abs=1e-12)
    # n = 2 version of the boundary identity at alpha = (1, 1)
    h2 = PM2.h_chart(np.array([[1.0, 1.0]]), np.array([0.0]))
    assert 27 * np.prod(h2) == pytest.approx(1.0, abs=1e-12)


def test_gradient_even_and_equivariant():
    for n, pm in ((1, PM1), (2, PM2)):
        ys = pm.coamoeba.sample_interior(500, seed=3, margin=0.01)
        h0 = pm.h(ys)
        assert np.abs(pm.h(-ys) - h0).max() < 1e-10
        for k in range(1, n + 2):
            lhs = pm.h(r_apply(n, k, ys))
            rhs = rstar_apply(n, k, h0)
            assert np.abs(lhs - rhs).max() < 1e-10


def test_gradient_chart_consistency_along_ray():
    alpha = np.array([[0.7]])
    for t in (0.1, 0.01, 0.001, 1e-5):
        y = np.array([0.7 * t, t])
        err = np.abs(PM1.h(y) - PM1.h_chart(alpha, np.array([t]))).max()
        assert err < 1e-10


def test_gradient_open_face_raises():
    with pytest.raises(DomainError):
        PM1.h([0.4, 0.0])  # open facet point, no chart covers it


# ---------------------------------------------------------------------------
# the Hessian

def _fd_hessian(pm, y, eps=1e-5):
    m = pm.m
    H = np.zeros((m, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = eps
        H[:, j] = (pm.h(y + e) - pm.h(y - e)) / (2 * eps)
    return H


def test_hessian_matches_finite_differences():
    y1 = np.array([PI / 6, PI / 6])
    H = PM1.hessian(y1)
    assert np.abs(H - _fd_hessian(PM1, y1)).max() < 1e-6 * np.abs(H).max()
    y2 = np.array([PI / 8, PI / 8, PI / 8])
    H2 = PM2.hessian(y2)
    assert np.abs(H2 - _fd_hessian(PM2, y2)).max() < 1e-6 * np.abs(H2).max()
    assert np.linalg.eigvalsh(H2).max() < 0


def test_hessian_negative_definite_at_samples():
    for pm in (PM1, PM2):
        ys = pm.sample_interior(2000, seed=5)
        assert pm.hessian_eigen_max(ys).max() < 0


def test_hessian_flips_sign_under_involution():
    # chain rule with F odd: Hess(-y) = -Hess(y); the minus half carries a
    # positive definite Hessian (interior minimum of the negative potential)
    y = np.array([PI / 6, PI / 5])
    assert np.allclose(PM1.hessian(-y), -PM1.hessian(y), atol=1e-12)


def test_h_and_hessian_diag_match_full_evaluators():
    # what the fiber solver reads of the kernel (h_i and the unsymmetrized
    # H_ii) is the old one-coordinate evaluator's value bit for bit, and
    # close to the full Hessian's diagonal
    for n, lam in ((1, 1.0), (2, 1.0), (2, 0.3)):
        pm, ref = PantsMap(n, lam), OraclePantsMap(n, lam)
        ys = pm.sample_interior(500, seed=6)
        jet = _PlusJet(n, lam, ys.T.copy())
        for i in range(pm.m):
            h, Hii = ref._h_and_hessian_diag(ys, i)
            assert jet.h(i).tobytes() == h.tobytes()
            assert jet.H(i, i).tobytes() == Hii.tobytes()
            assert np.allclose(Hii, pm.hessian(ys)[:, i, i], rtol=1e-9, atol=0)


@st.composite
def _half_rows(draw):
    """(n, lam, rows): rows of both closed halves, shifted by multiples of
    pi, some within VERTEX_SWITCH_DIST of a vertex (the chart branch of h);
    in some cases also rows with coordinates on a face or outside it by at
    most 5e-13."""
    n = draw(st.integers(0, 2))
    m = n + 1
    lam = draw(st.floats(1e-3, 1e3))
    faces = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        b = draw(hnp.arrays(float, m + 1, elements=st.floats(1e-6, 1.0)))
        b = b / b.sum()
        kind = draw(st.sampled_from(["interior", "vertex", "face"] if faces
                                    else ["interior", "vertex"]))
        if kind == "vertex":
            eps = draw(st.floats(1e-9, 6e-4))
            b = eps * b + (1 - eps) * np.eye(m + 1)[draw(st.integers(0, m))]
        y = PI / 2 * b[1:]
        if kind == "face":
            for j in draw(st.sets(st.integers(0, m - 1), min_size=1)):
                y[j] = draw(st.sampled_from([0.0, -5e-13, 1e-13]))
        if draw(st.booleans()):
            y = -y
        rows.append(y + PI * draw(hnp.arrays(np.int64, m, elements=st.integers(-2, 2))))
    return n, lam, np.array(rows)


def _same_or_both_raise(got, want):
    """got() and want() both raise DomainError, or return the same bytes."""
    try:
        with np.errstate(all="ignore"):  # the old chart branch warned
            expected = want()
    except DomainError:
        with pytest.raises(DomainError):
            got()
        return
    values = got()
    assert len(values) == len(expected)
    assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes()
               for a, b in zip(values, expected))


@settings(max_examples=300, deadline=None)
@given(_half_rows())
def test_kernel_matches_row_wise_evaluators(case):
    # F, h and hessian through the column kernel, alone and together, are
    # the row-wise evaluators' values bit for bit, including the chart
    # branch of h, the clipped boundary values of F and the DomainErrors
    n, lam, ys = case
    pm, ref = PantsMap(n, lam), OraclePantsMap(n, lam)
    for name in ("F", "h", "hessian"):
        _same_or_both_raise(lambda: [getattr(pm, name)(ys)], lambda: [getattr(ref, name)(ys)])
    _same_or_both_raise(lambda: pm._evaluate(ys, "FhH"),
                        lambda: [ref.F(ys), ref.h(ys), ref.hessian(ys)])


def test_hessian_boundary_raises():
    with pytest.raises(DomainError):
        PM1.hessian([PI / 4, PI / 4])
    with pytest.raises(DomainError):
        PM1.hessian([0.0, 0.0])


def test_soft_check_higher_dimension():
    # the definiteness claim is only asserted for n <= 2; sample n = 3 as a
    # soft check that the generic evaluators stay consistent
    pm = PantsMap(3)
    ys = pm.sample_interior(200, seed=9)
    assert np.isfinite(pm.F(ys)).all()
    assert np.isfinite(pm.h(ys)).all()
    assert pm.hessian_eigen_max(ys).max() < 0


# ---------------------------------------------------------------------------
# region membership and cells

def test_region_images_cover_all_components():
    ys = PM1.sample_interior(200, seed=1)
    assert region_slack(PM1, PM1.h(ys)).min() >= -1e-9


def test_cell_classification_examples():
    assert PM1.in_W({1, 2}, [PI / 8, PI / 8], k=0)[0]
    # equality case: on the boundary of both half-spaces toward the vertex
    y = np.array([[PI / 6, PI / 6]])
    assert PM1.delta_value(1, 0, y)[0] == pytest.approx(0.0, abs=1e-15)
    assert PM1.delta_value(2, 0, y)[0] == pytest.approx(0.0, abs=1e-15)


def test_star_neighborhoods_permute_under_symmetry():
    pm = PM1
    ys = pm.sample_interior(300, seed=8)
    for J in (frozenset({1}), frozenset({2}), frozenset({0})):
        inW = pm.in_W(J, ys)
        for l in (1, 2):
            # R_l acts on the indices by exchanging 0 and l
            Jl = frozenset({0: l, l: 0}.get(j, j) for j in J)
            moved = r_apply(1, l, ys)
            # R_l maps C+ to itself, so the plus representative is direct
            assert np.array_equal(pm.in_W(Jl, moved), inW)


def test_image_containment_of_vertex_star():
    for n, pm in ((1, PM1), (2, PM2)):
        ys = pm.sample_W_J0(2000, seed=4)
        x = pm.h(ys)
        cval = (pm.lam / pm.m) ** pm.m
        slack = np.minimum(x.min(axis=1),
                           cval - np.prod(np.clip(x, 0, None), axis=1))
        assert slack.min() >= -1e-9


def test_boundary_identity_on_exceptional_set():
    for n, pm in ((1, PM1), (2, PM2)):
        rng = np.random.default_rng(12)
        alphas = np.exp(rng.uniform(np.log(0.1), np.log(10), size=(1000, n)))
        x = np.atleast_2d(pm.h_chart(alphas, np.zeros(1000)))
        resid = np.abs((n + 1) ** (n + 1) * np.prod(x, axis=1) - 1.0)
        assert resid.max() < 1e-9


def test_injectivity_proxy():
    for pm in (PM1, PM2):
        a = pm.sample_interior(10_000, seed=21)
        b = pm.sample_interior(10_000, seed=77)
        keep = np.abs(a - b).max(axis=1) > 1e-9
        inner = np.sum((pm.h(b) - pm.h(a)) * (b - a), axis=1)
        assert np.all(inner[keep] < 0)


def test_limits_at_open_faces():
    # approaching int E_J with 0 not in J: h_j -> +inf (j in J), h_k -> 0
    base = np.array([0.0, 0.9])
    for eps in (1e-2, 1e-4, 1e-6):
        h = PM1.h(base + np.array([eps, 0.0]))
        assert h[0] > 1.0 / (10 * math.sqrt(eps))
        assert abs(h[1]) < 10 * math.sqrt(eps)
    # approaching int E_0 (0 in J): both components -> -inf, difference -> 0
    direction = np.array([1.0, 1.0]) / 2
    for eps in (1e-2, 1e-4, 1e-6):
        y = (PI / 4 - eps) * np.array([1.0, 1.0])
        h = PM1.h(y)
        assert h[0] < -1.0 / (10 * math.sqrt(eps))
        assert abs(h[0] - h[1]) < 10 * math.sqrt(eps)


# ---------------------------------------------------------------------------
# projections, fibers, Legendre transform

def test_fiber_solve_round_trip_n1():
    for j in (1, 2):
        pp = ProjectionPair(PM1, {j})
        ys = PM1.sample_interior(1000, seed=5)
        keep = PM1.in_W({j}, ys, k=0, tol=0.0) & (ys[:, j - 1] > 1e-3)
        ys = ys[keep]
        yp, xp = pp.g(ys)
        q = pp.fiber_solve(xp, yp)
        assert np.abs(q - ys).max() < 1e-8


def test_fiber_solve_round_trip_minus_side():
    pp = ProjectionPair(PM1, {1})
    ys = -PM1.sample_interior(300, seed=6)
    keep = PM1.in_W({1}, -ys, k=0, tol=0.0) & ((-ys)[:, 0] > 1e-3)
    ys = ys[keep]
    yp, xp = pp.g(ys)
    q = pp.fiber_solve(xp, yp)
    assert np.abs(q - ys).max() < 1e-8


def test_fiber_solve_n2_scalar_and_planar():
    pp1 = ProjectionPair(PM2, {1})
    ys = PM2.sample_interior(300, seed=31)
    keep = PM2.in_W({1}, ys, k=0, tol=0.0) & (ys[:, 0] > 1e-3)
    ys1 = ys[keep]
    yp, xp = pp1.g(ys1)
    q = pp1.fiber_solve(xp, yp)
    assert np.abs(q - ys1).max() < 1e-8


def test_fiber_solution_approaches_delta_boundary():
    # as the base point approaches the cone boundary where h_j -> 0, the
    # fiber solution approaches 2 y_j + sum_{k != j} y_k = pi/2
    pp = ProjectionPair(PM1, {1})
    ypr = np.array([0.0, 0.8])
    for x1, tol in ((1e-3, 2e-2), (1e-6, 2e-3)):
        q = pp.fiber_solve(np.array([x1, 0.0]), ypr)
        assert abs(2 * q[0] + q[1] - PI / 2) < tol


def test_fiber_solve_domain_error():
    pp = ProjectionPair(PM1, {1})
    with pytest.raises(DomainError):
        pp.fiber_solve(np.array([-0.5, 0.0]), np.array([0.0, 0.8]))
    # a transverse coordinate of exactly 0 lies on the boundary of the face
    with pytest.raises(DomainError):
        pp.fiber_solve(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
    with pytest.raises(DomainError):
        ProjectionPair(PM2, {1}).fiber_solve(np.array([1.0, 0.0, 0.0]),
                                             np.array([0.0, 0.0, 0.3]))


def test_fiber_solve_rejects_non_finite_target():
    pp = ProjectionPair(PM1, {1})
    with pytest.raises(DomainError):
        pp.fiber_solve(np.array([np.inf, 0.0]), np.array([0.0, 0.8]))


def _bisection_fiber(pm, wp, target, iters=1100):
    """Reference for solve_leg_fiber with j = 1: bisection on
    the monotone h_1 over the bracket (0, (pi/2 - rest)/2)."""
    ref = OraclePantsMap(pm.n, pm.lam)
    lo = np.zeros(len(wp))
    hi = (PI / 2 - wp[:, 1:].sum(axis=1)) / 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        w = wp.copy()
        w[:, 0] = mid
        above = ref._h_plus_raw(w)[:, 0] > target
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("n", [1, 2])
def test_solve_scalar_matches_bisection_table(n):
    # lam from 1e-3 to 1 and lam/x from 1e-3 to 1e3, at several transverse
    # points: the asymptotic Newton start lands inside the bracket for small
    # lam/x and outside it (falling back to hi/2) for large lam/x
    rng = np.random.default_rng(n)
    rows, targets, lams = [], [], []
    for lam in (1e-3, 1e-2, 1e-1, 1.0):
        for ratio in (1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3):
            for _ in range(4):
                rest = rng.uniform(0.05, 1.2) * rng.dirichlet(np.ones(n))
                rows.append(np.concatenate([[0.0], rest]))
                targets.append(lam / ratio)
                lams.append(lam)
    wp, targets, lams = np.array(rows), np.array(targets), np.array(lams)
    hi = (PI / 2 - wp[:, 1:].sum(axis=1)) / 2.0
    c = np.cos(wp[:, 1:].sum(axis=1)) * np.prod(np.sin(wp[:, 1:]), axis=1)
    start = (lams * c ** (1.0 / (n + 1)) / ((n + 1) * targets)) ** ((n + 1) / n)
    assert np.any(start < hi) and np.any(start > hi)
    for lam in np.unique(lams):
        sel = lams == lam
        pm = PantsMap(n, lam)
        q = solve_leg_fiber(pm, 1, targets[sel], wp[sel], 1e-12, 80)
        ref = _bisection_fiber(pm, wp[sel], targets[sel])
        old = oracle_solve_scalar(OraclePantsMap(n, lam), 1, targets[sel], wp[sel], 1e-12, 80)
        assert q.tobytes() == old.tobytes()
        assert np.array_equal(q[:, 1:], wp[sel][:, 1:])
        assert np.allclose(q[:, 0], ref, rtol=1e-10, atol=1e-12)


def test_fiber_solve_root_below_tolerance():
    # x = 1e12 at lam = 1 puts the root near 1e-25: the solve still returns
    # it (within tol of 0), not a domain error
    for pm, x, ypr in ((PM1, [1e12, 0.0], [0.0, 0.8]),
                       (PM2, [1e12, 0.0, 0.0], [0.0, 0.4, 0.3])):
        q = ProjectionPair(pm, {1}).fiber_solve(np.array(x), np.array(ypr))
        assert 0.0 < q[0] <= 1e-12
        assert np.allclose(q[1:], ypr[1:], atol=1e-15)


def test_fiber_solve_non_convergence_diagnostics(monkeypatch):
    # the exact n = 1 start converges in one iteration; without it (the
    # asymptotic start) one iteration leaves these rows unconverged
    import troplag.pants as pants
    monkeypatch.setattr(pants, "leg_fiber_root", lambda b, s: np.full_like(b, np.nan))
    pp = ProjectionPair(PM1, {1})
    with pytest.raises(NumericError) as info:
        pp.fiber_solve(np.array([[1.0, 0.0], [2.0, 0.0]]),
                       np.array([[0.0, 0.8], [0.0, 0.5]]), max_iter=1)
    diag = info.value.diagnostics
    assert diag["iterations"] == 1
    assert 1 <= diag["unconverged_rows"] <= 2
    assert diag["max_residual"] > 1e-6


@st.composite
def _n1_fiber_rows(draw):
    """A scale lam, and up to 12 rows of fiber angle in (0, pi) (b or
    pi - b, so both halves) and target lam * 10^k."""
    lam = draw(st.floats(1e-3, 1.0))
    size = draw(st.integers(1, 12))
    b = draw(hnp.arrays(float, size, elements=st.floats(1e-3, PI / 2 - 1e-3)))
    minus = draw(hnp.arrays(bool, size))
    k = draw(hnp.arrays(float, size, elements=st.floats(-2.0, 4.0)))
    return lam, np.where(minus, PI - b, b), lam * 10.0 ** k


@settings(max_examples=60, deadline=None)
@given(_n1_fiber_rows())
@example((1.0, np.array([PI / 2 - 1e-3, PI / 2 + 1e-3, 1e-3]), np.array([1e-2, 1e-2, 1e4])))
@example((1e-3, np.array([PI / 2 - 1e-3, 0.7]), np.array([1e-5, 10.0])))
def test_n1_fiber_solve_converges_in_one_step(case):
    # the exact start is the root: one Newton step confirms it, and the
    # result is bisection's to the table's tolerance
    from troplag.lift import _fiber_circle
    lam, thetas, target = case
    pm = PantsMap(1, lam)
    wp = np.abs(_fiber_circle(pm, 1, target, thetas))  # the plus representative
    h = _PlusJet(1, lam, wp.T.copy()).h(0)
    # h_1 has the factor cos(2q + b): rounding 2q + b alone moves it by up
    # to eps (2q + b) tan(2q + b), relatively (3.5e-11 at b = pi/2 - 1e-3,
    # S / lam = 1e-2, where bisection's own residual is 4.1e-11)
    theta = 2 * wp[:, 0] + wp[:, 1]
    floor = np.finfo(float).eps * theta * np.abs(np.tan(theta))
    assert np.all(np.abs(h - target) <= (1e-12 + floor) * target)
    base = wp * [0.0, 1.0]
    ref = _bisection_fiber(pm, base, target)
    assert np.allclose(wp[:, 0], ref, rtol=1e-10, atol=1e-12)
    small = target / lam <= 1e3
    one = solve_leg_fiber(pm, 1, target[small], base[small], 1e-13, 1)
    assert one.tobytes() == wp[small].tobytes()


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-3, 1.0), hnp.arrays(float, (8, 2), elements=st.floats(0.05, 0.7)),
       hnp.arrays(float, 8, elements=st.floats(-2.0, 3.0)))
def test_n2_fiber_solve_matches_oracle(lam, others, k):
    # n = 2 keeps the asymptotic start: the kernel is the row-wise oracle
    wp = np.concatenate([np.zeros((8, 1)), others], axis=1)
    target = lam * 10.0 ** k
    q = solve_leg_fiber(PantsMap(2, lam), 1, target, wp, 1e-12, 80)
    old = oracle_solve_scalar(OraclePantsMap(2, lam), 1, target, wp, 1e-12, 80)
    assert q.tobytes() == old.tobytes()


def test_legendre_differential_identities():
    pp = ProjectionPair(PM1, {1})
    rng = np.random.default_rng(7)
    for _ in range(30):
        x = np.array([rng.uniform(0.2, 1.2), 0.0])
        ypr = np.array([0.0, rng.uniform(0.3, PI / 2 - 0.3)])
        G, q, dG = pp.legendre_G(x, ypr)
        h = 1e-6
        gx = (pp.legendre_G(x + [h, 0], ypr)[0] - pp.legendre_G(x - [h, 0], ypr)[0]) / (2 * h)
        gy = (pp.legendre_G(x, ypr + [0, h])[0] - pp.legendre_G(x, ypr - [0, h])[0]) / (2 * h)
        assert gx == pytest.approx(dG["x"][0], abs=1e-6)
        assert gy == pytest.approx(dG["yprime"][0], abs=1e-6)
        # graph of dG reproduces the pants point
        hq = PM1.h(q)
        point = (x[0], -dG["yprime"][0], dG["x"][0], ypr[1])
        assert point[1] == pytest.approx(hq[1], abs=1e-12)
        assert point[2] == pytest.approx(q[0], abs=1e-12)
        assert hq[0] == pytest.approx(x[0], abs=1e-10)


@pytest.mark.parametrize("seed", [0, 101])
def test_batched_legendre_check_matches_the_per_point_loop(seed):
    # verify_legendre's batched transforms draw from the rng in the order of
    # one transform per point and find the same fd_error float
    from troplag.verify import verify_legendre
    pp = ProjectionPair(PM1, {1})
    rng = np.random.default_rng(seed)
    fd_err = 0.0
    for _ in range(100):
        x = np.array([float(rng.uniform(0.2, 1.5)), 0.0])
        ypr = np.array([0.0, float(rng.uniform(0.25, PI / 2 - 0.25))])
        G0, q0, dG = pp.legendre_G(x, ypr)
        h = 1e-6
        gx = (pp.legendre_G(x + [h, 0], ypr)[0] - pp.legendre_G(x - [h, 0], ypr)[0]) / (2 * h)
        gy = (pp.legendre_G(x, ypr + [0, h])[0] - pp.legendre_G(x, ypr - [0, h])[0]) / (2 * h)
        fd_err = max(fd_err, abs(gx - dG["x"][0]), abs(gy - dG["yprime"][0]))
    assert verify_legendre(seed=seed)["details"]["fd_error"] == fd_err


def test_projection_pair_validation():
    # only the leg faces J = {j}, 1 <= j <= n+1, have a fiber solve
    for J in (set(), {0}, {3}, {1, 2}, {0, 1, 2}):
        with pytest.raises(InputError):
            ProjectionPair(PM1, J)
    assert ProjectionPair(PM2, {3}).j == 3


# ---------------------------------------------------------------------------
# decomposition data

def test_decomposition_constants():
    dd = DecompositionData()
    assert dd.z(1 / 9) == pytest.approx(1 / 3, abs=1e-13)
    assert np.allclose(dd.q0t(1 / 9), dd.q0, atol=1e-12)
    assert 27 * np.prod(dd.q0) == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(dd.tau_intersection(), [1 / 6, 1 / 6, 0.0], atol=1e-14)


def test_decomposition_domain_error():
    dd = DecompositionData()
    with pytest.raises(DomainError):
        dd.z(0.05)
    for t in (math.nan, math.inf):
        with pytest.raises(DomainError):
            dd.z(t)


def test_section_triangles_shrink_to_face():
    dd = DecompositionData()
    tri = [dd.qkt(k, 1 / 9) for k in (0, 2, 3)]
    assert np.allclose(tri[0], dd.q0, atol=1e-12)
    assert np.allclose(tri[1], rstar_apply(2, 2, dd.q0), atol=1e-12)
    assert np.allclose(tri[2], rstar_apply(2, 3, dd.q0), atol=1e-12)


def test_qkt_on_boundary_surfaces():
    dd = DecompositionData()
    for t in (1 / 9, 0.2, 0.5):
        q = dd.q0t(t)
        assert 27 * np.prod(q) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# appendix test curves

TS = (np.arange(99) + 1) / 100.0


def test_gamma_chain_n1():
    g = gamma_curve(np.array([PI / 4, PI / 4]), TS)
    d = np.diff(g, axis=0)
    assert np.all(d < 0)


def test_gamma_chain_n2_ordered():
    a = np.array([0.8, 0.5, PI / 2 - 1.3])
    g = gamma_curve(a, TS)
    d = np.diff(g, axis=0)
    assert np.all(d[:, 0] < 0)
    assert np.all(d[:, 1] <= d[:, 0] + 1e-12)
    assert np.all(d[:, 2] <= d[:, 1] + 1e-12)


def test_eta_signs():
    e = eta_curve(PI / 8, PI / 8, TS)
    d = np.diff(e, axis=0)
    assert np.all(d[:, 2] > 0)
    assert np.all(d[:, 0] < 0)
    assert np.all(d[:, 1] < 0)


def test_appendix_constraint_violations():
    with pytest.raises(InputError):
        gamma_curve(np.array([0.5, 0.5]), TS)  # sum != pi/2
    with pytest.raises(InputError):
        eta_curve(PI / 3, PI / 8, TS)  # a outside (0, pi/4)
    with pytest.raises(DomainError):
        gamma_curve(np.array([PI / 4, PI / 4]), np.array([1.5]))
