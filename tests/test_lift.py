import functools
import hashlib
import json
import math
import random
import sys
import threading
import time
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from helpers import constant_lifting, copy_mesh, in_V, mesh_of, percent_export, region_slack
from hypothesis import example, given, settings, strategies as st
from oracle_pants import oracle_smooth_pieces
from scipy.spatial import cKDTree

from troplag import lift as lift_module
from troplag.coamoeba import PI, reduce_mod_pi, rstar_apply
from troplag.errors import ConfigurationError, InputError, NumericError
from troplag.fixtures import _load, fixture_names, load_fixture
from troplag.lift import (Cutoff, GluingSchedule, LagrangianMesh, MeshPiece, _balls_meet,
                          _boundary_cloud, _digit_table, _distinct_rows, _feasible,
                          _fold_fiber, _int_rows,
                          default_schedule, exactness_check,
                          hausdorff_distance, maslov_winding,
                          pants_basis_loop, phase_values, pl_lift, smooth_lift,
                          symplectic_residual, twist,
                          validate_schedule)
from troplag.pants import PantsMap
from troplag.polyhedral import (LatticePolytope, LiftingFunction, load_polytope_json,
                                regular_subdivision)
from troplag.toric import lift_topology
from troplag.tropical import is_smooth, load_curve_json, tropical_hypersurface


def _pieces(mesh, tag):
    return [p for p in mesh.pieces if p.tag == tag]


def standard_line():
    return load_fixture("standard_line")["curve"]


def triangle_curve():
    return load_fixture("triangle")["curve"]


# ---------------------------------------------------------------------------
# PL lifts

def test_pl_lift_standard_line_topology():
    pl = pl_lift(standard_line())
    kinds = sorted(p.kind for p in pl.pieces)
    assert kinds == ["edge", "edge", "edge", "vertex"]
    topo = lift_topology(pl.X)
    assert (topo.chi, topo.punctures, pl.genus()) == (-1, 3, 0)  # three-punctured sphere


def test_pl_lift_triangle_topology():
    # the corner locus of the triangle example carries a cycle: six edges,
    # three pants fibers, genus one with three punctures
    pl = pl_lift(triangle_curve())
    assert sum(1 for p in pl.pieces if p.kind == "edge") == 6
    assert sum(1 for p in pl.pieces if p.kind == "vertex") == 3
    topo = lift_topology(pl.X)
    assert (topo.chi, topo.punctures, pl.genus()) == (-3, 3, 1)


def test_pl_lift_weight2_edge_has_two_circles():
    P = LatticePolytope.from_points([(0, 0), (2, 0)])
    X = tropical_hypersurface(regular_subdivision(P, constant_lifting(P)))
    pl = pl_lift(X)
    (piece,) = [p for p in pl.pieces if p.kind == "edge"]
    assert piece.fiber.w == 2
    circles = piece.fiber.circles()
    assert len(circles) == 2
    offsets = sorted(float(b @ np.array(piece.fiber.u)) for b, _ in circles)
    assert np.allclose(np.diff(offsets), PI / 2)


def test_pl_lift_needs_duality():
    X = load_curve_json({"vertices": [[0, 0]], "edges": [],
                         "rays": [[0, [1, 0]], [0, [0, 1]], [0, [-1, -1]]]})
    with pytest.raises(InputError):
        pl_lift(X)


def test_pl_sample_cloud_shape():
    cloud = pl_lift(standard_line()).sample(16)
    assert cloud.shape[1] == 4
    assert np.isfinite(cloud).all()


def _coamoeba_cloud_oracle(fiber, resolution):
    """Triangle branch of _coamoeba_cloud as a double loop, point by point."""
    v = np.array(fiber.cell.vertices, dtype=float) * PI / 2
    out = []
    for i in range(resolution + 1):
        for k in range(resolution + 1 - i):
            l1, l2 = i / resolution, k / resolution
            p = v[0] + l1 * (v[1] - v[0]) + l2 * (v[2] - v[0])
            out.append(np.mod(p, PI))
            out.append(np.mod(-p, PI))
    return np.array(out)


def _pl_cloud_oracle(pl, windings, resolution, truncation):
    """Twisted PL sample one base point at a time, every fiber reduced mod
    pi after its shift (zero on an edge without a winding)."""
    from troplag.lift import _BUMP, _coamoeba_cloud, _dual_basis_vector, _edge_param_points
    X = pl.X
    pts = []
    for piece in pl.pieces:
        if piece.kind != "edge":
            v = np.array([float(c) for c in piece.cell.verts[0]])
            ys = _coamoeba_cloud(piece.fiber, resolution)
            pts.append(np.concatenate([np.repeat(v[None, :], len(ys), axis=0), ys], axis=1))
            continue
        ei = X.edges.index(piece.cell)
        m = windings.get(ei, 0)
        seg = _edge_param_points(lift_module._curve_table(X), ei, piece.cell.kind, resolution,
                                 truncation)
        thetas = (np.arange(resolution) + 0.5) * PI / resolution
        v = np.array(_dual_basis_vector(piece.cell.direction()), dtype=float)
        for j in range(piece.fiber.w):
            ys = piece.fiber.points(thetas, j)
            for p, s in zip(seg, np.linspace(0.0, 1.0, len(seg))):
                yy = np.mod(ys + (PI * m * _BUMP.psi(s) * v)[None, :], PI)
                pts.append(np.concatenate([np.repeat(p[None, :], len(yy), axis=0), yy], axis=1))
    return np.vstack(pts)


@pytest.mark.parametrize("resolution", [8, 64, 128])
def test_coamoeba_cloud_matches_double_loop(resolution):
    from troplag.lift import _coamoeba_cloud
    fibers = [p.fiber for p in pl_lift(triangle_curve()).pieces if p.kind == "vertex"]
    fibers.append(pl_lift(standard_line()).pieces[-1].fiber)
    for fiber in fibers:
        got = _coamoeba_cloud(fiber, resolution)
        assert got.tobytes() == _coamoeba_cloud_oracle(fiber, resolution).tobytes()


def _in_standard_coamoeba(y, eps):
    """Whether one point y of the 2-torus lies in the standard coamoeba:
    within eps of a vertex, in an open half, or in a closed half and on a
    face equation (y_j = 0, or y_1 + y_2 = pi/2, mod pi)."""
    centered = np.mod(y + PI / 2, PI) - PI / 2
    for v in ((0.0, 0.0), (PI / 2, 0.0), (0.0, PI / 2)):
        d = np.mod(y - np.array(v) + PI / 2, PI) - PI / 2
        if np.sqrt(np.sum(d * d)) <= eps:
            return True
    halves = [np.mod(sign * y + PI / 4, PI) - PI / 4 for sign in (1.0, -1.0)]
    if any(np.all(w > eps) and w.sum() < PI / 2 - eps for w in halves):
        return True
    s = np.mod(y.sum() - PI / 2, PI)
    on_face = np.any(np.abs(centered) <= eps) or min(s, PI - s) <= eps
    return bool(on_face and any(np.all(w >= -eps) and w.sum() <= PI / 2 + eps
                                for w in halves))


def _contains_pointwise(fiber, y, eps=1e-9):
    """Membership of one torus point as the rejection sampler tested it one
    point at a time: beta(y) in the standard coamoeba for a covering fiber;
    else some translate of 2y/pi or -2y/pi, over the point's own range of
    translates, on the inner side of every cell edge."""
    from troplag.coamoeba import CoveringCoamoeba
    if isinstance(fiber, CoveringCoamoeba):
        return _in_standard_coamoeba(fiber.beta(y), eps)
    verts = list(fiber.cell.vertices)
    for sign in (1.0, -1.0):
        z = np.mod(2.0 * (sign * y) / PI, 2.0)
        ranges = [range(math.floor((min(v[i] for v in verts) - z[i]) / 2) - 1,
                        math.ceil((max(v[i] for v in verts) - z[i]) / 2) + 2) for i in range(2)]
        for k0 in ranges[0]:
            for k1 in ranges[1]:
                q = z + 2.0 * np.array([k0, k1])
                if all((b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0]) >= -eps
                       for a, b in zip(verts, verts[1:] + verts[:1])):
                    return True
    return False


def _unit_square_curve():
    from troplag.fixtures import load_input
    return load_input({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
                       "lifting": {"0,0": 0, "1,0": 0, "1,1": 0, "0,1": 0}})["curve"]


@pytest.mark.parametrize("resolution", [8, 16])
def test_rejection_sampler_matches_pointwise_membership(resolution):
    # the grid tested at once keeps the points, in the order, that testing
    # each point alone keeps: a square cell and a covering fiber
    from troplag.coamoeba import CellCoamoeba, CoveringCoamoeba
    from troplag.lift import _coamoeba_cloud
    fibers = [p.fiber for X in (_unit_square_curve(), load_fixture("weight2_line")["curve"])
              for p in pl_lift(X).pieces if p.kind == "vertex"]
    assert {type(f) for f in fibers} == {CellCoamoeba, CoveringCoamoeba}
    grid = np.linspace(0, PI, 4 * resolution, endpoint=False)
    yy = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
    # and just below each grid coordinate, where 2y/pi mod 2 is just below 2
    below = np.mod(yy - 1e-12, PI)
    for fiber in fibers:
        want = yy[[_contains_pointwise(fiber, y) for y in yy]]
        assert len(want) and np.array_equal(_coamoeba_cloud(fiber, resolution), want)
        assert np.array_equal(fiber.contains(below),
                              [_contains_pointwise(fiber, y) for y in below])


def test_pl_sample_of_a_square_cell_is_quick():
    # 256^2 grid points of the square cell's torus, tested at once
    pl = pl_lift(_unit_square_curve())
    start = time.perf_counter()
    pl.sample(64)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("name", ["standard_line", "triangle", "weight2_line"])
def test_pl_clouds_match_pointwise_oracle(name):
    X = load_fixture(name)["curve"]
    pl = pl_lift(X)
    trunc = lift_module._curve_table(X).truncation
    plain = pl.sample(24)
    assert plain.tobytes() == _pl_cloud_oracle(pl, {}, 24, trunc).tobytes()
    assert pl.sample(24, windings={}).tobytes() == plain.tobytes()
    windings = {0: 1, len(X.edges) - 1: -2}
    got = pl.sample(24, truncation=2.5, windings=windings)
    assert got.tobytes() == _pl_cloud_oracle(pl, windings, 24, 2.5).tobytes()



# ---------------------------------------------------------------------------
# schedules

def test_default_schedule_valid_and_serializable():
    X = triangle_curve()
    sched = default_schedule(X)
    assert validate_schedule(X, sched)
    text = sched.to_json()
    back = GluingSchedule.from_dict(json.loads(text))
    assert back.to_json() == text
    for vi, j in np.ndindex(sched.cuts.shape[:2]):
        r1, r2, rbar, r = sched.cuts[vi, j]
        assert 0 < r1 < r2 < rbar < r <= sched.ball_radius[vi]


# sha256 of default_schedule(X).to_json(): the degree-8 triangle of the
# curve benchmark (seed 7, 64 vertices) and the triangle fixture.
DEFAULT_SCHEDULE_SHA256 = {
    "degree8_seed7": "3ea9fde8f040870fdcc4b18a0b726430c989a6ebf468b22238588e6687cff0a6",
    "triangle": "aa37eab34fba2b2301d5e82132144cf6ba367bda1cc49e73cd5c13e231283457",
}


@pytest.mark.parametrize("name", sorted(DEFAULT_SCHEDULE_SHA256))
def test_default_schedule_bytes_are_pinned(name):
    X = _triangle_curve(8, 7) if name == "degree8_seed7" else triangle_curve()
    text = default_schedule(X).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_SCHEDULE_SHA256[name]


_LEG_FIELDS = ("r_prime", "r_second", "r_bar", "r")


@st.composite
def _schedule_dicts(draw):
    """JSON-shaped schedules of 1-12 vertices whose values keep the bounds:
    positive scales and radii, and leg cuts 0 < r' < r'' < rbar < r <= the
    vertex's ball radius."""
    nv = draw(st.integers(1, 12))
    positive = st.floats(1e-6, 1e6)
    ball = draw(st.lists(positive, min_size=nv, max_size=nv))
    lam = draw(st.lists(positive, min_size=nv, max_size=nv))
    fractions = st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=4, max_size=4,
                         unique=True)
    legs = {f"{vi},{j}": dict(zip(_LEG_FIELDS, (f * ball[vi] for f in sorted(draw(fractions)))))
            for vi in range(nv) for j in range(3)}
    return {"ball_radius": {str(vi): r for vi, r in enumerate(ball)},
            "lam": {str(vi): v for vi, v in enumerate(lam)},
            "legs": legs, "truncation": draw(positive)}


@settings(max_examples=60, deadline=None)
@given(_schedule_dicts())
def test_schedule_json_round_trips(d):
    text = GluingSchedule.from_dict(d).to_json()
    assert GluingSchedule.from_dict(json.loads(text)).to_json() == text
    assert json.loads(text) == d


def test_curve_table_leaves_the_curve_free_of_cycles():
    # the curve table, with its vertex frames and edge fibers, lives on the
    # curve; a table that referred back to it would keep every curve alive
    # until a full garbage collection (peak RSS grows with the number of
    # curves built)
    import gc
    import weakref
    X = triangle_curve()
    default_schedule(X)
    assert len(lift_module._curve_table(X).B) == len(X.vertices)
    ref = weakref.ref(X)
    gc.disable()
    try:
        del X
        assert ref() is None
    finally:
        gc.enable()


def test_schedule_violations_raise():
    X = triangle_curve()
    sched = default_schedule(X)
    cuts = sched.cuts.copy()
    cuts[0, 0] = (0.3, 0.2, 0.35, 0.4)
    bad = replace(sched, cuts=cuts)
    with pytest.raises(ConfigurationError):
        validate_schedule(X, bad)
    bad2 = replace(sched, ball_radius=np.full(3, 10.0),
                   cuts=np.tile([5.0, 6.5, 8.0, 9.5], (3, 3, 1)))
    with pytest.raises(ConfigurationError, match="pairwise disjoint"):
        validate_schedule(X, bad2)
    # oversized pants scale breaks the ball bound
    bad3 = replace(sched, lam=np.full(3, 5.0))
    with pytest.raises(ConfigurationError):
        validate_schedule(X, bad3)


# The per-vertex lambda bisection, one PantsMap-based feasibility check per
# scale, as the schedule computed it before the batched kernel: the oracle
# of the lockstep bisection.

_LEG_AUX = {0: 1, 1: 0, 2: 0}  # smallest admissible k_j per leg


def _s_boundary_cloud(lam, m=240):
    pm = PantsMap(1, lam)
    alphas = np.exp(np.linspace(np.log(5e-3), np.log(2e2), m))[:, None]
    x0 = np.atleast_2d(pm.h_chart(alphas, np.zeros(m)))
    return np.vstack([x0, rstar_apply(1, 1, x0), rstar_apply(1, 2, x0)])


def _schedule_feasible(lam, B, legs_lat, ball_r):
    cloud = _s_boundary_cloud(lam)
    c = np.stack([-cloud[:, 0], cloud[:, 0], cloud[:, 1]], axis=1)  # leg coordinates
    rp = np.array([legs_lat[j][0] for j in range(3)])
    body = np.all(c <= rp[None, :], axis=1)
    if not np.any(body):  # pants beyond the legs' cuts
        return False
    amb = cloud @ B.T
    if np.any(np.linalg.norm(amb[body], axis=1) > 0.9 * ball_r):
        return False
    pm = PantsMap(1, lam)
    for j in range(3):
        arm = (c[:, j] >= rp[j]) & (c[:, j] <= legs_lat[j][3])
        if not np.any(arm):
            continue
        if not np.all(in_V(pm, {j}, cloud[arm], k=_LEG_AUX[j], tol=-1e-12)):
            return False
        if np.any(np.linalg.norm(amb[arm], axis=1) > ball_r):
            return False
    return True


def _frames(X):
    """The curve table of X, with its vertex frames."""
    return lift_module._curve_table(X, frames=True)


def _to_vertex(table, vi, x, y):
    """Standard-side points (x, y) mapped to vertex vi of the curve table:
    (v + B x, y_c + A^T y mod pi), one row each."""
    return np.concatenate([table.vertices[vi] + x @ table.B[vi].T,
                           reduce_mod_pi(table.y_c[vi] + y @ table.A[vi])], axis=1)


def _oracle_schedule(X, fractions=(0.5, 0.65, 0.8, 0.95), ball_factor=0.45):
    """Schedule by per-vertex bisection; also the vertices it bisected."""
    R = ball_factor * X.min_vertex_distance()
    vs = np.array([[float(a) for a in v] for v in X.vertices])
    diam = max(1.0, float(np.ptp(vs, axis=0).max())) if len(vs) > 1 else 1.0
    lam, bisected = [], []
    table = _frames(X)
    for vi in range(len(X.vertices)):
        B = table.B[vi]
        legs_lat = {j: tuple(f * R / table.norms[vi, j] for f in fractions) for j in range(3)}
        hi = 2.0 * min(legs_lat[j][0] for j in range(3))
        lo = hi * 1e-3
        if _schedule_feasible(hi, B, legs_lat, R):
            lam_v = hi
        else:
            bisected.append(vi)
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if _schedule_feasible(mid, B, legs_lat, R):
                    lo = mid
                else:
                    hi = mid
            lam_v = lo
        lam.append(lam_v)
    nv = len(lam)
    cuts = np.tile([f * R for f in fractions], (nv, 3, 1))
    return GluingSchedule(np.full(nv, R), np.array(lam), cuts, 3.0 * diam), bisected


def _triangle_curve(degree, seed):
    """Degree-d triangle lifted by i^2 + j^2 + (i+j)^2 plus a seeded affine
    term, translated by a seeded lattice vector."""
    rng = random.Random(seed)
    a, b, c = (rng.randint(-5, 5) for _ in range(3))
    tx, ty = rng.randint(-6, 6), rng.randint(-6, 6)
    data = {"vertices": [[tx, ty], [degree + tx, ty], [tx, degree + ty]],
            "lifting": {f"{i + tx},{j + ty}": i * i + j * j + (i + j) ** 2 + a * i + b * j + c
                        for i in range(degree + 1) for j in range(degree + 1 - i)}}
    return tropical_hypersurface(regular_subdivision(*load_polytope_json(data)))


def _smooth_fixture_curves():
    out = []
    for name in fixture_names():
        X = load_fixture(name)["curve"]
        if X.subdivision is not None and is_smooth(X):
            out.append(pytest.param(X, id=name))
    return out


def _assert_matches_oracle(X):
    sched = default_schedule(X)
    want, _ = _oracle_schedule(X)
    assert [v.hex() for v in sched.lam.tolist()] == [v.hex() for v in want.lam.tolist()]
    assert sched.to_json() == want.to_json()


@pytest.mark.parametrize("X", _smooth_fixture_curves())
def test_lockstep_schedule_matches_oracle_on_fixtures(X):
    _assert_matches_oracle(X)


@pytest.mark.parametrize("seed", [7, 101])
@pytest.mark.parametrize("degree", [4, 6, 8, 10])
def test_lockstep_schedule_matches_oracle_on_triangles(degree, seed):
    X = _triangle_curve(degree, seed)
    assert len(X.vertices) == degree * degree
    _assert_matches_oracle(X)


@pytest.mark.parametrize("lam", [1e-3, 0.37, 1.0, 5.0])
def test_cached_boundary_cloud_is_the_chart_cloud(lam):
    got = _boundary_cloud(np.array([lam, 2.0 * lam]))
    assert got.shape == (2, 720, 2)
    assert got[0].tobytes() == _s_boundary_cloud(lam).tobytes()
    assert got[1].tobytes() == _s_boundary_cloud(2.0 * lam).tobytes()


def test_feasibility_kernel_matches_oracle_decisions():
    # random scales, balls and cut points; half of the cases get arms
    # of zero width, where the body check alone decides.  n is not a
    # multiple of _FEASIBLE_BLOCK, so the last block is partial.
    X = _triangle_curve(4, 7)
    B = _frames(X).B
    rng = np.random.default_rng(0)
    n = 1001
    assert n % lift_module._FEASIBLE_BLOCK
    vi = rng.integers(len(B), size=n)
    lam = 10 ** rng.uniform(-2, 1, n)
    ball = 10 ** rng.uniform(-1, 1, n)
    cuts = np.sort(10 ** rng.uniform(-2, 1, (n, 3, 4)), axis=-1)
    thin = rng.random(n) < 0.5
    cuts[thin] = cuts[thin][..., :1]
    got = _feasible(lam, B[vi], cuts, ball)
    want = [_schedule_feasible(lam[k], B[vi[k]], {j: tuple(cuts[k, j]) for j in range(3)},
                               ball[k]) for k in range(n)]
    assert got.tolist() == want
    assert 0 < sum(want) < n


def test_validate_rejects_a_bisected_scale_raised_one_percent():
    X = _triangle_curve(4, 7)
    sched = default_schedule(X)
    _, bisected = _oracle_schedule(X)
    assert bisected
    vi = bisected[0]
    bad = replace(sched, lam=sched.lam.copy())
    bad.lam[vi] = sched.lam[vi] * 1.01
    with pytest.raises(ConfigurationError, match=f"vertex {vi} violates"):
        validate_schedule(X, bad)


def test_validate_refuses_a_scale_above_the_pants_limit():
    X = triangle_curve()
    sched = default_schedule(X)
    bad = replace(sched, lam=sched.lam.copy())
    bad.lam[1] = 1e101
    with pytest.raises(ConfigurationError, match=r"pants scales must be at most 1e\+100"):
        validate_schedule(X, bad)


def test_validate_refuses_pants_beyond_the_legs_cuts():
    # at lam = 1e100 no boundary point lies within every leg's r', and the
    # arms' points all lie beyond r: the trimmed pants would have no rows
    X = triangle_curve()
    sched = default_schedule(X)
    bad = replace(sched, lam=sched.lam.copy())
    bad.lam[1] = 1e100
    with pytest.raises(ConfigurationError, match="pants scale at vertex 1 violates"):
        validate_schedule(X, bad)
    legs_lat = sched.cuts[1] / _frames(X).norms[1, :, None]
    body, _ = lift_module._standard_pants(1e100, legs_lat, 16)
    assert len(body[0]) == 0


@pytest.mark.parametrize("truncation", [1.0000000000000002e150, 1.34078079299426e154, math.inf])
def test_validate_refuses_a_truncation_above_the_coordinate_limit(truncation):
    X = triangle_curve()
    bad = replace(default_schedule(X), truncation=truncation)
    with pytest.raises(ConfigurationError, match=r"at most 1e\+150"):
        validate_schedule(X, bad)
    validate_schedule(X, replace(bad, truncation=lift_module.COORDINATE_LIMIT))


def test_curve_table_legs_follow_the_sorted_stars():
    # leg j at a vertex is the incident edge with the j-th outgoing
    # direction in sorted order, and each edge end names its leg
    for X in (triangle_curve(), _triangle_curve(6, 7)):
        legs = _frames(X).legs
        seen = []
        for ei, e in enumerate(X.edges):
            for end, (vi, j) in enumerate(legs[ei].tolist()):
                v = X.vertices[vi]
                assert v == e.verts[min(end, len(e.verts) - 1)]
                star = sorted(X.outgoing_direction(f, v) for f in X.edges_at(v))
                assert len(star) == 3 and X.outgoing_direction(e, v) == star[j]
                seen.append((vi, j))
        assert len(set(seen)) == 3 * len(X.vertices)


def test_default_schedule_checks_each_distinct_vertex_row_once(monkeypatch):
    # the degree-8 triangle has 64 vertices but two distinct (B, cuts)
    # rows; the schedule and its validation check only those
    rows = []
    feasible = lift_module._feasible

    def counting(lam, B, legs_lat, ball_r):
        rows.append(len(lam))
        return feasible(lam, B, legs_lat, ball_r)
    monkeypatch.setattr(lift_module, "_feasible", counting)
    X = _triangle_curve(8, 7)
    sched = default_schedule(X)
    assert len(sched.lam) == 64
    assert rows and max(rows) <= 2
    want, _ = _oracle_schedule(X)
    assert sched.to_json() == want.to_json()


def test_distinct_rows_compare_bits():
    B = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, -0.0], [0.0, 1.0]],
                  [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]])
    cuts = np.array([[0.5], [0.5], [0.5], [0.25]])
    assert B[0].tolist() == B[1].tolist()  # equal as floats
    first, row_of = _distinct_rows(B, cuts)
    assert sorted(first.tolist()) == [0, 1, 3]
    assert row_of[first].tolist() == [0, 1, 2]
    assert row_of[2] == row_of[0] and len(set(row_of[[0, 1, 3]].tolist())) == 3


def test_schedule_of_a_curve_without_vertices_is_an_input_error():
    # two parallel lines: nothing to put a pants on
    from troplag.fixtures import load_input
    X = load_input({"vertices": [[0, 0], [2, 0]],
                    "lifting": {"0,0": 0, "1,0": 0, "2,0": 1}})["curve"]
    assert not X.vertices
    with pytest.raises(InputError, match="vertex"):
        default_schedule(X)
    with pytest.raises(InputError, match="vertex"):
        validate_schedule(X, GluingSchedule(np.zeros(0), np.zeros(0), np.zeros((0, 3, 4)), 1.0))


def _all_pairs_meet(vs, ball_r):
    i, k = np.triu_indices(len(vs), 1)
    return bool(np.any(np.linalg.norm(vs[i] - vs[k], axis=1) <= ball_r[i] + ball_r[k]))


@pytest.mark.parametrize("seed", range(12))
def test_ball_sweep_matches_all_pairs(seed):
    # lattice points, so that many share an x column, with radii around
    # the touching threshold; the last case makes the only meeting pair
    # the first and the last vertex
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 120))
    vs = rng.integers(-6, 7, size=(n, 2)).astype(float) * rng.uniform(0.1, 2.0)
    vs = np.unique(vs, axis=0)
    rng.shuffle(vs)
    d = np.linalg.norm(vs[:, None] - vs[None], axis=2)
    np.fill_diagonal(d, np.inf)
    gap = d.min() if len(vs) > 1 else 1.0
    for scale in (0.3, 0.49, 0.5, 0.51, 0.8):
        ball_r = gap * scale * rng.uniform(0.9, 1.1, len(vs))
        assert _balls_meet(vs, ball_r) == _all_pairs_meet(vs, ball_r)
    far = np.concatenate([vs, vs[:1] + [0.0, gap * 0.3]])
    ball_r = np.full(len(far), gap * 0.2)
    assert _balls_meet(far, ball_r) and _all_pairs_meet(far, ball_r)
    ball_r[-1] = gap * 0.05
    assert not _balls_meet(far, ball_r) and not _all_pairs_meet(far, ball_r)


def test_validate_finds_meeting_balls_far_apart_in_vertex_order():
    # the closest pair of vertices farthest apart in vertex order: their
    # balls touch once both radii are half their distance, while every
    # other ball keeps the default radius 0.45 x that distance
    X = _triangle_curve(8, 7)
    sched = default_schedule(X)
    vs = np.array([[float(c) for c in v] for v in X.vertices])
    i, k = np.triu_indices(len(vs), 1)
    dist = np.linalg.norm(vs[i] - vs[k], axis=1)
    closest = np.flatnonzero(dist == dist.min())
    pick = closest[np.argmax(k[closest] - i[closest])]
    i, k, dist = int(i[pick]), int(k[pick]), float(dist[pick])
    assert k - i > 8
    bad = replace(sched, ball_radius=sched.ball_radius.copy())
    bad.ball_radius[i] = bad.ball_radius[k] = dist / 2
    with pytest.raises(ConfigurationError, match="pairwise disjoint"):
        validate_schedule(X, bad)
    bad.ball_radius[k] = 0.49 * dist
    assert validate_schedule(X, bad)


def test_smooth_lift_validates_only_a_given_schedule(monkeypatch):
    calls = []
    validate = lift_module.validate_schedule

    def counting(X, sched):
        calls.append(sched)
        return validate(X, sched)
    monkeypatch.setattr(lift_module, "validate_schedule", counting)
    X = triangle_curve()
    mesh = smooth_lift(X, resolution=8)
    assert calls == [mesh.schedule]  # default_schedule's own check
    calls.clear()
    smooth_lift(X, 0.5, mesh.schedule, resolution=8)
    assert calls == [mesh.schedule]


def test_default_schedule_builds_no_pants_map(monkeypatch):
    built = []
    init = PantsMap.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)
    monkeypatch.setattr(PantsMap, "__init__", counting_init)
    X = _triangle_curve(4, 101)
    sched = default_schedule(X)
    assert len(sched.lam) == 16
    assert built == []


def test_cutoff_profile():
    c = Cutoff(1.0, 2.0)
    assert c.eta(0.9) == 1.0 and c.eta(1.0) == 1.0
    assert c.eta(2.0) == pytest.approx(0.0, abs=1e-14)
    s = np.linspace(1.0, 2.0, 101)
    vals = c.eta(s)
    assert np.all(np.diff(vals) <= 1e-15)
    # first and second derivatives consistent with finite differences
    mid = np.array([1.3, 1.5, 1.8])
    fd = (c.eta(mid + 1e-6) - c.eta(mid - 1e-6)) / 2e-6
    assert np.abs(fd - c.eta_prime(mid)).max() < 1e-6
    fd2 = (c.eta_prime(mid + 1e-6) - c.eta_prime(mid - 1e-6)) / 2e-6
    assert np.abs(fd2 - c.eta_second(mid)).max() < 1e-5


# ---------------------------------------------------------------------------
# smooth lifts

@pytest.fixture(scope="module")
def line_mesh():
    X = standard_line()
    sched = default_schedule(X)
    return X, sched, smooth_lift(X, 1.0, sched, resolution=32)


def test_smooth_lift_piece_residuals(line_mesh):
    X, sched, mesh = line_mesh
    for piece in mesh.pieces:
        v, w = piece.frames[:, 0, :], piece.frames[:, 1, :]
        om = (np.sum(v[:, :2] * w[:, 2:], axis=1)
              - np.sum(w[:, :2] * v[:, 2:], axis=1)) / PI
        worst = np.abs(om).max() if len(om) else 0.0
        if piece.tag == "flat":
            assert worst == 0.0
        elif piece.tag == "collar":
            assert worst < 1e-6
        else:
            assert worst < 1e-6
    assert symplectic_residual(mesh) < 1e-6


def test_pants_interior_frames_are_exact(line_mesh):
    # the analytic (Hessian) frames annihilate the form to rounding
    X, sched, mesh = line_mesh
    from troplag.pants import PantsMap
    pm = PantsMap(1, sched.lam[0])
    res = 24
    grid = (np.arange(res) + 0.5) / res
    l1, l2 = np.meshgrid(grid, grid)
    keep = (l1 + l2) < 1.0 - 1e-9
    ys = np.stack([l1[keep], l2[keep]], axis=1) * (PI / 2)
    H = pm.hessian(ys)
    om = (H[:, 0, 1] - H[:, 1, 0]) / PI
    assert np.abs(om).max() < 1e-9


def test_overlap_identity_collar_equals_pants():
    X = standard_line()
    sched = default_schedule(X)
    from troplag.pants import PantsMap, ProjectionPair
    table = _frames(X)
    lam = sched.lam[0]
    pm = PantsMap(1, lam)
    pp = ProjectionPair(pm, {1})
    r1, r2 = sched.cuts[0, 1, :2]
    worst = 0.0
    for s in np.linspace(r1, r2, 6):
        for th in np.linspace(0.25, 1.25, 5):
            q = pp.fiber_solve(np.array([s, 0.0]), np.array([0.0, th]))
            hq = pm.h(q)
            pants_pt = _to_vertex(table, 0, hq[None, :], q[None, :])[0]
            collar_pt = _to_vertex(table, 0, np.array([[s, hq[1]]]), np.array([[q[0], th]]))[0]
            worst = max(worst, np.abs(pants_pt - collar_pt).max())
    assert worst < 1e-8


def test_flat_zone_is_exactly_flat(line_mesh):
    X, sched, mesh = line_mesh
    for piece in _pieces(mesh, "flat"):
        assert np.all(piece.frames[:, 0, 2:] == 0.0)
        assert np.all(piece.frames[:, 1, :2] == 0.0)
        # base points lie on the edge line through the vertex
        e = X.edges[piece.owner[0]]
        d = np.array(e.rays[0], dtype=float)
        base = np.array([float(c) for c in e.verts[0]])
        rel = piece.points[:, :2] - base
        cross = rel[:, 0] * d[1] - rel[:, 1] * d[0]
        assert np.abs(cross).max() < 1e-12


def test_mesh_projects_into_region(line_mesh):
    # at full scale the base projection stays inside the unscaled region
    X, sched, mesh = line_mesh
    from troplag.pants import PantsMap
    table = _frames(X)
    pm = PantsMap(1, 1.0)
    x_std = (mesh.points[:, :2] - table.vertices[0]) @ table.A[0].T  # A = B^-1
    slack = region_slack(pm, x_std)
    assert slack.min() >= -1e-9


def test_projection_containment(line_mesh):
    X, sched, mesh = line_mesh
    R = sched.ball_radius[0]
    v = np.array([0.0, 0.0])
    for piece in _pieces(mesh, "pants"):
        d = np.linalg.norm(piece.points[:, :2] - v, axis=1)
        assert d.max() <= R + 1e-9
    # the whole mesh projects into the union of the ball and leg tubes
    for piece in mesh.pieces:
        x = piece.points[:, :2]
        dist_v = np.linalg.norm(x - v, axis=1)
        tube = np.full(len(x), np.inf)
        for e in X.edges:
            dd = np.array(e.rays[0], dtype=float)
            dd = dd / np.linalg.norm(dd)
            t = x @ dd
            perp = np.abs(x @ np.array([-dd[1], dd[0]]))
            on_ray = t >= -1e-9
            tube = np.where(on_ray, np.minimum(tube, perp), tube)
        assert np.all((dist_v <= R + 1e-9) | (tube <= 0.30 * R + 1e-9))


def test_hausdorff_decreases_with_slope():
    X = triangle_curve()
    sched = default_schedule(X)
    cloud_pl = pl_lift(X).sample(32)
    ds = []
    for t in (1.0, 0.5, 0.1):
        mesh = smooth_lift(X, t, sched, resolution=32)
        ds.append(hausdorff_distance(mesh.points, cloud_pl))
        assert ds[-1] == _hausdorff_full_queries(mesh.points, cloud_pl)
    assert ds[0] > ds[1] > ds[2]
    slope = math.log(ds[0] / ds[2]) / math.log(10.0)
    assert slope >= 0.8


def test_hausdorff_edge_cases():
    cloud = np.random.default_rng(0).uniform(0, 1, (50, 4))
    assert hausdorff_distance(cloud, cloud) == 0.0
    with pytest.raises(InputError):
        hausdorff_distance(cloud, np.zeros((0, 4)))
    # torus wrap: clouds differing by a deck translate coincide
    shifted = cloud.copy()
    shifted[:, 2] += PI
    assert hausdorff_distance(cloud, shifted) < 1e-12


def _unfold_torus(pts):
    """Nine torus translates of the y part; x part unchanged."""
    shifts = [(a, b) for a in (-PI, 0.0, PI) for b in (-PI, 0.0, PI)]
    out = []
    for a, b in shifts:
        q = pts.copy()
        q[:, 2] += a
        q[:, 3] += b
        out.append(q)
    return np.vstack(out)


def _hausdorff_oracle(A, B):
    """Brute force over all pairs and all nine translates."""
    A, B = A.copy(), B.copy()
    A[:, 2:] = np.mod(A[:, 2:], PI)
    B[:, 2:] = np.mod(B[:, 2:], PI)

    def one_way(P, Q):
        d = np.linalg.norm(P[:, None, :] - _unfold_torus(Q)[None, :, :], axis=2)
        return d.min(axis=1).max()
    return max(one_way(A, B), one_way(B, A))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hausdorff_matches_unfolded_oracle(seed):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (120, 4))
    B = rng.uniform(-1.0, 1.0, (90, 4))
    # fiber coordinates on both sides of the seam, beyond one period, and
    # a tiny negative value that np.mod rounds up to pi itself
    A[:, 2:] = rng.uniform(-0.2, 0.2, (120, 2)) + rng.integers(-2, 3, (120, 2)) * PI
    B[:, 2:] = rng.uniform(0.0, PI, (90, 2))
    A[0, 2:] = -1e-17
    B[0, 2] = -1e-17
    B[1, 3] = PI - 1e-17
    got = hausdorff_distance(A, B)
    assert got == pytest.approx(_hausdorff_oracle(A, B), rel=1e-12, abs=1e-15)
    assert hausdorff_distance(B, A) == got


def _folded_copy(cloud):
    """A float copy of the cloud with its fiber coordinates in [0, pi)."""
    out = np.array(cloud, dtype=float)
    y = np.mod(out[:, 2:], PI)
    y[y >= PI] = 0.0  # np.mod rounds tiny negative values up to pi itself
    out[:, 2:] = y
    return out


def _hausdorff_full_queries(cloud_a, cloud_b):
    """hausdorff_distance without the pruning: exact queries of every point
    in both directions."""
    A, B = _folded_copy(cloud_a), _folded_copy(cloud_b)
    box = (0.0, 0.0, PI, PI)
    da = cKDTree(B, boxsize=box).query(A, k=1)[0].max()
    db = cKDTree(A, boxsize=box).query(B, k=1)[0].max()
    return float(max(da, db))


# Coordinates on a coarse grid give exact ties; the fiber values include
# the seam (pi, and -1e-17, which np.mod rounds up to pi) and a far base
# value lets one direction of the distance dominate.
_BASE = st.sampled_from([0.0, 0.25, 0.5, 1.0, -1.0, 6.0])
_FIBER = st.sampled_from([0.0, 0.5, PI / 2, PI - 0.25, PI, -1e-17, -PI / 2, 2 * PI + 0.25])
_POINTS = st.lists(st.tuples(_BASE, _BASE, _FIBER, _FIBER), max_size=12)


@st.composite
def _cloud_pairs(draw):
    """Two clouds sharing a common core, each with its own extra points,
    possibly repeats of its own points, and up to 300 uniform points (where
    the approximate query's bounds differ from the exact distances)."""
    core, extra_a, extra_b = draw(_POINTS), draw(_POINTS), draw(_POINTS)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    clouds = []
    for extra in (extra_a, extra_b):
        P = core + extra or draw(_POINTS.filter(len))
        P += P[:draw(st.integers(0, len(P)))]
        uniform = rng.uniform(-1.0, 1.0, (draw(st.integers(0, 300)), 4))
        uniform[:, 2:] *= PI
        clouds.append(np.vstack([np.array(P, dtype=float), uniform]))
    return tuple(clouds)


@settings(max_examples=200, deadline=None)
@given(_cloud_pairs())
@example((np.array([[0.0, 0.0, -1e-17, PI]]), np.array([[1.0, 0.0, 0.0, 0.0]])))
@example((np.array([[0.5, 0.5, 0.5, 0.5]] * 3), np.array([[0.5, 0.5, 0.5, 0.5]])))
def test_pruned_hausdorff_equals_full_queries(clouds):
    A, B = clouds
    got = hausdorff_distance(A, B)
    assert got == _hausdorff_full_queries(A, B)
    assert abs(got - _hausdorff_oracle(A, B)) <= 1e-12


# Fiber values at the seam: 0, the float just below pi, pi itself and
# -1e-300, the last two of which fold to 0.
_SEAM_FIBER = st.sampled_from([0.0, float(np.nextafter(PI, 0.0)), PI, -1e-300, 0.5, PI / 2])
_SEAM_POINTS = st.lists(st.tuples(_BASE, _BASE, _SEAM_FIBER, _SEAM_FIBER), min_size=1,
                        max_size=3 * lift_module._HAUSDORFF_STRIDE + 5)


def _layout(P, form):
    """The cloud P as hausdorff_distance may be given it: as is (folded
    and C-contiguous or not), rounded to ints, or as a strided view."""
    if form == "int":
        return np.rint(P).astype(int)
    if form == "strided":
        out = np.zeros((len(P), 8))
        out[:, ::2] = P
        return out[:, ::2]
    return P


@settings(max_examples=150, deadline=None)
@given(points=st.tuples(_SEAM_POINTS, _SEAM_POINTS),
       repeats=st.tuples(st.integers(0, 40), st.integers(0, 40)),
       forms=st.tuples(*[st.sampled_from(["float", "int", "strided"])] * 2),
       workers=st.integers(1, 3))
@example(points=([(0.0, 0.0, -1e-300, PI)], [(1.0, 0.0, 0.0, 0.0)]), repeats=(0, 0),
         forms=("float", "float"), workers=1)
def test_hausdorff_equals_full_queries_at_the_seam(points, repeats, forms, workers):
    # duplicate rows, clouds shorter than one group and single rows, given
    # folded and uncopied, or unfolded, as ints or strided and so copied
    clouds = []
    for P, k, form in zip(points, repeats, forms):
        P = np.array(P + P[:k], dtype=float)
        clouds.append(_layout(P, form))
    with mock.patch.object(lift_module, "_cpu_count", lambda: workers):
        got = hausdorff_distance(*clouds)
    assert got == _hausdorff_full_queries(*clouds)
    assert hausdorff_distance(clouds[1], clouds[0]) == got


def test_fold_fiber_copies_only_an_unfolded_cloud():
    folded = np.array([[0.0, 1.0, 0.0, float(np.nextafter(PI, 0.0))], [2.0, 3.0, 1.0, 0.5]])
    assert _fold_fiber(folded) is folded
    for cloud in (np.asfortranarray(folded), np.repeat(folded, 2, axis=1)[:, ::2],
                  folded.tolist()):
        out = _fold_fiber(cloud)
        assert out.dtype == np.float64 and out.flags.c_contiguous
        assert np.array_equal(out, folded)
    out = _fold_fiber(np.array([[0, 1, 3, 4]]))
    assert out.dtype == np.float64 and out.tolist() == [[0.0, 1.0, 3.0, 4.0 - PI]]
    seam = np.array([[0.0, 0.0, PI, -1e-300], [0.0, 0.0, -PI / 2, 2 * PI + 0.5]])
    out = _fold_fiber(seam)
    assert out is not seam and seam[0, 2] == PI  # the caller's array is not written
    assert out[0, 2:].tolist() == [0.0, 0.0]
    assert np.allclose(out[1, 2:], [PI / 2, 0.5]) and (out[:, 2:] < PI).all()


def test_pruned_hausdorff_equals_full_queries_on_a_mesh():
    X = triangle_curve()
    mesh = smooth_lift(X, 0.5, default_schedule(X), resolution=16)
    cloud_pl = pl_lift(X).sample(16)
    assert hausdorff_distance(mesh.points, cloud_pl) == \
        _hausdorff_full_queries(mesh.points, cloud_pl)


_STRIDE = lift_module._HAUSDORFF_STRIDE


@st.composite
def _shuffled_cloud_pairs(draw):
    """Cloud pairs whose rows are shuffled, so an anchor can lie far from
    the rest of its group, with sizes around multiples of the stride."""
    clouds = []
    for A in draw(_cloud_pairs()):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        A = A[rng.permutation(len(A))]
        k = draw(st.integers(0, 4))
        size = draw(st.sampled_from([1, _STRIDE - 1, k * _STRIDE - 1,
                                     k * _STRIDE, k * _STRIDE + 1, len(A)]))
        clouds.append(A[:max(1, size)])
    return tuple(clouds)


@settings(max_examples=200, deadline=None)
@given(_shuffled_cloud_pairs())
@example((np.array([[0.0, 0.0, 0.0, 0.0]] * 3 + [[9.0, 0.0, 1.0, 3.0]] + [[0.0, 0.0, 0.0, 0.0]] * 4),
          np.array([[0.0, 0.0, 0.0, 0.0]])))
def test_anchor_certificate_on_shuffled_rows(clouds):
    A, B = clouds
    got = hausdorff_distance(A, B)
    assert got == _hausdorff_full_queries(A, B)
    assert hausdorff_distance(B, A) == got


@pytest.mark.parametrize("block", [1, 3, 11])
def test_anchor_certificate_across_block_boundaries(monkeypatch, block):
    # anchor groups (blocks of the leaf order) of 1, 3 and 11 rows: every
    # row an anchor, and groups that end inside a KD-tree leaf of 16 rows
    monkeypatch.setattr(lift_module, "_HAUSDORFF_STRIDE", block)
    rng = np.random.default_rng(block)
    for n in (1, _STRIDE - 1, 5 * _STRIDE + 1, 97):
        A = rng.uniform(-1.0, 1.0, (n, 4)) * [1.0, 1.0, PI, PI]
        B = rng.uniform(-1.0, 1.0, (40, 4)) * [1.0, 1.0, PI, PI]
        A[n // 3, :2] += 5.0  # one far row, usually not an anchor
        assert hausdorff_distance(A, B) == _hausdorff_full_queries(A, B)
        assert hausdorff_distance(B, A) == _hausdorff_full_queries(B, A)


def _before_tree_build(monkeypatch, on_worker, action):
    """Run action before each KD-tree build of hausdorff_distance on its
    worker thread, or on the calling thread."""
    build = lift_module._fiber_tree

    def patched(cloud):
        if (threading.current_thread() is not threading.main_thread()) == on_worker:
            action()
        return build(cloud)
    monkeypatch.setattr(lift_module, "_fiber_tree", patched)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("slow", [None, "worker", "caller"])
def test_hausdorff_does_not_depend_on_cpus_or_thread_timing(monkeypatch, workers, slow):
    # a delayed worker lets the calling thread finish cloud_a's tree first,
    # a delayed caller the other way round; neither moves the float
    monkeypatch.setattr(lift_module, "_cpu_count", lambda: workers)
    if slow is not None:
        _before_tree_build(monkeypatch, slow == "worker", lambda: time.sleep(0.05))
    rng = np.random.default_rng(workers)
    A = rng.uniform(-1.0, 1.0, (3000, 4)) * [1.0, 1.0, PI, PI]
    B = rng.uniform(-1.0, 1.0, (500, 4)) * [1.0, 1.0, PI, PI]
    B[7, :2] += 4.0  # B -> A holds the maximum
    A[11, :2] -= 2.0  # a second far row, in A
    threads = threading.active_count()
    for P, Q in ((A, B), (B, A)):
        assert hausdorff_distance(P, Q) == _hausdorff_full_queries(P, Q)
    assert threading.active_count() == threads


@pytest.mark.parametrize("on_worker", [True, False])
def test_hausdorff_tree_build_error_propagates_and_joins_the_worker(monkeypatch, on_worker):
    def fail():
        raise MemoryError("tree build failed")
    _before_tree_build(monkeypatch, on_worker, fail)
    rng = np.random.default_rng(5)
    A, B = rng.uniform(0.0, 1.0, (200, 4)), rng.uniform(0.0, 1.0, (50, 4))
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="tree build failed"):
        hausdorff_distance(A, B)
    assert threading.active_count() == threads


class _QueryLog:
    """A KD-tree whose queries log, each, whether they ran on the calling
    thread, their workers argument, their points' array rank and row count,
    and their eps."""

    def __init__(self, tree):
        self.tree, self.queries = tree, []

    def __getattr__(self, name):  # the leaf order and the rest of the tree
        return getattr(self.tree, name)

    def query(self, x, **kwargs):
        self.queries.append((threading.current_thread() is threading.main_thread(),
                             kwargs.get("workers", 1), np.ndim(x), len(np.atleast_2d(x)),
                             kwargs.get("eps", 0)))
        return self.tree.query(x, **kwargs)


def _log_trees(monkeypatch):
    """Wrap each KD-tree that hausdorff_distance builds in a _QueryLog;
    returns the list of (built on the calling thread, the cloud's rows, the
    log) of the builds."""
    build, logs = lift_module._fiber_tree, []

    def patched(cloud):
        log = _QueryLog(build(cloud))
        logs.append((threading.current_thread() is threading.main_thread(), len(cloud), log))
        return log
    monkeypatch.setattr(lift_module, "_fiber_tree", patched)
    return logs


def test_hausdorff_builds_the_trees_side_by_side_and_queries_on_the_caller(monkeypatch):
    monkeypatch.setattr(lift_module, "_cpu_count", lambda: 3)
    # both builds wait for each other: one after the other, they would time out
    meet = threading.Barrier(2, timeout=10)
    _before_tree_build(monkeypatch, True, meet.wait)
    _before_tree_build(monkeypatch, False, meet.wait)
    logs = _log_trees(monkeypatch)
    rng = np.random.default_rng(11)
    A, B = rng.uniform(0.0, 1.0, (400, 4)), rng.uniform(0.0, 1.0, (90, 4))
    B[7, :2] += 3.0  # far rows, queried past their anchors
    threads = threading.active_count()
    assert hausdorff_distance(A, B) == _hausdorff_full_queries(A, B)
    assert threading.active_count() == threads
    # cloud_b's tree on the worker, cloud_a's on the calling thread
    assert sorted((on_caller, rows) for on_caller, rows, _ in logs) == [(False, 90), (True, 400)]
    queries = [q for *_, log in logs for q in log.queries]
    assert len(queries) > 2 and all(on_caller for on_caller, *_ in queries)
    # every query of a row array runs on _cpu_count() threads; the one-point
    # query of the largest approximate bound, at most one per tree, on one
    assert all(workers == 3 for _, workers, ndim, *_ in queries if ndim == 2)
    for *_, log in logs:
        assert sum(ndim == 1 for _, _, ndim, *_ in log.queries) <= 1


def test_hausdorff_build_error_on_the_caller_propagates_after_the_join(monkeypatch):
    # the calling thread's build fails while the worker's still runs: the
    # error reaches the caller only once the worker's build has finished
    built = []
    build = lift_module._fiber_tree

    def patched(cloud):
        if threading.current_thread() is threading.main_thread():
            raise MemoryError("tree build failed")
        time.sleep(0.05)
        tree = build(cloud)
        built.append(len(cloud))
        return tree
    monkeypatch.setattr(lift_module, "_fiber_tree", patched)
    rng = np.random.default_rng(12)
    A, B = rng.uniform(0.0, 1.0, (400, 4)), rng.uniform(0.0, 1.0, (90, 4))
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="tree build failed"):
        hausdorff_distance(A, B)
    assert built == [90]
    assert threading.active_count() == threads


def test_hausdorff_certificate_work_on_a_mesh(monkeypatch):
    # a count of rows queried, not a timing: anchor groups of 8 rows in row
    # order queried 14,048 rows exactly and 6,776 approximately here; groups
    # of 32 in leaf order 3,596 and 2,548
    X = triangle_curve()
    mesh = smooth_lift(X, 1.0, default_schedule(X), resolution=64)
    cloud_pl = pl_lift(X).sample(64)
    assert len(mesh.points) + len(cloud_pl) == 112_240
    logs = _log_trees(monkeypatch)
    assert hausdorff_distance(mesh.points, cloud_pl) == 0.8378496249162393
    queries = [q for *_, log in logs for q in log.queries]
    exact = sum(rows for *_, rows, eps in queries if eps == 0)
    approx = sum(rows for *_, rows, eps in queries if eps > 0)
    assert exact <= 4_000 and approx <= 3_000, (exact, approx)


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("column", [0, 2])
def test_hausdorff_raises_on_a_nan_point(side, column):
    rng = np.random.default_rng(3)
    clouds = [rng.uniform(0.0, 1.0, (40, 4)), rng.uniform(0.0, 1.0, (30, 4))]
    # the NaN point sits among near points, far below the largest distance,
    # in a row that would not be a group's middle row in row order either
    # (rows 15, 16 and 36 for groups of 32); the check comes before the
    # trees, whose leaf order sets the anchors
    clouds[1 - side][0, :2] = 50.0
    clouds[side][5, column] = np.nan
    with pytest.raises(ValueError):
        hausdorff_distance(*clouds)


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("column", [1, 3])
def test_hausdorff_raises_on_an_infinite_point(bad, side, column):
    rng = np.random.default_rng(4)
    clouds = [rng.uniform(0.0, 1.0, (40, 4)), rng.uniform(0.0, 1.0, (30, 4))]
    clouds[1 - side][0, :2] = 50.0
    clouds[side][9, column] = bad  # inside both clouds, as the NaN row
    # the check comes before the fiber fold, whose np.mod warns on inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            hausdorff_distance(*clouds)


def test_smooth_lift_validations():
    X = standard_line()
    with pytest.raises(InputError):
        smooth_lift(X, 0.0)
    P = LatticePolytope.from_points([(0, 0), (2, 0)])
    Xw = tropical_hypersurface(regular_subdivision(P, constant_lifting(P)))
    with pytest.raises(InputError):
        smooth_lift(Xw, 1.0)


@pytest.mark.parametrize("name, resolution", [("triangle", 16), ("standard_line", 128)])
def test_smooth_lift_refuses_a_scale_below_its_limit(name, resolution):
    # below the reported limit a collar's fiber root would come within the
    # Hessian's margin of a coamoeba face; just above it the lift works
    X = load_fixture(name)["curve"]
    sched = default_schedule(X)
    with pytest.raises(InputError, match="--scale 1e-06 is too small") as info:
        smooth_lift(X, 1e-6, sched, resolution=resolution)
    limit = float(str(info.value).split("must exceed ")[1].split(",")[0])
    with pytest.raises(InputError):
        smooth_lift(X, limit * (1 - 1e-5), sched, resolution=resolution)
    mesh = smooth_lift(X, limit * (1 + 1e-5), sched, resolution=resolution)
    assert symplectic_residual(mesh) < 1e-6


def _collar_sheets(table, vi, lam, legs):
    # lift._collar_sheets of the legs (j, cutoff, S, T), in increasing j,
    # as one block of rows mapped to vertex vi, split into arrays per leg
    grid = [np.concatenate(column) for column in zip(
        *((np.full(len(S), j), S, T, cutoff.eta(S), cutoff.eta_prime(S), cutoff.eta_second(S))
          for j, cutoff, S, T in legs))]
    P, fr = np.empty((len(grid[0]), 4)), np.empty((len(grid[0]), 2, 4))
    lift_module._collar_block(table, lam, grid, [(vi, P, fr)])
    ends = np.cumsum([len(S) for _, _, S, _ in legs])[:-1]
    return list(zip(np.split(P, ends), np.split(fr, ends)))


def test_collar_analytic_frames_match_fd(line_mesh):
    # the closed-form frames of the collar graph agree with centered
    # differences of its positions, including through the cutoff ramp;
    # the torus differences are wrapped, so none crosses the cut at pi
    X, sched, _ = line_mesh
    from troplag.coamoeba import FlatTorus

    def _collar_sheet(table, j, lam, cutoff, S, T):
        return _collar_sheets(table, 0, lam, [(j, cutoff, S, T)])[0]

    def _difference(P, M):
        d = P - M
        d[:, 2:] = FlatTorus(2).wrap_centered(d[:, 2:])
        return d
    table = _frames(X)
    lam = sched.lam[0]
    for j in (0, 1, 2):
        r1, r2, rbar, r = sched.cuts[0, j] / table.norms[0, j]
        cutoff = Cutoff(r2, rbar)
        rng = np.random.default_rng(j)
        S = rng.uniform(r1, r, 40)
        T = rng.uniform(0.1, PI - 0.1, 40)
        P0, fr = _collar_sheet(table, j, lam, cutoff, S, T)
        h = 1e-6
        Ps = _collar_sheet(table, j, lam, cutoff, S + h, T)[0]
        Ms = _collar_sheet(table, j, lam, cutoff, S - h, T)[0]
        Pt = _collar_sheet(table, j, lam, cutoff, S, T + h)[0]
        Mt = _collar_sheet(table, j, lam, cutoff, S, T - h)[0]
        fd_s = _difference(Ps, Ms) / (2 * h)
        fd_t = _difference(Pt, Mt) / (2 * h)
        scale_s = 1 + np.abs(fr[:, 0, :]).max()
        scale_t = 1 + np.abs(fr[:, 1, :]).max()
        assert np.abs(fd_s - fr[:, 0, :]).max() < 1e-5 * scale_s
        assert np.abs(fd_t - fr[:, 1, :]).max() < 1e-5 * scale_t


def test_residual_scales_with_fd_step(line_mesh):
    # recompute frames of a collar piece by finite differences of the grid
    # positions at two spacings: the self-consistency residual must shrink
    # at least linearly, confirming the underlying surface is isotropic
    X, sched, _ = line_mesh
    residuals = []
    for res in (24, 48):
        mesh = smooth_lift(X, 1.0, sched, resolution=res)
        piece = _pieces(mesh, "collar")[0]
        nu, nv = piece.grid
        pts = piece.points.reshape(nu, nv, 4)
        vs = (pts[2:, 1:-1] - pts[:-2, 1:-1])
        vt = (pts[1:-1, 2:] - pts[1:-1, :-2])
        om = (np.sum(vs[..., :2] * vt[..., 2:], axis=-1)
              - np.sum(vt[..., :2] * vs[..., 2:], axis=-1)) / PI
        residuals.append(np.abs(om).max())
    assert residuals[1] < residuals[0] / 1.8


# ---------------------------------------------------------------------------
# twisting

def test_twist_identity_and_classes():
    X = triangle_curve()
    sched = default_schedule(X)
    mesh = smooth_lift(X, 0.5, sched, resolution=16)
    t0, n0 = twist(copy_mesh(mesh), {})
    assert n0 == 0
    assert np.array_equal(t0.points, mesh.points)
    t1, n1 = twist(copy_mesh(mesh), {3: 1})
    assert n1 == 1
    assert np.array_equal(t1.points[:, :2], mesh.points[:, :2])  # base preserved
    assert not np.allclose(t1.points, mesh.points)
    t2, n2 = twist(copy_mesh(mesh), {3: 1, 4: -1})
    assert n2 == 0
    assert not np.allclose(t2.points, mesh.points)
    assert symplectic_residual(t1) < 1e-6


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_symplectic_residual_refuses_a_non_finite_frame(bad):
    # max(worst, nan) keeps worst, so a NaN frame used to read as 0.0
    mesh = copy_mesh(smooth_lift(triangle_curve(), 1.0, resolution=8))
    assert symplectic_residual(mesh) < 1e-6
    piece = mesh.pieces[5]
    piece.frames[2, 1, 3] = bad
    with pytest.raises(NumericError) as err:
        symplectic_residual(mesh)
    assert err.value.diagnostics == {"row": _row_span(mesh, piece)[0] + 2,
                                     "piece": [piece.tag, *piece.owner]}


def test_flat_cylinder_with_no_float_length_is_a_numeric_error():
    # the curve of this lifting is the standard line moved to x = -1e17,
    # where a ray's cut point and truncation round to one float: the flat
    # cylinder would divide by its zero length
    poly, nu = load_polytope_json({"vertices": [[0, 0], [1, 0], [0, 1]],
                                   "lifting": {"0,0": 0, "1,0": 10 ** 17, "0,1": 0}})
    X = tropical_hypersurface(regular_subdivision(poly, nu))
    assert X.vertices == [(-10 ** 17, 0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division by zero on the way
        with pytest.raises(NumericError) as err:
            smooth_lift(X, resolution=8)
    assert set(err.value.diagnostics) == {"edge", "p0", "p1"}
    assert err.value.diagnostics["p0"] == err.value.diagnostics["p1"]


@pytest.mark.parametrize("value", [10 ** 400, -10 ** 400])
def test_lifts_of_a_curve_beyond_float_range_raise_input_error(value):
    # the curve table checks the range, so the API refuses the curve too
    poly, nu = load_polytope_json({"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]],
                                   "lifting": {"0,0": 0, "1,0": 0, "0,1": 0, "1,1": value}})
    X = tropical_hypersurface(regular_subdivision(poly, nu))
    with pytest.raises(InputError, match="beyond float range"):
        smooth_lift(X, resolution=8)
    with pytest.raises(InputError, match="beyond float range"):
        pl_lift(X).sample(8)


def test_curve_table_is_built_once_per_curve():
    # the PL lift, the schedule, its validation and the smooth lift share
    # one table, whose vertex frames only the smooth lift's steps build
    X = triangle_curve()
    built = []

    class Counted(lift_module._CurveTable):
        def __init__(self, X):
            built.append("floats")
            super().__init__(X)

        def add_frames(self, X):
            built.append("frames")
            super().add_frames(X)

    with mock.patch.object(lift_module, "_CurveTable", Counted):
        pl_lift(X).sample(8)
        assert built == ["floats"]
        sched = default_schedule(X)
        table = lift_module._curve_table(X)
        validate_schedule(X, sched)
        mesh = smooth_lift(X, 1.0, sched, resolution=8)
        assert built == ["floats", "frames"]
    assert lift_module._curve_table(X, frames=True) is table
    assert not any(a.flags.writeable
                   for a in (table.B, table.A, table.y_c, table.norms, table.legs))
    fresh = smooth_lift(triangle_curve(), 1.0, resolution=8)  # built from a cold curve
    assert np.array_equal(mesh.points, fresh.points) and np.array_equal(mesh.frames, fresh.frames)


def test_pl_lift_of_a_curve_with_unsmooth_vertices_builds_no_frame():
    # weight2_line's vertex is not smooth: vertex_frames would refuse it
    X = load_fixture("weight2_line")["curve"]
    with mock.patch.object(lift_module, "vertex_frames", side_effect=AssertionError):
        assert len(pl_lift(X).sample(8))
    assert lift_module._curve_table(X).B is None


def _row_span(mesh, piece):
    """The rows [start, stop) of the mesh's arrays that the piece views."""
    start = (piece.points.ctypes.data - mesh.points.ctypes.data) // mesh.points.strides[0]
    return start, start + len(piece.points)


def test_mesh_pieces_tile_one_point_array_and_one_frame_array():
    X = triangle_curve()
    mesh = smooth_lift(X, 0.5, default_schedule(X), resolution=16)
    assert mesh.points.flags.c_contiguous and mesh.frames.flags.c_contiguous
    assert (mesh.points.shape[1:], mesh.frames.shape) == ((4,), (len(mesh.points), 2, 4))
    # per vertex its pants and three collars, then one flat cylinder per edge
    assert [(p.tag, p.owner) for p in mesh.pieces] == \
        [(tag, owner) for vi in range(len(X.vertices))
         for tag, owner in [("pants", (vi,))] + [("collar", (vi, j)) for j in range(3)]] + \
        [("flat", (ei,)) for ei in range(len(X.edges))]
    start = 0
    for p in mesh.pieces:
        assert len(p.points) > 0 and len(p.frames) == len(p.points)
        assert _row_span(mesh, p) == (start, start + len(p.points))
        assert p.frames.ctypes.data == mesh.frames[start:].ctypes.data
        assert np.shares_memory(p.points, mesh.points) and np.shares_memory(p.frames, mesh.frames)
        start += len(p.points)
    assert start == len(mesh.points)


def test_twist_rewrites_only_the_flat_rows_of_its_edges(tmp_path):
    X = triangle_curve()
    mesh = smooth_lift(X, 0.5, default_schedule(X), resolution=16)
    plain = copy_mesh(mesh)
    mesh.to_off(str(tmp_path / "plain.off"))  # fills the export memo that twist clears
    windings = {3: 1, 0: -2}
    twisted, _ = twist(mesh, windings)
    assert twisted is mesh
    rows = np.zeros(len(mesh.points), dtype=bool)
    for p in mesh.pieces:
        if p.tag == "flat" and p.owner[0] in windings:
            rows[slice(*_row_span(mesh, p))] = True
    assert mesh.points[~rows].tobytes() == plain.points[~rows].tobytes()
    assert mesh.frames[~rows].tobytes() == plain.frames[~rows].tobytes()
    # on the twisted rows only the fiber coordinates and the fiber part of
    # the first frame vector move
    assert mesh.points[rows, :2].tobytes() == plain.points[rows, :2].tobytes()
    assert mesh.frames[rows, 1].tobytes() == plain.frames[rows, 1].tobytes()
    assert mesh.frames[rows, 0, :2].tobytes() == plain.frames[rows, 0, :2].tobytes()
    assert not np.array_equal(mesh.points[rows, 2:], plain.points[rows, 2:])
    assert not np.array_equal(mesh.frames[rows, 0, 2:], plain.frames[rows, 0, 2:])
    _assert_file_matches_oracle(mesh, tmp_path, "m.off", "xxy")


def test_twist_requires_valid_edge():
    X = triangle_curve()
    mesh = smooth_lift(X, 0.5, resolution=16)
    with pytest.raises(InputError):
        twist(mesh, {99: 1})


def test_twist_pl_cloud():
    X = triangle_curve()
    pl = pl_lift(X)
    c0 = pl.sample(12)
    c1 = pl.sample(12, windings={0: 1})
    assert c0.shape == c1.shape
    assert np.array_equal(c0[:, :2], c1[:, :2])
    assert not np.allclose(c0, c1)


# ---------------------------------------------------------------------------
# exactness

def test_exactness_examples():
    assert exactness_check(standard_line())["exact"]
    res = exactness_check(triangle_curve())
    assert not res["exact"]
    X = triangle_curve()
    found = None
    for i, e in enumerate(X.edges):
        u = e.direction()
        if u[0] * 1 + u[1] * 2 == 0:  # tangent orthogonal to (1, 2)
            found = res["constants"][i]
    assert found == 1
    assert exactness_check(load_fixture("fourvalent_vertex")["curve"])["exact"]
    assert exactness_check(load_fixture("genus1_vertex")["curve"])["exact"]


# ---------------------------------------------------------------------------
# Maslov phase

def test_pants_basis_loops_wind_zero():
    for leg in (1, 2):
        pts, fr = pants_basis_loop(0.4, leg, 0.3, resolution=1024)
        assert maslov_winding(pts, fr) == 0


def _mirrored_fiber_oracle(pm, j, target, thetas):
    """The fiber solves of _collar_sheet (j = 1) and pants_basis_loop as
    they were written at their call sites."""
    from troplag.pants import solve_leg_fiber
    minus = thetas > PI / 2
    th_p = np.where(minus, PI - thetas, thetas)
    if j == 1:
        wp = np.stack([np.zeros_like(th_p), th_p], axis=1)
        q1 = solve_leg_fiber(pm, 1, target, wp, 1e-13, 80)[:, 0]
        qw = np.stack([q1, th_p], axis=1)
        return np.where(minus[:, None], -qw, qw)
    wp = np.zeros((len(thetas), 2))
    wp[:, 0] = th_p
    q = solve_leg_fiber(pm, j, target, wp, 1e-13, 80)
    return np.where(minus[:, None], -q, q)


def _collar_rows(X, sched, t, resolution):
    """(lam, S, folded fiber angle) of every collar row of smooth_lift: the
    scale, target and transverse coordinate of its leg-fiber solve."""
    thetas = (np.arange(resolution) + 0.5) * PI / resolution
    folded = np.where(thetas > PI / 2, PI - thetas, thetas)
    rows = []
    for vi in range(len(X.vertices)):
        norm = _frames(X).norms[vi]
        for j in range(3):
            r1, r = sched.cuts[vi, j, [0, 3]] / norm[j]
            S, B = np.meshgrid(np.linspace(r1, r, resolution), folded, indexing="ij")
            rows.append(np.stack([np.full(S.size, t * sched.lam[vi]), S.ravel(), B.ravel()],
                                 axis=1))
    return np.vstack(rows)


def _sorted_rows(rows):
    return rows[np.lexsort(rows.T[::-1])]


def test_collar_fiber_solve_takes_one_kernel_evaluation(monkeypatch):
    # the n = 1 Newton start is the root, so each block's solve evaluates
    # the kernel once, and the blocks' solves cover every collar row once.
    # Kernels are counted per thread: the blocks may run on the lift's pool
    import troplag.pants as pants
    kernel, solve = pants._PlusJet, lift_module.solve_leg_fiber
    local, lock, solves = threading.local(), threading.Lock(), []

    class Counted(kernel):
        def __init__(self, *args):
            super().__init__(*args)
            if getattr(local, "jets", None) is not None:
                local.jets += 1

    def solve_counted(pm, j, target, wp, *args):
        local.jets = 0
        try:
            q = solve(pm, j, target, wp, *args)
        finally:
            jets, local.jets = local.jets, None
        with lock:
            solves.append((jets, np.stack([np.full(len(target), pm.lam), target, wp[:, 1]],
                                          axis=1)))
        return q

    monkeypatch.setattr(pants, "_PlusJet", Counted)
    monkeypatch.setattr(lift_module, "solve_leg_fiber", solve_counted)
    X = triangle_curve()
    sched = default_schedule(X)
    for t in (1.0, 0.5, 0.1):
        solves.clear()
        smooth_lift(X, t, sched, resolution=128)
        assert [jets for jets, _ in solves] == [1] * len(solves)
        got = np.vstack([rows for _, rows in solves])
        assert np.array_equal(_sorted_rows(got), _sorted_rows(_collar_rows(X, sched, t, 128)))


@pytest.mark.parametrize("resolution, block", [(16, 7), (128, 7 ** 4), (16, 1),
                                               (16, 3 * 16 * 16 - 1)])
def test_smooth_lift_does_not_depend_on_the_cpu_count(monkeypatch, resolution, block):
    # blocks of a power of 7 rows end mid grid row and span legs unevenly
    # (7-row blocks at resolution 128 take half a minute), blocks of one
    # row are each a slice of one leg, and 3 r^2 - 1 rows leave a last
    # block of one row; one worker and three, switching threads often, give
    # every piece the bytes of the lift in blocks of the default size
    X = triangle_curve()
    sched = default_schedule(X)
    meshes = [smooth_lift(X, 0.5, sched, resolution=resolution)]
    monkeypatch.setattr(lift_module, "_LIFT_BLOCK", block)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for workers in (1, 3):
            monkeypatch.setattr(lift_module, "_cpu_count", lambda: workers)
            meshes.append(smooth_lift(X, 0.5, sched, resolution=resolution))
    finally:
        sys.setswitchinterval(interval)
    want, *got = meshes
    for mesh in got:
        assert [(p.tag, p.owner) for p in mesh.pieces] == [(p.tag, p.owner) for p in want.pieces]
        for a, b in zip(mesh.pieces, want.pieces):
            assert a.points.tobytes() == b.points.tobytes()
            assert a.frames.tobytes() == b.frames.tobytes()


@pytest.mark.parametrize("workers, resolution, pools", [(2, 72, 0), (2, 74, 1), (1, 128, 0)])
def test_smooth_lift_pools_only_many_blocks_on_several_cpus(monkeypatch, workers, resolution,
                                                           pools):
    # at most _LIFT_POOL_BLOCKS blocks per vertex (3 * 72^2 rows), or one
    # CPU, and the collars are built on the calling thread
    import concurrent.futures
    made = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    monkeypatch.setattr(lift_module, "_cpu_count", lambda: workers)
    smooth_lift(triangle_curve(), 1.0, resolution=resolution)
    assert made == [(workers,)] * pools


@pytest.mark.parametrize("vi, j", [(0, 0), (2, 2)])
def test_collar_sheet_unchanged_by_the_shared_fiber_solve(monkeypatch, vi, j):
    import troplag.lift as lift
    X = triangle_curve()
    sched = default_schedule(X)
    table = _frames(X)
    r1, r2, rbar, r = sched.cuts[vi, j] / table.norms[vi, j]
    cutoff = Cutoff(r2, rbar)
    S, T = np.meshgrid(np.linspace(r1, r, 32),
                       (np.arange(32) + 0.5) * PI / 32, indexing="ij")
    args = (table, vi, sched.lam[vi], [(j, cutoff, S.ravel(), T.ravel())])
    [(P, fr)] = _collar_sheets(*args)
    monkeypatch.setattr(lift, "_fiber_circle", _mirrored_fiber_oracle)
    [(P0, fr0)] = _collar_sheets(*args)
    assert P.tobytes() == P0.tobytes() and fr.tobytes() == fr0.tobytes()


def _smooth_cases():
    for name in ("triangle", "standard_line"):
        for t in (1.0, 0.5, 0.1):
            yield pytest.param(name, t, 32, id=f"{name}-{t}")
    yield pytest.param("triangle6", 1.0, 16, id="triangle6-1.0")
    yield pytest.param("triangle6-unequal", 0.5, 16, id="triangle6-unequal-0.5")


@pytest.mark.parametrize("name, t, resolution", _smooth_cases())
def test_smooth_lift_matches_per_leg_oracle(name, t, resolution):
    # one fiber solve and one kernel call per block of collar rows give
    # every piece the points and frames of the per-leg path on the
    # row-wise evaluators.  The default schedule gives every leg the same
    # cuts, so only the unequal case tells a segment's two ends apart
    X = _triangle_curve(6, 0) if name.startswith("triangle6") else load_fixture(name)["curve"]
    sched = default_schedule(X)
    if name.endswith("unequal"):
        scale = np.random.default_rng(3).uniform(0.9, 1.0, sched.cuts.shape[:2])
        sched = replace(sched, cuts=sched.cuts * scale[..., None])
        validate_schedule(X, sched)
    mesh = smooth_lift(X, t, sched, resolution=resolution)
    want = oracle_smooth_pieces(X, t, sched, resolution)
    assert [(p.tag, p.owner, p.grid) for p in mesh.pieces] == \
        [(p.tag, p.owner, p.grid) for p in want]
    for got, ref in zip(mesh.pieces, want):
        assert got.points.tobytes() == ref.points.tobytes()
        assert got.frames.tobytes() == ref.frames.tobytes()


# sha256 over the points and then the frames of every piece, in piece
# order, as the lift wrote them when it built each vertex's pants and
# collars on its own
SMOOTH_LIFT_SHA256 = {
    ("triangle", 1.0, 16): "73fa284d11a2f5b7024b59cf84128eecf04a605fad09c14c252c08532a9ac541",
    ("triangle", 1.0, 128): "2be0a0fc2fa82431f579e38bff86df7544fb92c2e73a5f8130a22408e55be58c",
    ("triangle", 0.5, 16): "7cda7e1795e01fd291e8cb8e6a34730f3d2e2ea3a7f0286811601a959bb5d4ee",
    ("triangle", 0.5, 128): "0aa3c144464c56f4a65b73b2635838d0c7c101903d347b739860a483cdedf5af",
    ("triangle", 0.1, 16): "8905c0fe1b0b2984aa45a4c40dceafa40e274f40ab4b817135867f4c4689f405",
    ("triangle", 0.1, 128): "a428b5235da378ef6e4176de257ca23f6ca7e969f584c1446715f269a755d5db",
    ("standard_line", 1.0, 16): "f50ef84e4915f26e27a48fc11cbe115e9b66020c215e6c476c9a36a5902ba57a",
    ("standard_line", 1.0, 128): "73c575629b7947ad457f17e8b36b7f2604c64d4f6e26caf7cb8f58ef5ce71fbc",
    ("standard_line", 0.5, 16): "f5f82c4a7351063f0ef475fbbfd282b39fe02cc9385c1c5d429d44f8345eceba",
    ("standard_line", 0.5, 128): "d501588ed195092427f0b4d560137a353072493ea53e10e432387f5d0226fe96",
    ("standard_line", 0.1, 16): "1f45a4559008a4b2dec93f78df9035e8bfe82cdb8b836e49c545ee573784d3c5",
    ("standard_line", 0.1, 128): "48db51e1194e9241ed7ff4bbb0dd88b6ed07f52b92ee84950020dd8fe3fb5d66",
}


@pytest.mark.parametrize("name, t, resolution", list(SMOOTH_LIFT_SHA256))
def test_smooth_lift_pieces_keep_their_bytes(name, t, resolution):
    X = load_fixture(name)["curve"]
    h = hashlib.sha256()
    for p in smooth_lift(X, t, default_schedule(X), resolution=resolution).pieces:
        h.update(p.points.tobytes())
        h.update(p.frames.tobytes())
    assert h.hexdigest() == SMOOTH_LIFT_SHA256[(name, t, resolution)]


def test_theorem41_builds_the_scale_free_pants_table_once(monkeypatch):
    from troplag.verify import verify_theorem41
    table, built = lift_module._unit_pants, []

    def counted(resolution):
        built.append(resolution)
        return table.__wrapped__(resolution)
    monkeypatch.setattr(lift_module, "_unit_pants", functools.lru_cache(maxsize=1)(counted))
    verify_theorem41(resolution=32)
    assert built == [32]


def test_smooth_lift_builds_each_distinct_vertex_row_once(monkeypatch):
    # the 36 vertices of a degree-6 triangle share two rows of (lam, leg
    # cuts in lattice units): two pants bodies and two collar grids are
    # solved, and every vertex gets the pieces of the per-leg oracle
    X = _triangle_curve(6, 0)
    sched = default_schedule(X)
    norms = lift_module._curve_table(X, frames=True).norms
    cuts = (sched.cuts / norms[:, :, None]).reshape(-1, 12)
    rows = {(lam, tuple(row)) for lam, row in zip(sched.lam.tolist(), cuts.tolist())}
    assert (len(X.vertices), len(rows)) == (36, 2)
    solve, standard = lift_module.solve_leg_fiber, lift_module._standard_pants
    solved, bodies = [], []

    def solve_counted(pm, j, target, wp, *args):
        solved.append(len(target))
        return solve(pm, j, target, wp, *args)

    def standard_counted(*args):
        bodies.append(args[0])
        return standard(*args)
    monkeypatch.setattr(lift_module, "solve_leg_fiber", solve_counted)
    monkeypatch.setattr(lift_module, "_standard_pants", standard_counted)
    mesh = smooth_lift(X, 1.0, sched, resolution=16)
    assert sum(solved) == len(rows) * 3 * 16 * 16
    assert sorted(bodies) == sorted(lam for lam, _ in rows)
    for got, ref in zip(mesh.pieces, oracle_smooth_pieces(X, 1.0, sched, 16)):
        assert got.points.tobytes() == ref.points.tobytes()
        assert got.frames.tobytes() == ref.frames.tobytes()


@pytest.mark.parametrize("leg", [1, 2])
def test_pants_basis_loop_unchanged_by_the_shared_fiber_solve(monkeypatch, leg):
    import troplag.lift as lift
    pts, fr = pants_basis_loop(0.4, leg, 0.35, resolution=512)
    monkeypatch.setattr(lift, "_fiber_circle", _mirrored_fiber_oracle)
    pts0, fr0 = pants_basis_loop(0.4, leg, 0.35, resolution=512)
    assert pts.tobytes() == pts0.tobytes() and fr.tobytes() == fr0.tobytes()


def test_collar_loops_wind_zero():
    # fiber loops across the whole collar, including the cutoff ramp where
    # the tangent plane rotates fastest, have vanishing phase winding
    X = standard_line()
    sched = default_schedule(X)
    table = _frames(X)
    for j in (0, 1, 2):
        r1, r2, rbar, r = sched.cuts[0, j]
        scale = table.norms[0, j]
        cutoff = Cutoff(r2 / scale, rbar / scale)
        fracs = (0.0, 0.35, 0.5, 0.65, 1.0)
        T = (np.arange(1024) + 0.5) * PI / 1024
        legs = [(j, cutoff, np.full(1024, (r1 + f * (r - r1)) / scale), T) for f in fracs]
        for pts, fr in _collar_sheets(table, 0, sched.lam[0], legs):
            assert maslov_winding(pts, fr) == 0


def test_maslov_winding_rejects_sparse_loops():
    from troplag.errors import NumericError
    X = standard_line()
    sched = default_schedule(X)
    mesh = smooth_lift(X, 1.0, sched, resolution=32)
    piece = _pieces(mesh, "collar")[0]
    nu, nv = piece.grid
    pts = piece.points.reshape(nu, nv, 4)[nu // 2]
    fr = piece.frames.reshape(nu, nv, 2, 4)[nu // 2]
    with pytest.raises(NumericError):
        maslov_winding(pts, fr)  # 32 samples alias on the cutoff ramp


# ---------------------------------------------------------------------------
# export

def test_mesh_export_off_obj(tmp_path):
    X = standard_line()
    mesh = smooth_lift(X, 0.5, resolution=12)
    off = tmp_path / "m.off"
    obj = tmp_path / "m.obj"
    mesh.to_off(str(off))
    mesh.to_obj(str(obj), projection="xyy")
    lines = off.read_text().splitlines()
    assert lines[0] == "OFF"
    nv, nf, _ = (int(x) for x in lines[1].split())
    assert nv == len(mesh.points)
    assert nf > 0
    face = lines[2 + nv].split()
    assert face[0] == "4"
    assert all(0 <= int(i) < nv for i in face[1:])
    assert obj.read_text().startswith("v ")
    with pytest.raises(InputError):
        mesh.to_off(str(off), projection="zzz")


def _faces_oracle(mesh, projection):
    """LagrangianMesh._faces as a Python list of quads, one at a time."""
    cols = LagrangianMesh._PROJ[projection]
    verts, faces = [], []
    offset = 0
    for p in mesh.pieces:
        verts.append(p.points[:, cols])
        if p.grid is not None:
            nu, nv = p.grid
            for i in range(nu - 1):
                for j in range(nv - 1):
                    a = offset + i * nv + j
                    faces.append((a, a + 1, a + nv + 1, a + nv))
        offset += len(p.points)
    return np.vstack(verts), faces


def _off_oracle(mesh, path, projection):
    """to_off writing one formatted line per vertex and face."""
    verts, faces = _faces_oracle(mesh, projection)
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(verts)} {len(faces)} 0\n")
        for v in verts:
            fh.write(f"{v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        for f in faces:
            fh.write("4 " + " ".join(str(i) for i in f) + "\n")


def _obj_oracle(mesh, path, projection):
    """to_obj writing one formatted line per vertex and face."""
    verts, faces = _faces_oracle(mesh, projection)
    with open(path, "w") as fh:
        for v in verts:
            fh.write(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        for f in faces:
            fh.write("f " + " ".join(str(i + 1) for i in f) + "\n")


_EXPORTS = {"m.off": (LagrangianMesh.to_off, _off_oracle),
            "m.obj": (LagrangianMesh.to_obj, _obj_oracle)}


def _assert_file_matches_oracle(mesh, tmp_path, name, projection):
    write, oracle = _EXPORTS[name]
    write(mesh, str(tmp_path / name), projection=projection)
    oracle(mesh, tmp_path / ("oracle_" + name), projection)
    assert (tmp_path / name).read_bytes() == (tmp_path / ("oracle_" + name)).read_bytes()


def _assert_export_matches_oracle(mesh, tmp_path, projection="xxy"):
    # to_off and to_obj share the vertex text that the first of them
    # formats: check both call orders, each on a copy with an empty memo
    for order in (("m.off", "m.obj"), ("m.obj", "m.off")):
        fresh = copy_mesh(mesh)
        for name in order:
            _assert_file_matches_oracle(fresh, tmp_path, name, projection)


def _synthetic_mesh(points, grid):
    return mesh_of([MeshPiece("flat", (0,), points, np.zeros((len(points), 2, 4)), grid)])


@pytest.fixture(scope="module")
def triangle_mesh():
    X = triangle_curve()
    return smooth_lift(X, 0.5, default_schedule(X), resolution=12)


@pytest.mark.parametrize("projection", ["xxy", "xyy", "x1y", "x2y"])
def test_export_matches_per_line_oracle(tmp_path, triangle_mesh, projection):
    # the pants pieces carry no grid: their vertices are written, no faces
    assert any(p.grid is None for p in triangle_mesh.pieces)
    _assert_export_matches_oracle(triangle_mesh, tmp_path, projection)


def test_export_of_two_projections_on_one_mesh_matches_oracle(tmp_path, triangle_mesh):
    # each projection keeps its own rows: xyy after xxy, then xxy again
    mesh = copy_mesh(triangle_mesh)
    for projection in ("xxy", "xyy", "xxy"):
        for name in ("m.obj", "m.off"):
            _assert_file_matches_oracle(mesh, tmp_path, name, projection)


def test_export_of_a_twisted_mesh_matches_oracle(tmp_path, triangle_mesh):
    twisted, _ = twist(copy_mesh(triangle_mesh), {3: 1, 0: -2})
    _assert_export_matches_oracle(twisted, tmp_path, "xyy")


def test_export_without_gridded_pieces_matches_oracle(tmp_path, triangle_mesh):
    pants = mesh_of(_pieces(triangle_mesh, "pants"), triangle_mesh.X, 0.5)
    _assert_export_matches_oracle(pants, tmp_path)
    assert (tmp_path / "m.off").read_text().splitlines()[1].endswith(" 0 0")


def test_export_of_non_finite_and_signed_zero_vertices(tmp_path):
    vals = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, -1.5e300, 1 / 3]
    points = np.array([[v, -v, v / 7, 2.0] for v in vals])
    mesh = _synthetic_mesh(points, (2, 4))
    _assert_export_matches_oracle(mesh, tmp_path)
    rows = (tmp_path / "m.off").read_text().splitlines()[2:2 + len(vals)]
    assert rows[:4] == ["nan nan nan", "inf -inf inf", "-inf inf -inf", "-0 0 -0"]


@pytest.mark.parametrize("block", [1, 7, 1 << 14])
def test_export_blocks_match_oracle(tmp_path, monkeypatch, block):
    # 45 vertices and 32 faces leave remainders in blocks of 7 rows; at
    # the real block size, 130 x 257 vertices and 129 x 256 faces fill two
    # blocks and part of a third
    monkeypatch.setattr("troplag.lift._EXPORT_BLOCK", block)
    nu, nv = (130, 257) if block == 1 << 14 else (5, 9)
    points = np.random.default_rng(block).normal(size=(nu * nv, 4))
    _assert_export_matches_oracle(_synthetic_mesh(points, (nu, nv)), tmp_path, "x2y")


def test_export_past_index_100000_matches_percent_formatting(tmp_path):
    # the sha256 pins stop at resolution 48 (42,066 vertices); at 96 the
    # face indices cross 100,000, where their digit count changes
    mesh = smooth_lift(triangle_curve(), 0.5, resolution=96)
    verts, faces = _faces_oracle(mesh, "xxy")
    assert min(map(min, faces)) < 99_999 and max(map(max, faces)) > 100_000
    mesh.to_off(str(tmp_path / "mesh.off"))
    mesh.to_obj(str(tmp_path / "mesh.obj"))
    off, obj = percent_export(verts, faces)
    assert (tmp_path / "mesh.off").read_bytes() == off
    assert (tmp_path / "mesh.obj").read_bytes() == obj


_POWERS_OF_TEN = [0, 9, 10, 99_999, 100_000, 99_999_999, 100_000_000, 123_456_789_012]


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 5).flatmap(lambda k: st.lists(
           st.lists(st.integers(0, 2000), min_size=k, max_size=k), max_size=40)
           .map(lambda r: np.array(r, dtype=np.int64).reshape(-1, k))),
       base=st.sampled_from(_POWERS_OF_TEN) | st.integers(0, 10 ** 15),
       shift=st.integers(0, 1), prefix=st.sampled_from([b"4 ", b"f ", b""]),
       extra=st.integers(0, 1000))
@example(rows=np.zeros((0, 4), dtype=np.int64), base=0, shift=0, prefix=b"4 ", extra=0)
@example(rows=np.array([[0, 9, 10, 99_999]]), base=0, shift=1, prefix=b"f ", extra=0)
@example(rows=np.array([[0, 1, 2, 3], [1, 0, 0, 0], [0, 0, 0, 0]]), base=99_999,
         shift=0, prefix=b"4 ", extra=0)
@example(rows=np.array([[0, 1], [1, 0]]), base=99_999_999, shift=1, prefix=b"f ", extra=0)
def test_int_rows_match_percent_formatting(rows, base, shift, prefix, extra):
    # unsorted rows whose digit counts change from row to row, numbers at
    # powers of ten and wider than 8 digits, one row and no rows; the table
    # may reach past the largest number, and so be wider than it
    rows = rows + base
    lo = int(rows.min(initial=base)) + shift
    records, counts = _digit_table(lo, int(rows.max(initial=base)) + shift + extra)
    fmt = prefix.decode() + " ".join(["%d"] * rows.shape[1]) + "\n"
    expected = (fmt * len(rows) % tuple((rows + shift).ravel().tolist())).encode()
    assert b"".join(_int_rows(prefix, rows + shift - lo, records, counts)) == expected


# ---------------------------------------------------------------------------
# sample-size bounds, checked before sampling

def _degree_8_triangle_curve():
    P = LatticePolytope.from_points([(0, 0), (8, 0), (0, 8)])
    nu = LiftingFunction({(i, j): i * i + j * j + (i + j) ** 2 for i, j in P.lattice_points})
    return tropical_hypersurface(regular_subdivision(P, nu))


# the polytope fixtures: curves given directly carry no duality data, so
# they have no PL or smooth lift
LIFTABLE = [n for n in fixture_names() if _load(n).get("type") == "polytope"]


@pytest.mark.parametrize("name", LIFTABLE + ["degree_8_triangle"])
def test_sample_bounds_are_never_below_the_counts(name):
    from troplag.lift import _pl_sample_bound, _smooth_sample_bound
    X = (_degree_8_triangle_curve() if name == "degree_8_triangle"
         else load_fixture(name)["curve"])
    pl = pl_lift(X)
    for res in (8, 12, 24):  # the chart grids take max(8, r // 2) and max(6, r // 4)
        assert len(pl.sample(res)) <= _pl_sample_bound(pl, res)
        if is_smooth(X):
            sched = default_schedule(X)
            assert len(smooth_lift(X, 1.0, sched, res).points) <= _smooth_sample_bound(X, res)


def test_sample_bound_refuses_before_sampling(monkeypatch):
    X = triangle_curve()
    from troplag.lift import _smooth_sample_bound
    monkeypatch.setattr(lift_module, "MAX_SAMPLE_POINTS", _smooth_sample_bound(X, 16) - 1)
    with pytest.raises(InputError, match="the sample would hold up to"):
        smooth_lift(X, 1.0, None, 16)
    assert len(smooth_lift(X, 1.0, None, 14).points) > 0
    pl = pl_lift(X)
    from troplag.lift import _pl_sample_bound
    monkeypatch.setattr(lift_module, "MAX_SAMPLE_POINTS", _pl_sample_bound(pl, 16) - 1)
    with pytest.raises(InputError, match="the sample would hold up to"):
        pl.sample(16)
    assert len(pl.sample(14)) > 0
