from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from troplag.errors import InputError
from troplag.fixtures import load_fixture
from troplag.lift import pl_lift
from troplag.polyhedral import LatticePolytope, LiftingFunction, regular_subdivision
from troplag.toric import (BoundaryHit, DelzantPolygon, classify_boundary,
                           delzant_check, lift_topology, monotone_report,
                           vertex_unimodular)
from troplag.tropical import TropCell, TropicalComplex, load_curve_json, tropical_hypersurface


P2 = DelzantPolygon.from_vertices([(0, 0), (3, 0), (0, 3)])
P1P1 = DelzantPolygon.from_vertices([(0, 0), (2, 0), (2, 2), (0, 2)])


# ---------------------------------------------------------------------------
# Delzant checks

def test_delzant_standard_polygons():
    assert delzant_check(P2)
    assert delzant_check(P1P1)
    assert delzant_check(DelzantPolygon.quadrant())


def test_delzant_vertexwise_arithmetic():
    # at (2, 0) of conv{(0,0),(2,0),(0,1)} the tangents (-1,0) and (-2,1)
    # form a basis, but the vertex (0, 1) fails, so the polygon does not
    P = DelzantPolygon.from_vertices([(0, 0), (2, 0), (0, 1)])
    assert vertex_unimodular(P, (2, 0))
    assert not vertex_unimodular(P, (0, 1))
    assert not delzant_check(P)
    Q = DelzantPolygon.from_vertices([(0, 0), (2, 0), (1, 2)])
    assert not vertex_unimodular(Q, (2, 0))  # tangents (-1,0), (-1,2)
    assert not delzant_check(Q)


def test_polygon_contains_and_distances():
    assert P2.strictly_contains((1, 1))
    assert P2.contains((0, 0)) and not P2.strictly_contains((0, 0))
    assert not P2.contains((3, 3))
    dists = sorted(P2.facet_distance((1, 1), i) for i in range(3))
    assert dists == [1, 1, 1]
    assert P2.facet_distance((Fraction(1, 2), Fraction(1, 2)), 0) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# boundary classification

def test_p2_torus_hits_are_smooth_corners():
    fx = load_fixture("p2_torus")
    hits = classify_boundary(fx["curve"], fx["polygon"])
    assert len(hits) == 3
    assert all(h.kind == "smooth-point" for h in hits)
    assert sorted(tuple(h.point) for h in hits) == [
        (0, 0), (0, 3), (3, 0)]


def test_index_one_hit_is_circle_boundary():
    X = load_curve_json({
        "vertices": [[1, 1]], "edges": [],
        "rays": [[0, [0, -1]], [0, [-1, 0]], [0, [1, 1]]]})
    hits = classify_boundary(X, DelzantPolygon.quadrant())
    kinds = sorted(h.kind for h in hits)
    assert kinds == ["circle-boundary", "circle-boundary"]
    assert all(h.index == 1 for h in hits)


def test_index_two_hits_are_moebius():
    fx = load_fixture("nonorientable")
    hits = classify_boundary(fx["curve"], fx["polygon"])
    by_kind = {}
    for h in hits:
        by_kind.setdefault(h.kind, []).append(h)
    assert len(by_kind["moebius"]) == 2
    assert all(h.index == 2 for h in by_kind["moebius"])
    assert len(by_kind["smooth-point"]) == 1
    assert tuple(by_kind["smooth-point"][0].point) == (0, 0)


def test_vertex_on_boundary_rejected():
    fx = load_fixture("p2_torus")
    X = fx["curve"].translate((Fraction(-1, 2), Fraction(-1, 2)))
    with pytest.raises(InputError):
        classify_boundary(X, fx["polygon"])


def test_unsupported_index_three():
    X = load_curve_json({
        "vertices": [[1, 1]], "edges": [],
        "rays": [[0, [1, -3]], [0, [-2, 1]], [0, [1, 2]]]})
    hits = classify_boundary(X, DelzantPolygon.quadrant())
    assert any(h.kind == "unsupported" and h.index == 3 for h in hits)
    with pytest.raises(InputError):
        lift_topology(X, DelzantPolygon.quadrant())


def test_classification_affine_invariance():
    # integral affine automorphisms of the pair preserve the classification
    fx = load_fixture("nonorientable")
    X, poly = fx["curve"], fx["polygon"]
    A = np.array([[1, 1], [0, 1]])
    shift = (2, 1)

    def map_pt(p):
        v = A @ np.array([Fraction(c) for c in p], dtype=object)
        return (v[0] + shift[0], v[1] + shift[1])

    verts = [map_pt(v) for v in X.vertices]
    edges = []
    for e in X.edges:
        mverts = tuple(map_pt(v) for v in e.verts)
        mrays = tuple(tuple(int(c) for c in (A @ np.array(r))) for r in e.rays)
        edges.append(TropCell(e.kind, mverts, mrays, e.weight))
    Xm = TropicalComplex(verts, edges)
    from troplag.toric import PolygonEdge
    pedges = []
    for e in poly.edges:
        base = map_pt(e.base)
        d = tuple(int(c) for c in (A @ np.array(e.direction)))
        n_old = np.array(e.inward)
        n_new = tuple(int(c) for c in (np.linalg.inv(A).T @ n_old).round())
        pedges.append(PolygonEdge(base, d, e.length, n_new))
    pverts = [map_pt(v) for v in poly.vertices]
    polym = DelzantPolygon(pedges, pverts)
    h0 = sorted((h.kind, h.index) for h in classify_boundary(X, poly))
    h1 = sorted((h.kind, h.index) for h in classify_boundary(Xm, polym))
    assert h0 == h1
    t0, t1 = lift_topology(X, poly), lift_topology(Xm, polym)
    assert (t0.chi, t0.orientable, t0.boundary_circles) == \
        (t1.chi, t1.orientable, t1.boundary_circles)


# ---------------------------------------------------------------------------
# closed-up topology

def test_topology_table():
    t = lift_topology(load_fixture("standard_line")["curve"])
    assert (t.chi, t.punctures, t.genus) == (-1, 3, 0)
    t = lift_topology(load_fixture("weight2_line")["curve"])
    assert (t.chi, t.punctures, t.genus) == (-4, 6, 0)
    t = lift_topology(load_fixture("genus1_vertex")["curve"])
    assert (t.chi, t.punctures, t.genus) == (-3, 3, 1)
    fx = load_fixture("p2_torus")
    t = lift_topology(fx["curve"], fx["polygon"])
    assert (t.chi, t.orientable, t.genus, t.boundary_circles) == (0, True, 1, 0)
    fx = load_fixture("nonorientable")
    t = lift_topology(fx["curve"], fx["polygon"])
    assert (t.chi, t.orientable, t.boundary_circles) == (-4, False, 0)
    assert t.crosscaps == 6
    assert t.chi % 4 == 0  # closed non-orientable in the plane


def test_topology_with_boundary_circles():
    X = load_curve_json({
        "vertices": [[1, 1]], "edges": [],
        "rays": [[0, [0, -1]], [0, [-1, 0]], [0, [1, 1]]]})
    t = lift_topology(X, DelzantPolygon.quadrant())
    # one trivalent vertex, two index-1 hits: a pair of pants with two of
    # its three ends capped by boundary circles; the third escapes inside
    # the quadrant and stays a puncture
    assert t.boundary_circles == 2
    assert t.punctures == 1
    assert t.orientable and t.genus == 0 and t.chi == -1
    assert (t.chi - t.boundary_circles - t.punctures) % 2 == 0


def test_p1p1_torus_topology():
    fx = load_fixture("p1p1_torus")
    t = lift_topology(fx["curve"], fx["polygon"])
    assert (t.chi, t.orientable, t.genus, t.boundary_circles) == (0, True, 1, 0)


def test_fourvalent_vertex_contribution():
    fx = load_fixture("p1p1_monotone")
    t = lift_topology(fx["curve"], fx["polygon"])
    # one 4-valent vertex (chi share -4) and four smooth corner caps
    assert (t.chi, t.orientable, t.genus) == (0, True, 1)


# ---------------------------------------------------------------------------
# monotone arithmetic

def test_monotone_p2():
    fx = load_fixture("p2_monotone")
    rep = monotone_report(fx["curve"], fx["polygon"])
    pairs = {r["class"]: (r["mu"], r["omega"]) for r in rep["pairs"]}
    assert pairs["tau"] == (6, 3)
    for i in range(3):
        assert pairs[f"facet-{i}"] == (2, 1)
    assert pairs["fiber"] == (0, 0)
    assert rep["proportional"] and rep["factor"] == 2


def test_monotone_p1p1():
    fx = load_fixture("p1p1_monotone")
    rep = monotone_report(fx["curve"], fx["polygon"])
    pairs = {r["class"]: (r["mu"], r["omega"]) for r in rep["pairs"]}
    for i in range(4):
        assert pairs[f"facet-{i}"] == (2, 1)
    assert rep["proportional"] and rep["factor"] == 2


def test_monotone_fails_off_center():
    fx = load_fixture("p2_monotone")
    X = fx["curve"].translate((Fraction(-1, 2), Fraction(-1, 2)))
    rep = monotone_report(X, fx["polygon"])
    dists = sorted(Fraction(r["omega"]) for r in rep["pairs"] if r["class"].startswith("facet"))
    assert dists == [Fraction(1, 2), Fraction(1, 2), Fraction(2)]
    assert not rep["proportional"]
    assert rep["factor"] is None


def test_monotone_requires_unique_vertex():
    fx = load_fixture("p2_torus")
    with pytest.raises(InputError):
        monotone_report(fx["curve"], fx["polygon"])


def test_monotone_factor_is_two_when_proportional():
    for name in ("p2_monotone", "p1p1_monotone"):
        fx = load_fixture(name)
        rep = monotone_report(fx["curve"], fx["polygon"])
        assert rep["proportional"]
        for r in rep["pairs"]:
            assert Fraction(r["mu"]) == 2 * Fraction(r["omega"])


@st.composite
def _lifted_lattice_polytopes(draw):
    """A lattice polygon or segment in [0, 4]^2 with integer lifting values."""
    point = st.tuples(st.integers(0, 4), st.integers(0, 4))
    pts = draw(st.lists(point, min_size=2, max_size=6, unique=True))
    if draw(st.booleans()):  # a segment: keep the first point and direction
        (a, b), (c, d) = pts[0], pts[1]
        pts = [(a, b), (c, d)]
    poly = LatticePolytope.from_points(pts)
    values = {p: draw(st.integers(-3, 3)) for p in poly.lattice_points}
    return poly, LiftingFunction(values)


@settings(max_examples=150, deadline=None)
@given(_lifted_lattice_polytopes())
def test_pl_lift_topology_agrees_with_lift_topology(case):
    # the PL lift's Euler bookkeeping and the toric table agree on every
    # lifted polygon and segment, including curves made of parallel lines
    X = tropical_hypersurface(regular_subdivision(*case))
    pl, topo = pl_lift(X), lift_topology(X)
    assert pl.punctures() == topo.punctures
    assert pl.genus() == topo.genus


def test_line_weights_count_cylinder_ends():
    # a weight-w line lifts to w cylinders: 2w punctures, w components
    seg = LatticePolytope.from_points([(0, 0), (2, 0)])
    X = tropical_hypersurface(regular_subdivision(seg, LiftingFunction.constant(seg)))
    assert X.lift_ends() == (4, 2)
    assert (pl_lift(X).punctures(), pl_lift(X).genus()) == (4, 0)
    prim = LatticePolytope.from_points([(1, 3), (2, 1)])
    X = tropical_hypersurface(regular_subdivision(prim, LiftingFunction.constant(prim)))
    assert (lift_topology(X).punctures, lift_topology(X).genus) == (2, 0)
    assert (pl_lift(X).punctures(), pl_lift(X).genus()) == (2, 0)
