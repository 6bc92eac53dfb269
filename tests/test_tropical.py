import contextlib
import os
import tempfile
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from helpers import constant_lifting
from hypothesis import assume, example, given, settings, strategies as st

from troplag import polyhedral, tropical
from troplag.cli import _curve_to_json
from troplag.errors import InputError
from troplag.lift import _curve_table, default_schedule
from troplag.polyhedral import (LatticePolytope, LiftingFunction, affine_dim, exact_point,
                                regular_subdivision, vsub)
from troplag.svg import draw_curve_and_subdivision
from troplag.tropical import (TropCell, TropicalComplex, balancing_check, is_smooth,
                              load_curve_json, tangent_line, tropical_hypersurface, vertex_frames)


def triangle_curve():
    P = LatticePolytope.from_points([(0, 0), (1, 2), (2, 1)])
    S = regular_subdivision(P, {(0, 0): 1, (1, 1): 0, (2, 1): 0, (1, 2): 0})
    return tropical_hypersurface(S)


def standard_line():
    P = LatticePolytope.from_points([(0, 0), (1, 0), (0, 1)])
    return tropical_hypersurface(regular_subdivision(P, constant_lifting(P)))


def F2(a, b):
    return (Fraction(a), Fraction(b))


def test_triangle_curve_vertices_edges_rays():
    X = triangle_curve()
    assert sorted(X.vertices) == [F2(0, 0), F2(0, 1), F2(1, 0)]
    segs = sorted(tuple(sorted(e.verts)) for e in X.edges if e.kind == "segment")
    # the cycle edge joining (0,1) and (1,0) is part of the corner locus too
    assert segs == [
        (F2(0, 0), F2(0, 1)),
        (F2(0, 0), F2(1, 0)),
        (F2(0, 1), F2(1, 0)),
    ]
    rays = sorted((tuple(e.verts[0]), e.rays[0]) for e in X.unbounded_edges())
    assert rays == [
        (F2(0, 0), (-1, -1)),
        (F2(0, 1), (-1, 2)),
        (F2(1, 0), (2, -1)),
    ]
    assert all(e.weight == 1 for e in X.edges)


def test_standard_line():
    X = standard_line()
    assert X.vertices == [F2(0, 0)]
    assert sorted(e.rays[0] for e in X.edges) == [(-1, -1), (0, 1), (1, 0)]


def test_weight2_segment_gives_double_line():
    P = LatticePolytope.from_points([(0, 0), (2, 0)])
    S = regular_subdivision(P, LiftingFunction({(0, 0): 0, (1, 0): 0, (2, 0): 0}))
    X = tropical_hypersurface(S)
    assert X.vertices == []
    (e,) = X.edges
    assert e.kind == "line" and e.weight == 2
    assert sorted(e.rays) == [(0, -1), (0, 1)]


def test_smoothness():
    assert is_smooth(triangle_curve())
    P = LatticePolytope.from_points([(0, 0), (2, 0)])
    X2 = tropical_hypersurface(regular_subdivision(P, constant_lifting(P)))
    assert not is_smooth(X2)
    star = load_curve_json({"vertices": [[0, 0]], "edges": [],
                            "rays": [[0, [1, 1]], [0, [-2, 1]], [0, [1, -2]]]})
    assert not is_smooth(star)  # |det[(1,1),(-2,1)]| = 3


def test_balancing():
    assert balancing_check(standard_line())
    star = load_curve_json({"vertices": [[0, 0]], "edges": [],
                            "rays": [[0, [1, 1]], [0, [-2, 1]], [0, [1, -2]]]})
    assert balancing_check(star)
    bad = {"vertices": [[0, 0]], "edges": [],
           "rays": [[0, [1, 0]], [0, [0, 1]], [0, [-1, -1]]],
           "weights": [1, 1, 2]}
    with pytest.raises(InputError):
        load_curve_json(bad)  # balancing is checked on load


def test_tangent_lines_of_triangle_curve():
    X = triangle_curve()
    L0 = tangent_line(X, (0, 0))
    assert sorted(L0.generators) == [(-1, -1), (0, 1), (1, 0)]
    L1 = tangent_line(X, (1, 0))
    assert sorted(L1.generators) == [(-1, 0), (-1, 1), (2, -1)]
    with pytest.raises(InputError):
        tangent_line(X, (5, 5))


def test_tangent_line_of_line_is_itself():
    X = standard_line()
    L = tangent_line(X, (0, 0))
    assert sorted(L.generators) == sorted(e.rays[0] for e in X.edges)
    star = [TropCell("ray", (L.center,), (g,), w) for g, w in zip(L.generators, L.weights)]
    assert balancing_check(TropicalComplex([L.center], star))


def test_vertex_frames_deterministic_rule():
    # u0 is the lexicographically smallest direction, the rest follow in
    # lexicographic order, and A = B^-1 sends u1, u2 to the standard basis
    X = standard_line()
    dirs, legs, v0 = vertex_frames(X)
    assert dirs == [((-1, -1), (0, 1), (1, 0))]
    assert [X.edges[ei].rays[0] for ei in legs[0]] == list(dirs[0])
    assert _curve_table(X, frames=True).A[0].tolist() == [[0, 1], [1, 0]]
    X1 = triangle_curve()
    vi = X1.vertices.index((1, 0))
    dirs, legs, v0 = vertex_frames(X1)
    assert dirs[vi] == ((-1, 0), (-1, 1), (2, -1))
    A = _curve_table(X1, frames=True).A[vi]
    assert A.tolist() == [[1, 2], [1, 1]]
    assert [(A @ u).tolist() for u in dirs[vi]] == [[-1, -1], [1, 0], [0, 1]]
    assert all(type(c) is int for u in dirs[vi] for c in u)
    assert all(type(c) is int for c in v0[vi])


def test_vertex_frames_invariants():
    X = triangle_curve()
    dirs, _, _ = vertex_frames(X)
    A = _curve_table(X, frames=True).A
    for vi, v in enumerate(X.vertices):
        (a, b), (c, d) = A[vi].tolist()
        assert abs(a * d - b * c) == 1
        # conjugation sends the line exactly to the standard line
        L = tangent_line(X, v)
        assert L.generators == dirs[vi]
        images = sorted((A[vi] @ g).tolist() for g in L.generators)
        assert images == [[-1, -1], [0, 1], [1, 0]]


def test_vertex_frames_rejects_nonsmooth():
    for rays, weights in [([[1, 1], [-2, 1], [1, -2]], None),  # |det| = 3
                          ([[1, 0], [0, 1], [-1, 0], [0, -1]], None),  # four legs
                          ([[-1, 0], [1, 2], [1, -2]], [2, 1, 1])]:  # a weight of 2
        X = load_curve_json({"vertices": [[0, 0]], "rays": [[0, r] for r in rays],
                             "weights": weights})
        with pytest.raises(InputError, match="not smooth"):
            vertex_frames(X)
    # a unimodular frame on an unbalanced star, which only a complex built
    # without load_curve_json's balancing check can have
    rays = [TropCell("ray", ((0, 0),), (d,)) for d in ((0, 1), (1, 0), (1, 1))]
    with pytest.raises(InputError, match="not balanced"):
        vertex_frames(TropicalComplex([(0, 0)], rays))


def _int_apply(M, x):
    return (M[0][0] * x[0] + M[0][1] * x[1], M[1][0] * x[0] + M[1][1] * x[1])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=3, max_size=6),
       st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(-1, 1)),
       st.lists(st.integers(0, 2), min_size=25, max_size=25))
@example([(0, 0), (4, 0), (0, 4)], (1, 1, 0), [0] * 25)  # 16 vertices, two frames
@example([(0, 0), (2, 0), (3, 2), (0, 1)], (2, 1, -1), [2, 0, 1] * 8 + [0])  # 7, five frames
def test_vertex_frames_are_exact_and_match_the_curve_table(points, quadratic, noise):
    # a strictly convex quadratic plus noise lifts a random lattice polygon
    # to a curve that is mostly smooth: its frames are ints, B = [u1 u2]
    # sends e_1, e_2 and (-1, -1) to the legs' directions, the table's
    # A is its exact inverse, v0 is a vertex of both frame legs' dual
    # edges, and every leg names an edge leaving its vertex in its direction
    assume(affine_dim(points) == 2)
    P = LatticePolytope.from_points(points)
    a, b, c = quadratic
    nu = {(i, j): 3 * (a * i * i + b * j * j + c * i * j + (i + j) ** 2) + n
          for (i, j), n in zip(P.lattice_points, noise)}
    X = tropical_hypersurface(regular_subdivision(P, nu))
    assume(X.vertices and is_smooth(X))
    dirs, legs, v0 = vertex_frames(X)
    table = _curve_table(X, frames=True)
    assert len(dirs) == len(legs) == len(v0) == len(X.vertices)
    for vi, v in enumerate(X.vertices):
        u0, u1, u2 = dirs[vi]
        assert {type(x) for x in (*u0, *u1, *u2, *v0[vi])} == {int}
        B = ((u1[0], u2[0]), (u1[1], u2[1]))
        assert [_int_apply(B, x) for x in ((1, 0), (0, 1), (-1, -1))] == [u1, u2, u0]
        assert table.B[vi].tolist() == [list(row) for row in B]
        assert (table.A[vi] @ table.B[vi]).tolist() == [[1, 0], [0, 1]]
        assert all(v0[vi] in X.edges[ei].dual_key for ei in legs[vi][1:])
        assert [X.outgoing_direction(X.edges[ei], v) for ei in legs[vi]] == list(dirs[vi])
    assert not np.signbit(table.A[table.A == 0]).any()  # the frames' torus columns
    for ei, e in enumerate(X.edges):
        for end, (vi, j) in enumerate(table.legs[ei].tolist()):
            assert X.vertices[vi] == e.verts[min(end, len(e.verts) - 1)]
            assert X.outgoing_direction(e, X.vertices[vi]) == dirs[vi][j]


def test_duality_round_trip():
    X = triangle_curve()
    for cell in X.cells:
        face = X.dual_cell(cell)
        # exactly one curve cell is dual to the face: the cell itself
        back = [c for c in X.cells if c.dual_key == face.key]
        assert [(c.dual_key, c.verts) for c in back] == [(cell.dual_key, cell.verts)]


def test_direct_input_round_trip():
    data = {"vertices": [["1/2", "1/2"]], "edges": [],
            "rays": [[0, [1, 0]], [0, [0, 1]], [0, [-1, -1]]]}
    X = load_curve_json(data)
    assert X.vertices == [(Fraction(1, 2), Fraction(1, 2))]
    assert balancing_check(X)
    assert is_smooth(X)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=4, max_size=4))
def test_curves_from_lifts_are_balanced(vals):
    P = LatticePolytope.from_points([(0, 0), (1, 2), (2, 1)])
    nu = LiftingFunction(dict(zip(P.lattice_points, vals)))
    X = tropical_hypersurface(regular_subdivision(P, nu))
    assert balancing_check(X)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=3, max_size=6),
       st.lists(st.integers(-3, 3), min_size=16, max_size=16))
@example([(0, 0), (1, 2), (2, 1)], [1, 0, 0, 0] + [0] * 12)  # smooth
@example([(0, 0), (1, 2), (2, 1)], [0] * 16)  # one cell of area 3, primitive edges
def test_subdivision_and_star_smoothness_agree(points, values):
    # is_smooth of a polytope-backed curve tests its subdivision's cells,
    # and of the same curve read back as a direct curve each vertex's star
    assume(affine_dim(points) == 2)
    P = LatticePolytope.from_points(points)
    X = tropical_hypersurface(regular_subdivision(P, dict(zip(P.lattice_points, values))))
    Y = load_curve_json(_curve_to_json(X))
    assert Y.subdivision is None
    assert is_smooth(Y) == is_smooth(X)
    assert balancing_check(X) and balancing_check(Y)


def test_every_smooth_vertex_is_trivalent_unimodular():
    X = triangle_curve()
    for v in X.vertices:
        star = X.edges_at(v)
        assert len(star) == 3
        dirs = [X.outgoing_direction(e, v) for e in star]
        for i in range(3):
            for j in range(i + 1, 3):
                d = dirs[i][0] * dirs[j][1] - dirs[i][1] * dirs[j][0]
                assert abs(d) == 1


def test_tangent_line_output_balances():
    X = triangle_curve()
    for v in X.vertices:
        assert tangent_line(X, v).is_balanced()


# ---------------------------------------------------------------------------
# min_vertex_distance: the x-sorted sweep against the loop over all pairs

def _min_vertex_distance_all_pairs(vertices):
    best = None
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            d = vsub(vertices[i], vertices[j])
            val = float(d[0]) ** 2 + float(d[1]) ** 2
            if best is None or val < best:
                best = val
    return best ** 0.5 if best is not None else 1.0


def _degree_triangle_curve(d):
    P = LatticePolytope.from_points([(0, 0), (d, 0), (0, d)])
    nu = LiftingFunction({(i, j): i * i + j * j + (i + j) ** 2 for i, j in P.lattice_points})
    return tropical_hypersurface(regular_subdivision(P, nu))


@pytest.mark.parametrize("d", [8, 20])
def test_min_vertex_distance_matches_all_pairs(d):
    X = _degree_triangle_curve(d)
    assert len(X.vertices) == d * d
    assert X.min_vertex_distance() == _min_vertex_distance_all_pairs(X.vertices)


_coordinate = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([-1, Fraction(1, 3), 0, 2]), _coordinate)
                | st.tuples(_coordinate, _coordinate), max_size=30))
def test_min_vertex_distance_sweep_is_the_all_pairs_float(vertices):
    # few distinct x values (or none shared), repeated and coincident vertices
    X = TropicalComplex(vertices, [])
    assert X.min_vertex_distance() == _min_vertex_distance_all_pairs(X.vertices)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0, Fraction(1, 2), 3]),
                          st.fractions(min_value=-6, max_value=6, max_denominator=4)),
                min_size=2, max_size=40))
@example([(0, 0), (0, 3), (0, 1), (Fraction(1, 2), 2), (0, 1)])
def test_min_vertex_distance_compares_only_column_neighbours(vertices):
    # many vertices per column of equal x, repeats among them, and columns
    # close enough that the nearest pair may cross between them
    X = TropicalComplex(vertices, [])
    assert X.min_vertex_distance() == _min_vertex_distance_all_pairs(X.vertices)


# ---------------------------------------------------------------------------
# the exact layer on ints: integral coordinates are ints, the rest Fractions

def _fraction_dual_vertex(cell, nu):
    # the dual vertex in Fractions throughout, as before the int path
    v0 = cell.vertices[0]
    (d1, c1), (d2, c2) = [(vsub(v, v0), nu(v0) - nu(v)) for v in cell.vertices[1:3]]
    det = Fraction(d1[0] * d2[1] - d1[1] * d2[0])
    return ((Fraction(c1) * d2[1] - Fraction(c2) * d1[1]) / det,
            (Fraction(c2) * d1[0] - Fraction(c1) * d2[0]) / det)


def _fraction_point_on_line(d, c):
    return (Fraction(c, d[0]), Fraction(0)) if d[0] else (Fraction(0), Fraction(c, d[1]))


def _fraction_path():
    """Patches that hold every curve coordinate as a Fraction."""
    stack = contextlib.ExitStack()
    for module, name, value in [
            (polyhedral, "_dual_vertex", _fraction_dual_vertex),
            (polyhedral, "_point_on_line", _fraction_point_on_line),
            (tropical, "exact_point", lambda v: tuple(Fraction(x) for x in v))]:
        stack.enter_context(mock.patch.object(module, name, value))
    return stack


def _coordinate_types(X):
    points = list(X.vertices) + [p for e in X.edges for p in e.verts]
    return {type(c) for p in points for c in p}


def _curve_outputs(X, tmp):
    """curve.json's object, the SVG bytes, the default schedule's bytes
    (for a smooth curve) and the smallest vertex distance."""
    path = os.path.join(tmp, "curve.svg")
    draw_curve_and_subdivision(X, path)
    with open(path, "rb") as fh:
        svg = fh.read()
    smooth = is_smooth(X) and X.vertices
    return (_curve_to_json(X), svg, default_schedule(X).to_json() if smooth else None,
            X.min_vertex_distance())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=3, max_size=6),
       st.lists(st.integers(-6, 6), min_size=25, max_size=25))
@example([(0, 0), (3, 0), (0, 3)], [i * i + j * j + (i + j) ** 2 for i in range(4)
                                    for j in range(4 - i)] + [0] * 15)  # smooth, 9 vertices
@example([(0, 0), (1, 2), (2, 1)], [0, 5, 0, 1] + [0] * 21)  # one cell of area 3
def test_int_path_and_fraction_path_give_the_same_curve(points, values):
    # random lifted lattice polygons, unimodular or not: the curve built on
    # ints equals the one built on Fractions, and so do its JSON, its SVG
    # and, where it is smooth, its default schedule
    assume(affine_dim(points) == 2)
    P = LatticePolytope.from_points(points)
    nu = dict(zip(P.lattice_points, values))
    X = tropical_hypersurface(regular_subdivision(P, nu))
    with _fraction_path():
        Y = tropical_hypersurface(regular_subdivision(P, nu))
        assert _coordinate_types(Y) <= {Fraction}
        with tempfile.TemporaryDirectory() as tmp:
            want = _curve_outputs(Y, tmp)
    assert Fraction not in {type(c) for v in X.vertices for c in v if c.denominator == 1}
    assert X.vertices == Y.vertices and X.edges == Y.edges
    assert X.vertex_dual == Y.vertex_dual
    with tempfile.TemporaryDirectory() as tmp:
        assert _curve_outputs(X, tmp) == want


def test_unimodular_curve_has_int_coordinates():
    # the dual vertex of a unimodular cell solves a 2x2 system of
    # determinant +-1, so a smooth curve from an integral lifting lies on
    # int points, and so do the edges and rays that join them
    X = _degree_triangle_curve(8)
    assert is_smooth(X) and len(X.vertices) == 64
    assert _coordinate_types(X) == {int}
    assert {type(c) for e in X.edges for c in e.direction()} == {int}
    lines = tropical_hypersurface(regular_subdivision(
        LatticePolytope.from_points([(0, 0), (2, 0)]), {(0, 0): 0, (1, 0): 0, (2, 0): 1}))
    assert _coordinate_types(lines) == {int}


def test_non_unimodular_cell_keeps_its_fraction():
    # one cell of normalized volume 3 with the lifting 0, 1, 0 at its
    # corners: its dual vertex is (1/3, -2/3)
    P = LatticePolytope.from_points([(0, 0), (1, 2), (2, 1)])
    X = tropical_hypersurface(regular_subdivision(
        P, {(0, 0): 0, (1, 2): 1, (2, 1): 0, (1, 1): 5}))
    assert X.vertices == [(Fraction(1, 3), Fraction(-2, 3))]
    assert _coordinate_types(X) == {Fraction}
    # and an integral point is an int, however it was given
    assert [type(c) for c in exact_point((Fraction(4, 2), 2.0, 3, Fraction(1, 2)))] \
        == [int, int, int, Fraction]
