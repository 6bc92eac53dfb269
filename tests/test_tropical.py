from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from troplag.cli import _curve_to_json
from troplag.errors import InputError
from troplag.polyhedral import (LatticePolytope, LiftingFunction, affine_dim,
                                regular_subdivision, vsub)
from troplag.tropical import (AffineFrame, TropCell, TropicalComplex, TropicalLine,
                              adapted_frame, balancing_check, is_smooth, load_curve_json,
                              tangent_line, tropical_hypersurface)


def triangle_curve():
    P = LatticePolytope.from_points([(0, 0), (1, 2), (2, 1)])
    S = regular_subdivision(P, {(0, 0): 1, (1, 1): 0, (2, 1): 0, (1, 2): 0})
    return tropical_hypersurface(S)


def standard_line():
    P = LatticePolytope.from_points([(0, 0), (1, 0), (0, 1)])
    return tropical_hypersurface(regular_subdivision(P, LiftingFunction.constant(P)))


def F2(a, b):
    return (Fraction(a), Fraction(b))


def test_triangle_curve_vertices_edges_rays():
    X = triangle_curve()
    assert sorted(X.vertices) == [F2(0, 0), F2(0, 1), F2(1, 0)]
    segs = sorted(tuple(sorted(e.verts)) for e in X.bounded_edges())
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
    X2 = tropical_hypersurface(regular_subdivision(P, LiftingFunction.constant(P)))
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


def test_adapted_frame_deterministic_rule():
    # u0 is the lexicographically smallest generator, the rest follow in
    # lexicographic order and are sent to the standard basis
    X = standard_line()
    frame, (u0, u1, u2) = adapted_frame(tangent_line(X, (0, 0)))
    assert (u0, u1, u2) == ((-1, -1), (0, 1), (1, 0))
    assert frame.A == ((0, 1), (1, 0))
    L1 = tangent_line(triangle_curve(), (1, 0))
    frame1, (v0, v1, v2) = adapted_frame(L1)
    assert (v0, v1, v2) == ((-1, 0), (-1, 1), (2, -1))
    assert frame1.A == ((1, 2), (1, 1))
    assert frame1.apply_linear(v1) == (1, 0)
    assert frame1.apply_linear(v2) == (0, 1)
    assert frame1.apply_linear(v0) == (-1, -1)


def test_adapted_frame_invariants():
    for v in [(0, 0), (1, 0), (0, 1)]:
        L = tangent_line(triangle_curve(), v)
        frame, labels = adapted_frame(L)
        (a, b), (c, d) = frame.A
        assert abs(a * d - b * c) == 1
        # conjugation sends the line exactly to the standard line
        images = sorted(frame.apply_linear(g) for g in L.generators)
        assert images == [(-1, -1), (0, 1), (1, 0)]


def test_adapted_frame_rejects_nonsmooth():
    L = TropicalLine((0, 0), ((1, 1), (-2, 1), (1, -2)))
    with pytest.raises(InputError):
        adapted_frame(L)


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
