import itertools
from fractions import Fraction

import pytest
from helpers import constant_lifting, dual_sample_point
from hypothesis import given, settings, strategies as st

from troplag.errors import DegeneracyError, InputError
from troplag.polyhedral import (MAX_LATTICE_POINTS, LatticePolytope, LiftingFunction,
                                affine_dim, cross2, discrete_legendre, dot,
                                enumerate_lattice_points, lattice_point_count,
                                load_polytope_json, regular_subdivision, vadd, vsub)

TRIANGLE = LatticePolytope.from_points([(0, 0), (1, 2), (2, 1)])
TRIANGLE_NU = LiftingFunction({(0, 0): 1, (1, 1): 0, (2, 1): 0, (1, 2): 0})
SIMPLEX = LatticePolytope.from_points([(0, 0), (1, 0), (0, 1)])


def cells_as_sets(S):
    return sorted(sorted(c.vertices) for c in S.cells)


def legendre_value(pa, m):
    """The discrete Legendre transform at m: the least of its affine pieces."""
    return min(dot(v, m) + c for v, c in pa.pieces)


def test_triangle_subdivision_is_the_three_triangles():
    S = regular_subdivision(TRIANGLE, TRIANGLE_NU)
    assert cells_as_sets(S) == [
        [(0, 0), (1, 1), (1, 2)],
        [(0, 0), (1, 1), (2, 1)],
        [(1, 1), (1, 2), (2, 1)],
    ]


def test_constant_lift_gives_single_cell():
    S = regular_subdivision(SIMPLEX, constant_lifting(SIMPLEX))
    assert cells_as_sets(S) == [[(0, 0), (0, 1), (1, 0)]]


def test_segment_with_broken_lift_gives_two_unit_cells():
    P = LatticePolytope.from_points([(0, 0), (2, 0)])
    S = regular_subdivision(P, {(0, 0): 0, (2, 0): 0, (1, 0): -1})
    assert cells_as_sets(S) == [[(0, 0), (1, 0)], [(1, 0), (2, 0)]]


def test_missing_lifting_value_is_input_error():
    with pytest.raises(InputError):
        regular_subdivision(TRIANGLE, LiftingFunction({(0, 0): 1}))


def test_point_polytope_is_degenerate():
    with pytest.raises(DegeneracyError):
        regular_subdivision(LatticePolytope.from_points([(1, 1)]),
                            LiftingFunction({(1, 1): 0}))


def test_non_integral_lifting_rejected():
    with pytest.raises(InputError):
        LiftingFunction({(0, 0): 0.5})


def test_unimodality():
    assert regular_subdivision(TRIANGLE, TRIANGLE_NU).is_unimodal()
    assert regular_subdivision(SIMPLEX, constant_lifting(SIMPLEX)).is_unimodal()
    big = LatticePolytope.from_points([(0, 0), (2, 1), (1, 2)])
    assert not regular_subdivision(big, constant_lifting(big)).is_unimodal()


def test_discrete_legendre_pieces_triangle():
    S = regular_subdivision(TRIANGLE, TRIANGLE_NU)
    pa = discrete_legendre(S)
    assert sorted(pa.pieces) == [((0, 0), 1), ((1, 1), 0), ((1, 2), 0), ((2, 1), 0)]
    assert legendre_value(pa, (5, 7)) == min(1, 5 + 7, 10 + 7, 5 + 14)
    assert legendre_value(pa, (-3, -4)) == min(1, -7, -10, -11)


def test_discrete_legendre_standard_simplex():
    S = regular_subdivision(SIMPLEX, constant_lifting(SIMPLEX))
    pa = discrete_legendre(S)
    assert sorted(pa.pieces) == [((0, 0), 0), ((0, 1), 0), ((1, 0), 0)]
    assert legendre_value(pa, (2, 3)) == 0
    assert legendre_value(pa, (-1, 5)) == -1


def test_constant_shift_keeps_argmin_structure():
    S0 = regular_subdivision(SIMPLEX, constant_lifting(SIMPLEX, 0))
    S5 = regular_subdivision(SIMPLEX, constant_lifting(SIMPLEX, 5))
    pa0, pa5 = discrete_legendre(S0), discrete_legendre(S5)
    for m in [(0, 0), (3, -2), (-1, -1), (7, 7)]:
        assert legendre_value(pa5, m) == legendre_value(pa0, m) + 5
        assert ([v for v, c in sorted(pa5.pieces) if dot(v, m) + c == legendre_value(pa5, m)]
                == [v for v, c in sorted(pa0.pieces) if dot(v, m) + c == legendre_value(pa0, m)])


def _brute_force_min(poly, nu, m):
    return min(dot(v, m) + nu(v) for v in poly.lattice_points)


def test_lower_hull_matches_brute_force_on_grid():
    S = regular_subdivision(TRIANGLE, TRIANGLE_NU)
    pa = discrete_legendre(S)
    count = 0
    for a in range(-36, 36):
        for b in range(-36, 36):
            for den in (1, 3):
                m = (Fraction(a, den), Fraction(b, den))
                assert legendre_value(pa, m) == _brute_force_min(TRIANGLE, TRIANGLE_NU, m)
                count += 1
    assert count >= 10_000


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       st.integers(0, 10**6))
def test_lower_hull_matches_brute_force_random_lifts(vals, probe_seed):
    pts = list(TRIANGLE.lattice_points)
    nu = LiftingFunction(dict(zip(pts, vals)))
    S = regular_subdivision(TRIANGLE, nu)
    pa = discrete_legendre(S)
    m = (Fraction(probe_seed % 101 - 50, 7), Fraction(probe_seed % 97 - 48, 5))
    assert legendre_value(pa, m) == _brute_force_min(TRIANGLE, nu, m)


def test_duality_dimensions_complementary():
    for S in (regular_subdivision(TRIANGLE, TRIANGLE_NU),
              regular_subdivision(LatticePolytope.from_points([(0, 0), (2, 0)]),
                                  LiftingFunction({(0, 0): 0, (1, 0): 0, (2, 0): 0}))):
        pa = discrete_legendre(S)
        for f in S.faces(1) + S.faces(2):  # the faces dual to curve cells
            dc = pa.dual_of(f)
            dual_dim = affine_dim(list(dc.verts) + [vadd(dc.verts[0], r) for r in dc.rays])
            assert f.dim + dual_dim == 2


def test_dual_edge_lies_in_orthogonal_hyperplane():
    S = regular_subdivision(TRIANGLE, TRIANGLE_NU)
    pa = discrete_legendre(S)
    for f in S.faces(1):
        v1, v2 = f.vertices[0], f.vertices[-1]
        target = TRIANGLE_NU(v2) - TRIANGLE_NU(v1)
        dc = pa.dual_of(f)
        probes = list(dc.verts)
        if dc.rays:
            probes.append(tuple(Fraction(a) + 7 * r for a, r in zip(dc.verts[0], dc.rays[0])))
        probes.append(dual_sample_point(dc))
        for m in probes:
            assert dot(vsub(v1, v2), m) == target


def test_cells_cover_polytope_lattice_points():
    S = regular_subdivision(TRIANGLE, TRIANGLE_NU)
    covered = set()
    for c in S.cells:
        covered.update(c.lattice_points)
    assert covered == set(TRIANGLE.lattice_points)


def test_pairwise_cell_intersections_are_faces():
    S = regular_subdivision(TRIANGLE, TRIANGLE_NU)
    for c1, c2 in itertools.combinations(S.cells, 2):
        common = set(c1.vertices) & set(c2.vertices)
        if len(common) == 2:
            a, b = sorted(common)
            assert frozenset({a, b}) in {f.key for f in S.faces(1)}


def test_json_loader_and_default_zero():
    data = {"vertices": [[0, 0], [1, 0], [0, 1]], "lifting": {"0,0": 0}}
    with pytest.raises(InputError):
        load_polytope_json(data)
    poly, nu = load_polytope_json(data, default_zero=True)
    assert nu((1, 0)) == 0 and nu((0, 0)) == 0
    with pytest.raises(InputError):
        load_polytope_json({"vertices": "nope"})


def test_vertices_are_extreme_points_only():
    P = LatticePolytope.from_points([(0, 0), (2, 0), (1, 0), (0, 2), (1, 1)])
    assert sorted(P.vertices) == [(0, 0), (0, 2), (2, 0)]
    assert (1, 1) in P.lattice_points


# ---------------------------------------------------------------------------
# exact lower-hull walk against the brute force over all lattice triples

def _affine_through(tri, vals):
    (x1, y1), (x2, y2), (x3, y3) = tri
    det = Fraction((x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1))
    v1, v2, v3 = (Fraction(vals[t]) for t in tri)
    a = ((v2 - v1) * (y3 - y1) - (v3 - v1) * (y2 - y1)) / det
    b = ((x2 - x1) * (v3 - v1) - (x3 - x1) * (v2 - v1)) / det
    c = v1 - a * x1 - b * y1
    return a, b, c


def _lower_hull_2d(pts, vals):
    """Every affine function through three lifted lattice points that is a
    minorant of the lift gives the cell of its equality set."""
    pieces = {}
    for tri in itertools.combinations(pts, 3):
        if cross2(*tri) == 0:
            continue
        a, b, c = _affine_through(tri, vals)
        if (a, b, c) in pieces:
            continue
        if all(a * p[0] + b * p[1] + c <= vals[p] for p in pts):
            pieces[(a, b, c)] = [p for p in pts if a * p[0] + b * p[1] + c == vals[p]]
    cells = [LatticePolytope.from_points(supp) for supp in pieces.values()]
    out = {c.key: c for c in cells if c.dim == 2}  # several triples give one cell
    return sorted(out.values(), key=lambda c: sorted(c.vertices))


def _oracle_cells(poly, nu):
    pts = list(poly.lattice_points)
    return _lower_hull_2d(pts, {p: nu(p) for p in pts})


def _degree_triangle(d):
    """The benchmark's degree-d triangle lifted by i^2 + j^2 + (i+j)^2."""
    P = LatticePolytope.from_points([(0, 0), (d, 0), (0, d)])
    return P, LiftingFunction({(i, j): i * i + j * j + (i + j) ** 2
                               for i, j in P.lattice_points})


def _unit_triangles(d):
    """The d^2 unit triangles of the degree-d triangle cut by the lines
    x = i, y = j and x + y = k, in the order of regular_subdivision."""
    cells = []
    for i in range(d):
        for j in range(d - i):
            cells.append(LatticePolytope.from_points([(i, j), (i + 1, j), (i, j + 1)]))
            if i + j < d - 1:
                cells.append(LatticePolytope.from_points(
                    [(i + 1, j), (i, j + 1), (i + 1, j + 1)]))
    return sorted(cells, key=lambda c: sorted(c.vertices))


LIFTS = {
    "generic": lambda p, r: r.randint(-6, 6),
    "zero_one": lambda p, r: r.randint(0, 1),
    "flat": lambda p, r: 3,
    "affine": lambda p, r: 2 * p[0] - 3 * p[1] + 5,
    "quadratic": lambda p, r: p[0] ** 2 + p[0] * p[1] + 2 * p[1] ** 2,
    "above_2_53": lambda p, r: 10**20 + r.randint(0, 3),
    # floats round these to the affine 2^60 x: only integers see the cells
    "above_2_60": lambda p, r: 2**60 * p[0] + r.randint(0, 1),
}


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                min_size=3, max_size=6),
       st.sampled_from(sorted(LIFTS)), st.randoms(use_true_random=False))
def test_lower_hull_matches_oracle(points, kind, rnd):
    from hypothesis import assume
    P = LatticePolytope.from_points(points)
    assume(P.dim == 2 and len(P.lattice_points) <= 28)
    nu = LiftingFunction({p: LIFTS[kind](p, rnd) for p in P.lattice_points})
    S = regular_subdivision(P, nu)
    assert S.cells == _oracle_cells(P, nu)
    # the face table builds edges and points without a hull
    for f in S.faces():
        assert f == LatticePolytope.from_points(f.vertices)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=6))
def test_pick_count_is_the_number_of_listed_lattice_points(points):
    # polygons, segments and points alike
    P = LatticePolytope.from_points(points)
    assert lattice_point_count(P.vertices) == len(P.lattice_points)
    assert len(enumerate_lattice_points(list(P.vertices))) == len(P.lattice_points)


@pytest.mark.parametrize("vertices, count", [
    ([(0, 0), (300000, 0), (0, 1)], 300002),
    ([(0, 0), (99, 0), (0, 99)], 5050),
    ([(0, 0), (5000, 0)], 5001),
    ([(0,), (5000,)], 5001),
])
def test_polytope_above_the_lattice_point_limit_is_refused_before_listing(vertices, count):
    # it used to list every point first: 0.6 s and 65 MB for the thin
    # triangle before its exit-2 message
    from unittest import mock
    with mock.patch("troplag.polyhedral.enumerate_lattice_points",
                    side_effect=AssertionError("listed")):
        with pytest.raises(InputError, match=f"holds {count} lattice points, more than "
                                             f"{MAX_LATTICE_POINTS}"):
            LatticePolytope.from_points(vertices)
    assert len(LatticePolytope.from_points([(0, 0), (98, 0), (0, 98)]).lattice_points) == 4950


def _rescaled(P, nu, k, a, b, c):
    return LiftingFunction({p: k * nu(p) + a * p[0] + b * p[1] + c
                            for p in P.lattice_points})


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                min_size=3, max_size=6),
       st.randoms(use_true_random=False),
       st.integers(1, 2**70), st.integers(-2**70, 2**70), st.integers(-2**70, 2**70),
       st.integers(-2**70, 2**70))
def test_cells_are_invariant_under_scaling_and_affine_terms(points, rnd, k, a, b, c):
    # k nu + (affine) has the same lower hull cells as nu for any k > 0
    from hypothesis import assume
    P = LatticePolytope.from_points(points)
    assume(P.dim == 2)
    nu = LiftingFunction({p: rnd.randint(-6, 6) for p in P.lattice_points})
    cells = regular_subdivision(P, nu).cells
    assert regular_subdivision(P, _rescaled(P, nu, k, a, b, c)).cells == cells


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 2**70), st.integers(-2**70, 2**70), st.integers(-2**70, 2**70),
       st.integers(-2**70, 2**70))
def test_degree_8_cells_are_invariant_under_scaling_and_affine_terms(k, a, b, c):
    P, nu = _degree_triangle(8)
    assert regular_subdivision(P, _rescaled(P, nu, k, a, b, c)).cells == _unit_triangles(8)


def test_polytope_fixtures_match_oracle():
    from troplag.fixtures import _load, fixture_names
    names = [n for n in fixture_names() if _load(n).get("type") == "polytope"]
    planar = 0
    for name in names:
        P, nu = load_polytope_json(_load(name))
        if P.dim == 2:  # weight2_segment is a segment: the exact 1-d chain
            planar += 1
            assert regular_subdivision(P, nu).cells == _oracle_cells(P, nu), name
    assert planar == 3


def test_degree_20_triangle_is_unimodular_through_the_hull():
    P, nu = _degree_triangle(20)
    S = regular_subdivision(P, nu)
    assert S.cells == _unit_triangles(20)
    assert len(S.cells) == 400 and S.is_unimodal()
    assert sum(c.normalized_volume() for c in S.cells) == 400 == P.normalized_volume()


def test_constant_lift_on_degree_20_triangle_skips_brute_force():
    # the walk finds the single cell P from one plane; no triple search
    P, _ = _degree_triangle(20)
    S = regular_subdivision(P, constant_lifting(P, 7))
    assert S.cells == [LatticePolytope.from_points(P.lattice_points)]


def test_benchmark_triangle_and_triangle_fixture_are_certified():
    # "certified" now means exact: the cells equal the brute force's
    from troplag.fixtures import _load
    P, nu = _degree_triangle(8)
    S = regular_subdivision(P, nu)
    assert len(S.cells) == 64
    assert S.cells == _oracle_cells(P, nu) == _unit_triangles(8)
    P, nu = load_polytope_json(_load("triangle"))
    assert regular_subdivision(P, nu).cells == _oracle_cells(P, nu)


def test_lift_above_2_53_is_certified():
    P, nu = _degree_triangle(4)
    big = LiftingFunction({p: 10**20 + nu(p) for p in P.lattice_points})
    assert regular_subdivision(P, big).cells == regular_subdivision(P, nu).cells
    assert regular_subdivision(P, big).cells == _unit_triangles(4)


def test_float_flat_lift_falls_back_to_brute_force():
    # 2^60 x + (0 or 1) rounds to the affine 2^60 x in floating point;
    # the integer walk still sees the fold at (1, 1)
    nu = LiftingFunction({p: 2**60 * p[0] + (p == (1, 1)) for p in TRIANGLE.lattice_points})
    S = regular_subdivision(TRIANGLE, nu)
    assert S.cells == _oracle_cells(TRIANGLE, nu)
    assert S.cells == [TRIANGLE]
