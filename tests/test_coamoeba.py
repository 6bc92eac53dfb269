import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from troplag.coamoeba import (EPS_FACE, PI, CellCoamoeba, Coamoeba, CoveringCoamoeba, EdgeFiber,
                              FlatTorus, r_apply, reduce_mod_pi, rstar_apply)
from troplag.errors import InputError
from troplag.polyhedral import LatticePolytope
from troplag.tropical import TropicalLine


# ---------------------------------------------------------------------------
# flat torus

def test_reduce_idempotent_and_distance():
    T = FlatTorus(2)
    y = np.array([7.3, -2.1])
    r1 = reduce_mod_pi(y)
    assert np.allclose(reduce_mod_pi(r1), r1)
    assert np.all((r1 >= 0) & (r1 < PI))
    # distance is the minimum over deck translates
    a, b = np.array([0.05, 0.0]), np.array([PI - 0.05, 0.0])
    assert T.distance(a, b) == pytest.approx(0.1)


@settings(max_examples=50, deadline=None)
@given(st.floats(-20, 20), st.floats(-20, 20))
def test_distance_symmetric_and_translate_invariant(a, b):
    T = FlatTorus(1)
    d1 = T.distance(np.array([a]), np.array([b]))
    d2 = T.distance(np.array([b]), np.array([a]))
    d3 = T.distance(np.array([a + PI]), np.array([b]))
    assert d1 == pytest.approx(d2, abs=1e-12)
    assert d1 == pytest.approx(d3, abs=1e-9)


# ---------------------------------------------------------------------------
# the standard coamoeba

def test_membership_examples():
    C = Coamoeba(1)
    inside = [[PI / 6, PI / 6], [-PI / 6, -PI / 6],  # the open halves
              [PI / 2, 0.0], [0.0, PI / 2], [PI, PI],  # the vertices, mod pi
              [PI / 4, PI / 4], [0.4, 0.0], [0.0, -0.4]]  # faces of both halves
    outside = [[PI / 2 + 0.4, PI / 2 + 0.3], [PI / 4 + 1e-6, PI / 4 + 1e-6], [0.4, -0.5]]
    assert C.contains(inside).all()
    assert not C.contains(outside).any()
    assert C.contains([PI / 6, PI / 6]).shape == (1,)
    # on the face plane y_1 = 0 of E_1, but in neither closed half
    assert not Coamoeba(2).contains([0.0, 0.5, 1.3])[0]


def test_whole_circle_when_n_is_zero():
    C = Coamoeba(0)
    assert C.contains(np.linspace(0, PI, 37, endpoint=False)[:, None]).all()


def test_vertex_count():
    for n in (0, 1, 2, 3):
        assert len(Coamoeba(n).vertices) == n + 2


def test_points_near_a_vertex_are_contained():
    # within EPS_FACE / 2 of a vertex, or of the vertex plus a multiple of
    # pi, each coordinate moves by at most EPS_FACE / 2 and their sum by at
    # most sqrt(n + 1) EPS_FACE / 2 <= EPS_FACE for n <= 3: the point is in
    # both closed halves widened by EPS_FACE
    rng = np.random.default_rng(11)
    for n in (0, 1, 2, 3):
        C = Coamoeba(n)
        d = rng.normal(size=(20_000, n + 1))
        d *= EPS_FACE / 2 * rng.uniform(0.0, 1.0, (len(d), 1)) / np.linalg.norm(
            d, axis=1, keepdims=True)
        shift = PI * rng.integers(-2, 3, size=d.shape)
        for v in C.vertices:
            assert C.contains(v + shift + d).all()


def test_membership_iota_equivariant():
    C = Coamoeba(2)
    pts = C.sample_interior(50, seed=4)
    assert C.contains(pts).all() and C.contains(-pts).all()
    face_pt = (1.0 * C.vertices[0] + 1.1 * C.vertices[2] + 1.2 * C.vertices[3]) / 3.3  # in E_{1}
    assert C.contains(np.stack([face_pt, -face_pt])).all()
    # y -> -y maps the coamoeba onto itself, points outside it too
    ys = np.random.default_rng(3).uniform(0, PI, (400, 3))
    inside = C.contains(ys)
    assert 0 < inside.sum() < len(ys)
    assert np.array_equal(C.contains(-ys), inside)


# ---------------------------------------------------------------------------
# symmetries

def test_rstar_explicit_formula():
    assert np.allclose(rstar_apply(1, 1, np.array([1.0, 2.0])), [-1.0, 1.0])
    x = np.array([0.3, -0.7, 1.1])
    out = rstar_apply(2, 2, x)
    assert np.allclose(out, [0.3 + 0.7, 0.7, 1.1 + 0.7])


def test_symmetry_exchanges_vertices():
    for n in (1, 2):
        C = Coamoeba(n)
        for k in range(1, n + 2):
            assert np.allclose(r_apply(n, k, C.vertices[0]), C.vertices[k])
            assert np.allclose(r_apply(n, k, C.vertices[k]), C.vertices[0])
            for j in range(1, n + 2):
                if j != k:
                    assert np.allclose(r_apply(n, k, C.vertices[j]), C.vertices[j])


def test_symmetry_is_involution():
    y = np.array([0.31, 0.42])
    assert np.allclose(r_apply(1, 2, r_apply(1, 2, y)), y)
    x = np.array([0.3, -0.7, 1.1])
    assert np.allclose(rstar_apply(2, 3, rstar_apply(2, 3, x)), x)


def test_rstar_permutes_ray_generators():
    # R*_k exchanges u_0 and u_k and fixes the other generators
    n = 2
    us = {0: -np.ones(3), 1: np.eye(3)[0], 2: np.eye(3)[1], 3: np.eye(3)[2]}
    for k in (1, 2, 3):
        for j, u in us.items():
            img = rstar_apply(n, k, u)
            tj = 0 if j == k else (k if j == 0 else j)
            assert np.allclose(img, us[tj])


def test_faces_permute_under_symmetry():
    # R_k maps the coamoeba onto itself: the faces E_J into it, and every
    # other point in or out as it was
    C = Coamoeba(2)
    ys = np.random.default_rng(5).uniform(0, PI, (400, 3))
    inside = C.contains(ys)
    assert 0 < inside.sum() < len(ys)
    for k in (1, 2, 3):
        assert np.array_equal(C.contains(r_apply(2, k, ys)), inside)
        for J in (frozenset({0}), frozenset({1}), frozenset({0, 2}), frozenset({3})):
            # a relative-interior point of E_J: a positive combination of
            # the vertices p_l, l not in J
            ks = [l for l in range(4) if l not in J]
            w = np.array([1.0, 2.0, 3.0][:len(ks)])
            y = (w[:, None] * C.vertices[ks]).sum(axis=0) / w.sum()
            assert C.contains(r_apply(2, k, y))[0]


# ---------------------------------------------------------------------------
# cell coamoebas

def test_two_cell_coamoeba_is_sheared_standard():
    cc = CellCoamoeba(LatticePolytope.from_points([(0, 0), (1, 1), (2, 1)]))
    # midpoint of the cell scaled by pi/2 is interior
    mid = np.array([1.0, 2.0 / 3.0]) * PI / 2
    assert cc.contains(mid) and cc.contains(-mid)
    for v in [(0, 0), (1, 1), (2, 1)]:
        assert cc.contains(np.array(v, dtype=float) * PI / 2)
    # just past the edge from (0, 0) to (2, 1), on both halves
    past = np.array([1.0, 0.5 - 1e-6]) * PI / 2
    assert not cc.contains(past) and not cc.contains(-past)


def test_simplex_cell_coamoeba_matches_standard():
    cc = CellCoamoeba(LatticePolytope.from_points([(0, 0), (1, 0), (0, 1)]))
    C = Coamoeba(1)
    ys = np.vstack([[PI / 6, PI / 6], [PI / 2, 0.0], [2.0, 2.0], [-0.2, -0.2],
                    np.random.default_rng(7).uniform(0, PI, (400, 2))])
    inside = C.contains(ys)
    assert 0 < inside.sum() < len(ys)
    assert np.array_equal(cc.contains(ys), inside)


def test_cell_coamoeba_rejects_points():
    # and edges, whose fibers in a PL lift are EdgeFibers
    for points in ([(1, 1)], [(1, 1), (2, 1)]):
        with pytest.raises(InputError):
            CellCoamoeba(LatticePolytope.from_points(points))


# ---------------------------------------------------------------------------
# coverings

@pytest.mark.parametrize("gens, weights, degree", [
    (((1, 0), (0, 1), (-1, -1)), (1, 1, 1), 1),
    (((1, 1), (-2, 1), (1, -2)), (1, 1, 1), 3),
    (((1, 0), (0, 1), (-1, -1)), (2, 2, 2), 4),
], ids=["standard_line", "degree_three", "weight_two"])
def test_covering_degree_is_det(gens, weights, degree):
    # the degree of the covering of tori is |det B|, computed here in integers
    cov = CoveringCoamoeba(TropicalLine((0, 0), gens, weights))
    (a, b), (c, d) = cov.B.tolist()
    assert cov.degree == degree == abs(a * d - b * c)


def test_covering_requires_balance():
    with pytest.raises(InputError):
        CoveringCoamoeba(TropicalLine((0, 0), ((1, 0), (0, 1), (-1, -2))))


def test_edge_fiber_circle_counts():
    f1 = EdgeFiber((0, 1), PI / 2, 1, (1, 0))
    assert len(f1.circles()) == 1
    f2 = EdgeFiber((0, 1), 0.0, 2, (1, 0))
    circ = f2.circles()
    assert len(circ) == 2
    offs = sorted(float(b[1]) for b, _ in circ)
    assert offs == pytest.approx([0.0, PI / 2])
