"""Tropical hypersurfaces/curves as weighted balanced polyhedral complexes.

Curves live in the plane; cells carry exact rational data (ints where a
coordinate is integral, Fractions otherwise), weights are positive
integers, and each cell of a curve built from a subdivision keeps the key
of its dual subdivision face.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .errors import InputError
from .polyhedral import (discrete_legendre, exact_point, parse_int, plane_point, primitive,
                         vadd, vsub)


@dataclass(frozen=True)
class TropCell:
    """A cell of a tropical complex.

    kind: "vertex" | "segment" | "ray" | "line".
    verts: tuple of rational points (1 or 2); rays: primitive directions.
    weight: positive integer, meaningful on top-dimensional cells.
    dual_key: vertex-set key of the dual subdivision face, if known.
    """

    kind: str
    verts: tuple
    rays: tuple = ()
    weight: int = 1
    dual_key: frozenset | None = None

    def __post_init__(self):
        # the primitive direction of a 1-cell, computed once
        d = (primitive(vsub(self.verts[1], self.verts[0])) if self.kind == "segment"
             else self.rays[0] if self.rays else None)
        object.__setattr__(self, "_direction", d)

    def direction(self):
        """Primitive direction of a 1-cell: from verts[0] to verts[1] for a
        segment, rays[0] otherwise."""
        return self._direction


class TropicalComplex:
    """Weighted polyhedral complex in the plane with optional duality data:
    the inducing subdivision and, per vertex, the key of its dual face."""

    def __init__(self, vertices, edges, subdivision=None, vertex_dual=None):
        self.vertices = [exact_point(v) for v in vertices]
        self.edges = list(edges)
        self.subdivision = subdivision
        self.vertex_dual = vertex_dual or {}
        # star of each endpoint, edges in list order
        self._star = {}
        for e in self.edges:
            if e.weight < 1:
                raise InputError("edge weights must be positive integers")
            for p in dict.fromkeys(tuple(p) for p in e.verts):
                self._star.setdefault(p, []).append(e)
        self._vertex_set = frozenset(self.vertices)

    @property
    def cells(self):
        return [TropCell("vertex", (v,), dual_key=self.vertex_dual.get(v))
                for v in self.vertices] + self.edges

    def edges_at(self, v):
        return list(self._star.get(tuple(v), ()))

    def outgoing_direction(self, e, v):
        """Primitive direction of edge e pointing away from vertex v."""
        d = e.direction()
        if e.kind == "segment" and e.verts[0] != tuple(v):
            return tuple(-x for x in d)
        return d

    def dual_cell(self, cell):
        """Subdivision face dual to a curve cell (requires duality data)."""
        if self.subdivision is None or cell.dual_key is None:
            raise InputError("complex has no duality data")
        return self.subdivision.face(cell.dual_key)

    def unbounded_edges(self):
        return [e for e in self.edges if e.kind in ("ray", "line")]

    def lift_ends(self):
        """(punctures, components) of the lifted surface: a ray of weight w
        ends in w punctures; a line of weight w lifts to w parallel
        cylinders, so 2w punctures, and the w cylinders are the components
        of a curve without vertices (a curve with vertices is connected)."""
        p = sum(e.weight * (2 if e.kind == "line" else 1) for e in self.unbounded_edges())
        c = sum(e.weight for e in self.edges if e.kind == "line") if not self.vertices else 1
        return p, c

    def min_vertex_distance(self):
        """Smallest distance between two vertices (1.0 with fewer than two).

        A sweep in exact (x, y) order.  Within a column of equal x, a vertex
        is compared only with the next one, since the later ones lie farther
        up.  Past its column, a row stops at the first vertex whose x gap
        alone, squared as a float, exceeds the best squared distance so far,
        since later vertices are no closer in x.  The skipped pairs cannot be
        nearer, so the result is the same float as a loop over all pairs."""
        vs = sorted(self.vertices)
        n = len(vs)
        column_end = [n] * n  # index of the first vertex right of vs[i]'s column
        for i in range(n - 2, -1, -1):
            column_end[i] = column_end[i + 1] if vs[i + 1][0] == vs[i][0] else i + 1
        best = None
        for i, a in enumerate(vs):
            end = column_end[i]
            for j in chain(range(i + 1, min(i + 2, end)), range(end, n)):
                d = vsub(vs[j], a)
                dx = float(d[0]) ** 2
                if best is not None and dx > best:
                    break
                val = dx + float(d[1]) ** 2
                if best is None or val < best:
                    best = val
        return best ** 0.5 if best is not None else 1.0


def tropical_hypersurface(subdivision):
    """Tropical curve dual to a regular subdivision: the corner locus of
    the discrete Legendre transform, with weights = lattice lengths."""
    pa = discrete_legendre(subdivision)
    S = subdivision
    verts = []
    vertex_dual = {}
    edges = []
    if S.top_dim == 2:
        for f in S.faces(2):
            dc = pa.dual_of(f)
            verts.append(dc.verts[0])
            vertex_dual[dc.verts[0]] = f.key
        for f in S.faces(1):
            dc = pa.dual_of(f)
            w = f.normalized_volume()
            if dc.rays:
                edges.append(TropCell("ray", dc.verts, dc.rays, w, f.key))
            else:
                if dc.verts[0] == dc.verts[1]:
                    raise InputError("degenerate dual edge; subdivision invalid")
                edges.append(TropCell("segment", dc.verts, (), w, f.key))
    else:
        for f in S.faces(1):
            dc = pa.dual_of(f)
            w = f.normalized_volume()
            edges.append(TropCell("line", dc.verts, dc.rays, w, f.key))
    return TropicalComplex(verts, edges, S, vertex_dual)


def load_curve_json(data):
    """Direct curve input, bypassing a polytope.

    {"vertices": [[x,y],...], "edges": [[i,j],...],
     "rays": [[i,[dx,dy]],...], "weights": [w,...]}
    weights align with edges followed by rays; omitted -> all 1.
    Balancing is checked on load.
    """
    try:
        vs = [plane_point(exact_point(Fraction(str(x)) for x in p), "curve vertex")
              for p in data["vertices"]]
        raw_edges = data.get("edges", [])
        raw_rays = data.get("rays", [])
        weights = data.get("weights")
        if weights is None:
            weights = [1] * (len(raw_edges) + len(raw_rays))
        if len(weights) != len(raw_edges) + len(raw_rays):
            raise InputError("weights length must match edges + rays")
        weights = [parse_int(w, "edge weight") for w in weights]
        segments = [(_vertex_ref(i, vs), _vertex_ref(j, vs)) for i, j in raw_edges]
        rays = [(_vertex_ref(i, vs), primitive(plane_point(d, "ray direction")))
                for i, d in raw_rays]
    except InputError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # Fraction(inf) overflows
        raise InputError(f"bad curve JSON: {exc}")
    edges = [TropCell("segment", (vs[i], vs[j]), (), w)
             for (i, j), w in zip(segments, weights)]
    edges += [TropCell("ray", (vs[i],), (d,), w)
              for (i, d), w in zip(rays, weights[len(segments):])]
    X = TropicalComplex(vs, edges)
    if not balancing_check(X):
        raise InputError("curve is not balanced")
    return X


def _vertex_ref(i, vs):
    """Index i into the vertex list vs, range-checked (no negative
    indexing)."""
    i = parse_int(i, "vertex index")
    if not 0 <= i < len(vs):
        raise InputError(f"vertex index {i} out of range for {len(vs)} vertices")
    return i


def balancing_check(X):
    """Weighted primitive directions at every vertex sum to zero."""
    return all(tangent_line(X, v).is_balanced() for v in X.vertices)


def is_smooth(X):
    """Smoothness: the dual subdivision is unimodal.

    For directly-input curves (no subdivision) the equivalent local test
    is used: all weights 1 (a line has no vertex to check it at), and
    every vertex's tangent line is smooth (trivalent, pairwise unimodular
    outgoing directions).
    """
    if X.subdivision is not None:
        return X.subdivision.is_unimodal()
    return (all(e.weight == 1 for e in X.edges)
            and all(tangent_line(X, v).is_smooth() for v in X.vertices))


@dataclass(frozen=True)
class TropicalLine:
    """Cone over a vertex star: center plus n+2 primitive ray generators."""

    center: tuple
    generators: tuple  # primitive integer directions, weights implicit 1
    weights: tuple = None

    def __post_init__(self):
        if self.weights is None:
            object.__setattr__(self, "weights", (1,) * len(self.generators))

    def is_balanced(self):
        s = (0, 0)
        for w, g in zip(self.weights, self.generators):
            s = vadd(s, (w * g[0], w * g[1]))
        return not any(s)

    def is_smooth(self):
        gs = self.generators
        if len(gs) != 3 or any(w != 1 for w in self.weights):
            return False
        for i in range(3):
            for j in range(i + 1, 3):
                if abs(gs[i][0] * gs[j][1] - gs[i][1] * gs[j][0]) != 1:
                    return False
        return True


def tangent_line(X, v):
    """Cone of the star of vertex v, with its primitive generators (the
    outgoing directions) in sorted order."""
    v = exact_point(v)
    if v not in X._vertex_set:
        raise InputError(f"vertex {v} not in complex")
    star = sorted(((X.outgoing_direction(e, v), e.weight) for e in X.edges_at(v)),
                  key=lambda g: g[0])
    return TropicalLine(v, tuple(g for g, _ in star), tuple(w for _, w in star))


def vertex_frames(X):
    """The integral frames of the vertices of a smooth curve with duality
    data, in ints: three lists indexed like X.vertices.  Per vertex, its
    outgoing primitive directions in sorted order (u0, u1, u2), the indices
    in X.edges of their edges in the same order, and v0, the one point of
    the dual keys (vertex sets) of the edges of legs 1 and 2.  The frame
    B = [u1 u2] is unimodular and sends (-1, -1) to u0.  InputError unless
    every vertex is trivalent with weights 1, |det(u1, u2)| = 1 and its
    star balanced, and its legs' edges carry dual keys."""
    index = {id(e): i for i, e in enumerate(X.edges)}
    dirs, legs, v0s = [], [], []
    for v in X.vertices:
        star = sorted((X.outgoing_direction(e, v), index[id(e)]) for e in X.edges_at(v))
        u = tuple(d for d, _ in star)
        if (len(u) != 3 or any(X.edges[i].weight != 1 for _, i in star)
                or abs(u[1][0] * u[2][1] - u[1][1] * u[2][0]) != 1):
            raise InputError("line is not smooth; use the covering model instead")
        if any(a + b + c for a, b, c in zip(*u)):
            raise InputError("line is not balanced")
        k1, k2 = (X.edges[i].dual_key for _, i in star[1:])
        if k1 is None or k2 is None:
            raise InputError("complex has no duality data")
        common = k1 & k2
        if len(common) != 1:
            raise InputError("dual edges of the two frame legs do not share a vertex")
        dirs.append(u)
        legs.append(tuple(i for _, i in star))
        v0s.append(next(iter(common)))
    return dirs, legs, v0s
