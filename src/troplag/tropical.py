"""Tropical hypersurfaces/curves as weighted balanced polyhedral complexes.

Curves live in the plane; cells carry exact rational data (Fractions),
weights are positive integers, and each cell of a curve built from a
subdivision keeps the key of its dual subdivision face.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .errors import InputError
from .polyhedral import discrete_legendre, parse_int, primitive, vadd, vsub


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
        self.vertices = [tuple(Fraction(x) for x in v) for v in vertices]
        self.edges = list(edges)
        self.subdivision = subdivision
        self.vertex_dual = vertex_dual or {}
        # per-vertex index: star of each endpoint (edges in list order) and
        # the first position of each vertex
        self._star = {}
        for e in self.edges:
            if e.weight < 1:
                raise InputError("edge weights must be positive integers")
            for p in dict.fromkeys(tuple(p) for p in e.verts):
                self._star.setdefault(p, []).append(e)
        self._index = {}
        for i, v in enumerate(self.vertices):
            self._index.setdefault(v, i)

    @property
    def cells(self):
        return [TropCell("vertex", (v,), dual_key=self.vertex_dual.get(v))
                for v in self.vertices] + self.edges

    def edges_at(self, v):
        return list(self._star.get(tuple(Fraction(x) for x in v), ()))

    def vertex_index(self, v):
        """Position of vertex v in self.vertices."""
        try:
            return self._index[tuple(v)]
        except KeyError:
            raise InputError("vertex not found")

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

    def bounded_edges(self):
        return [e for e in self.edges if e.kind == "segment"]

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
        vs = [tuple(Fraction(str(x)) for x in p) for p in data["vertices"]]
        raw_edges = data.get("edges", [])
        raw_rays = data.get("rays", [])
        weights = data.get("weights")
        if weights is None:
            weights = [1] * (len(raw_edges) + len(raw_rays))
        if len(weights) != len(raw_edges) + len(raw_rays):
            raise InputError("weights length must match edges + rays")
        weights = [parse_int(w, "edge weight") for w in weights]
        segments = [(_vertex_ref(i, vs), _vertex_ref(j, vs)) for i, j in raw_edges]
        rays = [(_vertex_ref(i, vs), primitive(d)) for i, d in raw_rays]
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
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


def tangent_star(X, v):
    """Edges of the star of vertex v and their outgoing primitive
    directions, both in star order, and the cone they span (the tangent
    line, generators in sorted order)."""
    v = tuple(Fraction(x) for x in v)
    if v not in X._index:
        raise InputError(f"vertex {v} not in complex")
    star = X.edges_at(v)
    gens = [X.outgoing_direction(e, v) for e in star]
    order = sorted(range(len(gens)), key=lambda i: gens[i])
    line = TropicalLine(v, tuple(gens[i] for i in order),
                        tuple(star[i].weight for i in order))
    return star, gens, line


def tangent_line(X, v):
    """Cone of the star of vertex v, with primitive generators."""
    return tangent_star(X, v)[2]


@dataclass(frozen=True)
class AffineFrame:
    """Unimodular affine coordinates adapted to a tangent tropical line.

    Base side: x -> A (x - origin); torus side: y -> A^{-T} (y - y0), which
    is the associated automorphism convention of the ambient product.
    """

    origin: tuple
    A: tuple  # ((a,b),(c,d)) integer, |det| = 1

    def apply_linear(self, v):
        (a, b), (c, d) = self.A
        return (a * v[0] + b * v[1], c * v[0] + d * v[1])


def adapted_frame(line):
    """Deterministic adapted frame for a smooth tangent tropical line.

    The generator labelled u0 is the lexicographically smallest; the rest
    are ordered lexicographically and sent to the standard basis.
    """
    if not line.is_smooth():
        raise InputError("line is not smooth; use the covering model instead")
    if not line.is_balanced():
        raise InputError("line is not balanced")
    gens = sorted(line.generators)
    u0, u1, u2 = gens[0], gens[1], gens[2]
    det = u1[0] * u2[1] - u1[1] * u2[0]
    # A = [u1 u2]^{-1} (columns); exact since |det| = 1
    A = ((u2[1] // det, -u2[0] // det), (-u1[1] // det, u1[0] // det))
    frame = AffineFrame(tuple(Fraction(c) for c in line.center), A)
    if frame.apply_linear(u1) != (1, 0) or frame.apply_linear(u2) != (0, 1):
        raise InputError("frame construction failed; generators not unimodular")
    return frame, (u0, u1, u2)
