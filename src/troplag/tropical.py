"""Tropical hypersurfaces/curves as weighted balanced polyhedral complexes.

Curves live in the plane; cells carry exact rational data (ints where a
coordinate is integral, Fractions otherwise), weights are positive
integers, and each cell of a curve built from a subdivision keeps the key
of its dual subdivision face.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations

from .errors import InputError
from .polyhedral import discrete_legendre, exact_point, parse_int, plane_point, primitive, vsub


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
        if any(e.weight < 1 for e in self.edges):
            raise InputError("edge weights must be positive integers")

    @property
    def cells(self):
        return [TropCell("vertex", (v,), dual_key=self.vertex_dual.get(v))
                for v in self.vertices] + self.edges

    @cached_property
    def stars(self):
        """The star of each vertex, in X.vertices order: per segment and ray
        at the vertex one leg (outgoing primitive direction, index in
        X.edges, weight), sorted by direction and then by index."""
        legs = {v: [] for v in self.vertices}
        for i, e in enumerate(self.edges):
            if e.kind == "line":
                continue
            d = e.direction()
            legs[tuple(e.verts[0])].append((d, i, e.weight))
            if e.kind == "segment":
                legs[tuple(e.verts[1])].append(((-d[0], -d[1]), i, e.weight))
        return [sorted(legs[v]) for v in self.vertices]

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
     "rays": [[i,[dx,dy]],...], "lines": [[[x,y],[dx,dy]],...],
     "weights": [w,...]}
    weights align with edges, then rays, then lines; omitted -> all 1.
    A line passes through (x, y) both ways along (dx, dy); lines must be
    parallel, in a curve without vertices.  InputError for a vertex listed
    twice; balancing is checked on load.
    """
    try:
        vs = [_point(p, "curve vertex") for p in data["vertices"]]
        raw_edges = data.get("edges", [])
        raw_rays = data.get("rays", [])
        raw_lines = data.get("lines", [])
        weights = data.get("weights")
        n = len(raw_edges) + len(raw_rays) + len(raw_lines)
        if weights is None:
            weights = [1] * n
        if len(weights) != n:
            raise InputError("weights length must match edges + rays + lines")
        weights = [parse_int(w, "edge weight") for w in weights]
        segments = [(_vertex_ref(i, vs), _vertex_ref(j, vs)) for i, j in raw_edges]
        rays = [(_vertex_ref(i, vs), primitive(plane_point(d, "ray direction")))
                for i, d in raw_rays]
        lines = [(_point(p, "line point"), primitive(plane_point(d, "line direction")))
                 for p, d in raw_lines]
    except InputError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # Fraction(inf) overflows
        raise InputError(f"bad curve JSON: {exc}")
    if len(set(vs)) < len(vs):
        raise InputError(f"curve vertex {next(v for v in vs if vs.count(v) > 1)} is listed twice")
    if lines and (vs or len({max(d, (-d[0], -d[1])) for _, d in lines}) > 1):
        raise InputError("lines must be parallel, in a curve without vertices")
    edges = [TropCell("segment", (vs[i], vs[j]), (), w)
             for (i, j), w in zip(segments, weights)]
    edges += [TropCell("ray", (vs[i],), (d,), w)
              for (i, d), w in zip(rays, weights[len(segments):])]
    edges += [TropCell("line", (p,), (d, (-d[0], -d[1])), w)
              for (p, d), w in zip(lines, weights[len(segments) + len(rays):])]
    X = TropicalComplex(vs, edges)
    if not balancing_check(X):
        raise InputError("curve is not balanced")
    return X


def curve_to_json(X):
    """The object of X in load_curve_json's format, coordinates as strings;
    a line is written as its point and its first direction, and "lines"
    only when X has one."""
    index = {v: i for i, v in enumerate(X.vertices)}
    kinds = ("segment", "ray", "line")
    cells = {k: [e for e in X.edges if e.kind == k] for k in kinds}
    out = {"type": "curve", "vertices": [_text(v) for v in X.vertices],
           "edges": [[index[a], index[b]] for a, b in (e.verts for e in cells["segment"])],
           "rays": [[index[e.verts[0]], list(e.rays[0])] for e in cells["ray"]],
           "weights": [e.weight for k in kinds for e in cells[k]]}
    if cells["line"]:
        out["lines"] = [[_text(e.verts[0]), list(e.rays[0])] for e in cells["line"]]
    return out


def _point(p, what):
    return plane_point(exact_point(Fraction(str(x)) for x in p), what)


def _text(p):
    return [str(c) for c in p]


def _vertex_ref(i, vs):
    """Index i into the vertex list vs, range-checked (no negative
    indexing)."""
    i = parse_int(i, "vertex index")
    if not 0 <= i < len(vs):
        raise InputError(f"vertex index {i} out of range for {len(vs)} vertices")
    return i


def is_balanced(star):
    """Whether the weighted directions of a star (legs as in
    TropicalComplex.stars) sum to zero."""
    return not any(sum(w * d[k] for d, _, w in star) for k in (0, 1))


def is_unimodular(star):
    """Whether a star is smooth: three legs of weight 1 whose directions are
    pairwise unimodular, |det(u_i, u_j)| = 1."""
    return (len(star) == 3 and all(w == 1 for _, _, w in star)
            and all(abs(a[0] * b[1] - a[1] * b[0]) == 1
                    for (a, _, _), (b, _, _) in combinations(star, 2)))


def balancing_check(X):
    """Weighted primitive directions at every vertex sum to zero."""
    return all(map(is_balanced, X.stars))


def is_smooth(X):
    """Smoothness: the dual subdivision is unimodal.

    For directly-input curves (no subdivision) the equivalent local test
    is used: all weights 1 (a line has no vertex to check it at), and
    every vertex's star is unimodular.
    """
    if X.subdivision is not None:
        return X.subdivision.is_unimodal()
    return all(e.weight == 1 for e in X.edges) and all(map(is_unimodular, X.stars))


def vertex_frames(X):
    """The integral frames of the vertices of a smooth curve with duality
    data, in ints: three lists indexed like X.vertices.  Per vertex, its
    star's directions (u0, u1, u2), the indices in X.edges of their edges
    in the same order, and v0, the one point of the dual keys (vertex sets)
    of the edges of legs 1 and 2.  The frame B = [u1 u2] is unimodular and
    sends (-1, -1) to u0.  InputError unless every star is unimodular and
    balanced, and its legs' edges carry dual keys."""
    dirs, legs, v0s = [], [], []
    for star in X.stars:
        if not is_unimodular(star):
            raise InputError("line is not smooth; use the covering model instead")
        if not is_balanced(star):
            raise InputError("line is not balanced")
        k1, k2 = (X.edges[i].dual_key for _, i, _ in star[1:])
        if k1 is None or k2 is None:
            raise InputError("complex has no duality data")
        common = k1 & k2
        if len(common) != 1:
            raise InputError("dual edges of the two frame legs do not share a vertex")
        dirs.append(tuple(d for d, _, _ in star))
        legs.append(tuple(i for _, i, _ in star))
        v0s.append(next(iter(common)))
    return dirs, legs, v0s
