"""Moment polygons, boundary behavior of tropical curves, closure topology.

A Delzant polygon is an intersection of half planes with rational edges
whose corner tangents form lattice bases.  Closing up a Lagrangian lift in
the associated toric surface depends on the lattice index of each
curve-edge/boundary-edge pair: index 1 gives a boundary circle, a corner
hit with property (P) a smooth interior point, index 2 a Moebius cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .polyhedral import cross2, dot, lattice_length, primitive, vsub


@dataclass(frozen=True)
class PolygonEdge:
    base: tuple       # lattice point on the edge
    direction: tuple  # primitive integer tangent
    length: int       # lattice length; None for an unbounded edge (a ray from base)
    inward: tuple     # primitive integer inward normal


class DelzantPolygon:
    """Possibly-unbounded rational polygon given by edges + inward normals."""

    def __init__(self, edges, vertices):
        self.edges = list(edges)
        self.vertices = [tuple(v) for v in vertices]

    @staticmethod
    def from_vertices(points):
        """Compact polygon from its vertex list (any order)."""
        from .polyhedral import convex_hull_2d, parse_int
        if not (isinstance(points, (list, tuple))
                and all(isinstance(p, (list, tuple)) and len(p) == 2 for p in points)):
            raise InputError(f"polygon must be a list of [i, j] vertices, not {points!r}")
        hull = convex_hull_2d([tuple(parse_int(c, "polygon vertex coordinate") for c in p)
                               for p in points])
        if len(hull) < 3:
            raise InputError("polygon vertices must span a 2-dimensional polygon")
        edges = []
        m = len(hull)
        for i in range(m):
            a, b = hull[i], hull[(i + 1) % m]
            d = primitive(vsub(b, a))
            n = (-d[1], d[0])  # CCW: inward normal is the left normal
            edges.append(PolygonEdge(a, d, lattice_length(a, b), n))
        return DelzantPolygon(edges, hull)

    @staticmethod
    def quadrant():
        """The first quadrant, the moment polygon of the affine plane."""
        e1 = PolygonEdge((0, 0), (1, 0), None, (0, 1))
        e2 = PolygonEdge((0, 0), (0, 1), None, (1, 0))
        return DelzantPolygon([e1, e2], [(0, 0)])

    def contains(self, p):
        return all(dot(e.inward, vsub(p, e.base)) >= 0 for e in self.edges)

    def strictly_contains(self, p):
        return all(dot(e.inward, vsub(p, e.base)) > 0 for e in self.edges)

    def boundary_element(self, p):
        """("vertex", v), ("edge", i) or None for a boundary point p (a
        tuple)."""
        if not self.contains(p):
            return None
        active = [i for i, e in enumerate(self.edges)
                  if dot(e.inward, vsub(p, e.base)) == 0]
        if not active:
            return None
        if len(active) >= 2:
            for v in self.vertices:
                if v == p:
                    return ("vertex", v)
        return ("edge", active[0])

    def vertex_tangents(self, v):
        """Primitive tangents of the two edges at a vertex, pointing away."""
        out = []
        for e in self.edges:
            rel = vsub(v, e.base)
            if dot(e.inward, rel) != 0 or cross2((0, 0), rel, e.direction) != 0:
                continue
            t = _param_on_edge(e, v)
            if t == 0:
                out.append(e.direction)
            elif e.length is not None and t == e.length:
                out.append(tuple(-c for c in e.direction))
        if len(out) != 2:
            raise InputError(f"{v} is not a corner of the polygon")
        return out

    def facet_distance(self, p, i):
        """Lattice-normalized affine distance from p to facet i."""
        e = self.edges[i]
        return dot(e.inward, vsub(p, e.base))


def _param_on_edge(e, p):
    rel = vsub(p, e.base)
    if e.direction[0]:
        return Fraction(rel[0], e.direction[0])
    return Fraction(rel[1], e.direction[1])


def vertex_unimodular(poly, v):
    t1, t2 = poly.vertex_tangents(v)
    return abs(t1[0] * t2[1] - t1[1] * t2[0]) == 1


def delzant_check(poly):
    """All corner tangent pairs form lattice bases."""
    if len(poly.edges) < 2:
        raise InputError("polygon needs at least two edges")
    return all(vertex_unimodular(poly, v) for v in poly.vertices)


# ---------------------------------------------------------------------------
# boundary classification

@dataclass(frozen=True)
class BoundaryHit:
    point: tuple
    edge_index: int       # index of the curve edge in X.edges
    boundary: tuple       # ("edge", i) or ("vertex", v)
    index: int            # lattice index of the tangent pair
    kind: str             # circle-boundary | smooth-point | moebius | unsupported
    weight: int = 1


def _cell_interval(cell, poly):
    """Parameter range of the curve 1-cell inside the polygon.

    The cell is a + t d with t in [0, tmax]; returns (t_in, t_out) clipped,
    or None when the cell misses the polygon.
    """
    a = cell.verts[0]
    if cell.kind == "segment":
        d = vsub(cell.verts[1], cell.verts[0])
        tmax = Fraction(1)
    else:
        d = cell.rays[0]
        tmax = None
    t_lo, t_hi = Fraction(0), tmax
    for e in poly.edges:
        num = dot(e.inward, vsub(a, e.base))
        den = dot(e.inward, d)
        if den == 0:
            if num < 0:
                return None
            continue
        t_star = Fraction(-num, den)
        if den > 0:
            t_lo = max(t_lo, t_star)
        else:
            t_hi = t_star if t_hi is None else min(t_hi, t_star)
    if t_hi is not None and t_lo > t_hi:
        return None
    return (a, d, t_lo, t_hi)


def classify_boundary(X, poly):
    """Classify every crossing of the polygon boundary by curve edges."""
    for v in X.vertices:
        if poly.contains(v) and not poly.strictly_contains(v):
            raise InputError(f"curve vertex {tuple(v)} lies on the moment polygon boundary")
    hits = []
    for ei, cell in enumerate(X.edges):
        clip = _cell_interval(cell, poly)
        if clip is None:
            continue
        a, d, t_lo, t_hi = clip
        u = primitive(d)
        ends = (t_lo,) if t_lo == t_hi else (t_lo, t_hi)
        for t_end in ends:
            if t_end is None or t_end == 0:
                continue  # open end, or cell base (an interior curve vertex)
            if cell.kind == "segment" and t_end == 1:
                continue
            p = tuple(av + t_end * dv for av, dv in zip(a, d))
            elem = poly.boundary_element(p)
            if elem is None:
                continue
            hits.append(_classify_hit(p, ei, elem, u, cell.weight, poly))
    return hits


def _classify_hit(p, ei, elem, u, weight, poly):
    if elem[0] == "vertex":
        t1, t2 = poly.vertex_tangents(elem[1])
        i1 = abs(u[0] * t1[1] - u[1] * t1[0])
        i2 = abs(u[0] * t2[1] - u[1] * t2[0])
        idx = max(i1, i2)
        kind = "smooth-point" if (i1 == 1 and i2 == 1) else "unsupported"
        return BoundaryHit(p, ei, elem, idx, kind, weight)
    d = poly.edges[elem[1]].direction
    idx = abs(u[0] * d[1] - u[1] * d[0])
    if idx == 1:
        kind = "circle-boundary"
    elif idx == 2:
        kind = "moebius"
    else:
        kind = "unsupported"
    return BoundaryHit(p, ei, elem, idx, kind, weight)


# ---------------------------------------------------------------------------
# topology of the closed-up lift

@dataclass
class LiftTopology:
    chi: int
    orientable: bool
    boundary_circles: int
    genus: int = None
    crosscaps: int = None
    punctures: int = None

    def summary(self):
        bits = [f"chi={self.chi}", "orientable" if self.orientable else "non-orientable"]
        if self.genus is not None:
            bits.append(f"genus={self.genus}")
        if self.crosscaps is not None:
            bits.append(f"crosscaps={self.crosscaps}")
        bits.append(f"b={self.boundary_circles}")
        if self.punctures:
            bits.append(f"punctures={self.punctures}")
        return " ".join(bits)


def _vertex_dual_volume(X, vi):
    """Normalized volume of the dual cell of vertex vi: minus its chi share."""
    key = X.vertex_dual.get(X.vertices[vi])
    if key is not None:
        return X.subdivision.face(key).normalized_volume()
    # The dual polygon's edges are the weighted star turned by 90 degrees,
    # which keeps cross products, so twice its area (the normalized volume)
    # is the shoelace sum of the weighted legs walked in angular order.
    legs = sorted(((w * d[0], w * d[1]) for d, _, w in X.stars[vi]), key=_angle)
    area2, p = 0, (0, 0)
    for e in legs:
        area2 += p[0] * e[1] - p[1] * e[0]
        p = (p[0] + e[0], p[1] + e[1])
    return area2


def _angle(v):
    """An exact key of the angle of v from (1, 0), in [0, 2 pi): its half
    plane (y < 0, or y = 0 and x < 0), the axis first, then -x / y."""
    x, y = v
    return (y < 0 or (y == 0 and x < 0), y != 0, Fraction(-x, y) if y else 0)


def lift_topology(X, poly=None):
    """Euler characteristic and orientability of the (closed-up) lift."""
    if poly is None:
        chi = -sum(_vertex_dual_volume(X, vi) for vi in range(len(X.vertices)))
        p, c = X.lift_ends()
        g2 = 2 * c - chi - p
        if g2 % 2:
            raise InputError("inconsistent topology data")
        return LiftTopology(chi=int(chi), orientable=True, boundary_circles=0,
                            genus=g2 // 2, punctures=int(p))
    hits = classify_boundary(X, poly)
    bad = [h for h in hits if h.kind == "unsupported"]
    if bad:
        raise InputError(f"unsupported boundary hit of index {bad[0].index} at {bad[0].point}")
    chi = 0
    for vi, v in enumerate(X.vertices):
        if poly.strictly_contains(v):
            chi -= _vertex_dual_volume(X, vi)
    # unbounded edges that stay inside the polygon escape to punctures
    punctures = 0
    for cell in X.unbounded_edges():
        clip = _cell_interval(cell, poly)
        if clip is not None and clip[3] is None:
            punctures += cell.weight
    b = 0
    orientable = True
    for h in hits:
        if h.kind == "smooth-point":
            chi += 1
        elif h.kind == "circle-boundary":
            b += h.weight
        elif h.kind == "moebius":
            orientable = False
    chi = int(chi)
    topo = LiftTopology(chi=chi, orientable=orientable, boundary_circles=b,
                        punctures=punctures if punctures else None)
    if orientable:
        if (chi - b - punctures) % 2:
            raise InputError("chi, boundary and puncture counts have inconsistent parity")
        topo.genus = (2 - chi - b - punctures) // 2
    else:
        topo.crosscaps = 2 - chi - b - punctures
        if b == 0 and punctures == 0 and _is_plane_polygon(poly) and chi % 4 != 0:
            raise InputError("non-orientable closed lift in the plane must have chi = 0 mod 4")
    return topo


def _is_plane_polygon(poly):
    return any(e.length is None for e in poly.edges)


# ---------------------------------------------------------------------------
# monotone arithmetic

def monotone_report(X, poly):
    """Maslov index / area pairs for the standard disk classes.

    The curve must have a single vertex; each facet contributes a disk with
    mu = 2 and omega = the lattice distance from the vertex to the facet;
    the surface generator has mu = 2 x (number of facets) and omega = the
    distance sum; the fiber class contributes (0, 0).
    """
    if len(X.vertices) != 1:
        raise InputError("monotone report needs a unique curve vertex")
    v = X.vertices[0]
    rows = []
    for i, e in enumerate(poly.edges):
        om = poly.facet_distance(v, i)
        rows.append({"class": f"facet-{i}", "mu": 2, "omega": om})
    if all(e.length is not None for e in poly.edges):
        om_tau = sum(r["omega"] for r in rows)
        rows.insert(0, {"class": "tau", "mu": 2 * len(poly.edges), "omega": om_tau})
    rows.append({"class": "fiber", "mu": 0, "omega": 0})
    prop = all(r["mu"] == 2 * r["omega"] for r in rows)
    return {"pairs": rows, "proportional": prop, "factor": 2 if prop else None}
