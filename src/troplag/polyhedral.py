"""Exact lattice/polytope layer.

Convex hulls of lattice polytopes in ambient dimension 1 or 2, regular
subdivisions induced by integral lifting functions, and the discrete
Legendre transform with the duals of the subdivision's 2-cells and edges.
Every result here is exact: ints where a value is integral, Fraction only
where a denominator remains (the dual vertex of a unimodular cell is an
int point).  No float enters, not even to propose the cells of a regular
subdivision (see regular_subdivision).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DegeneracyError, InputError

Point = tuple  # integer lattice point
QPoint = tuple  # point with int or Fraction coordinates


def exact_point(v):
    """The numbers of v (ints, Fractions or floats) as a tuple: each an int
    when it is integral, else a Fraction."""
    return tuple(x if type(x) is int else _quotient(*Fraction(x).as_integer_ratio())
                 for x in v)


# ---------------------------------------------------------------------------
# small exact-geometry helpers

def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def cross2(o, a, b):
    """Signed area form (a-o) x (b-o) in the plane."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def primitive(v):
    """Primitive integer vector positively parallel to v (v rational)."""
    if not all(type(x) is int for x in v):
        fr = [Fraction(x) for x in v]
        den = lcm(*(x.denominator for x in fr))
        v = [x.numerator * (den // x.denominator) for x in fr]
    g = gcd(*v)
    if g == 0:
        raise InputError("zero vector has no primitive direction")
    return tuple(x // g for x in v)


def lattice_length(a, b):
    """Number of primitive steps from lattice point a to lattice point b."""
    return gcd(*vsub(b, a))


def affine_dim(points):
    pts = list(points)
    if not pts:
        return -1
    base = pts[0]
    dirs = []
    for p in pts[1:]:
        d = vsub(p, base)
        if any(d):
            dirs.append(d)
    if not dirs:
        return 0
    if len(base) == 1:
        return 1
    for a, b in itertools.combinations(dirs, 2):
        if a[0] * b[1] - a[1] * b[0] != 0:
            return 2
    return 1


def convex_hull_2d(points):
    """Extreme points in counterclockwise order (Andrew monotone chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross2(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross2(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _hull_1d(points):
    pts = sorted(set(points))
    return [pts[0], pts[-1]] if len(pts) > 1 else pts


# Most lattice points a polytope may hold, counted before any is listed.
# `troplag tropical` of the degree-d triangle with a generic lifting takes
# time growing with the square of the count: in-process on a 2-vCPU host,
# 0.28 s at d = 40 (861 points), 1.7 s at d = 80 (3,321) and 2.7 s at d = 98
# (4,950, the largest triangle below this limit).
MAX_LATTICE_POINTS = 5_000


def lattice_point_count(vertices):
    """Lattice points of the polytope with these extreme points in hull
    order, by Pick's theorem: (2A + B + 2) / 2 with twice its area 2A and B
    boundary points (a segment's boundary runs both ways)."""
    twice_area = boundary = 0
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:] + vertices[:1]):
        twice_area += x0 * y1 - x1 * y0
        boundary += gcd(x1 - x0, y1 - y0)
    return (abs(twice_area) + boundary + 2) // 2


def enumerate_lattice_points(vertices):
    """All lattice points of conv(vertices); exact."""
    d = affine_dim(vertices)
    if d <= 0:
        return sorted(set(vertices))
    if len(vertices[0]) == 1:
        lo = min(v[0] for v in vertices)
        hi = max(v[0] for v in vertices)
        return [(k,) for k in range(lo, hi + 1)]
    if d == 1:
        a, b = _hull_1d(vertices)
        step = primitive(vsub(b, a))
        n = lattice_length(a, b)
        return [vadd(a, tuple(step[i] * k for i in range(len(a)))) for k in range(n + 1)]
    hull = convex_hull_2d(vertices)
    xs = [p[0] for p in hull]
    ys = [p[1] for p in hull]
    out = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            p = (x, y)
            inside = True
            for i in range(len(hull)):
                if cross2(hull[i], hull[(i + 1) % len(hull)], p) < 0:
                    inside = False
                    break
            if inside:
                out.append(p)
    return out


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class LatticePolytope:
    """Convex hull of finitely many lattice points.

    vertices are exactly the extreme points (hull-ordered for 2d cells);
    lattice_points lists every integer point of the polytope.
    """

    vertices: tuple
    lattice_points: tuple
    dim: int

    @staticmethod
    def from_points(points):
        pts = [tuple(int(x) for x in p) for p in points]
        if not pts:
            raise InputError("empty point set")
        d = affine_dim(pts)
        if d == 2:
            verts = tuple(convex_hull_2d(pts))
        elif d == 1:
            verts = tuple(_hull_1d(pts))
        else:
            verts = (pts[0],)
        count = lattice_point_count(verts) if d == 2 else lattice_length(verts[0], verts[-1]) + 1
        if count > MAX_LATTICE_POINTS:
            raise InputError(f"the polytope holds {count} lattice points, more than "
                             f"{MAX_LATTICE_POINTS}")
        return LatticePolytope(verts, tuple(enumerate_lattice_points(list(verts))), d)

    @property
    def key(self):
        return frozenset(self.vertices)

    def normalized_volume(self):
        """Lattice-normalized volume: |det| for 2d, lattice length for 1d."""
        if self.dim == 0:
            return 0
        if self.dim == 1:
            return lattice_length(self.vertices[0], self.vertices[-1])
        v = self.vertices
        tot = 0
        for i in range(1, len(v) - 1):
            tot += abs(cross2(v[0], v[i], v[i + 1]))
        return tot

    def is_elementary_simplex(self):
        if self.dim == 1:
            return len(self.vertices) == 2 and self.normalized_volume() == 1
        if self.dim == 2:
            return len(self.vertices) == 3 and self.normalized_volume() == 1
        return True


def parse_int(x, what):
    """x as an int when it is an integral number (3, 3.0, True), else
    InputError: strings, non-integral and non-finite values are refused."""
    try:
        value = int(x)
        integral = value == x
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise InputError(f"{what} is not an integer: {x!r}")
    return value


def plane_point(coords, what):
    """The tuple of coords; InputError unless it holds exactly two."""
    p = tuple(coords)
    if len(p) != 2:
        raise InputError(f"{what} needs two coordinates, not {len(p)}")
    return p


def parse_key(key, n, what):
    """The n (1 or 2) ints of a JSON object key spelled
    ",".join(str(i) for i in ints), as the fixtures and
    GluingSchedule.to_json write it; InputError for any other spelling
    ("00", " 0", "+0", "0, 1"), so that no two keys of one object name
    the same entry."""
    try:
        ints = tuple(int(p) for p in key.split(","))
    except (AttributeError, ValueError):
        ints = ()
    if len(ints) != n or key != ",".join(str(i) for i in ints):
        raise InputError(f"{what} {key!r} is not spelled \"{','.join('ij'[:n])}\" "
                         "with plain integers")
    return ints


class LiftingFunction:
    """Integral lifting values on lattice points."""

    def __init__(self, values):
        self.values = {}
        for p, v in dict(values).items():
            p = tuple(parse_int(x, "lattice point coordinate") for x in p)
            self.values[p] = parse_int(v, f"lifting value at {p}")

    def __call__(self, p):
        try:
            return self.values[tuple(p)]
        except KeyError:
            raise InputError(f"missing lifting value at lattice point {p}")


class Subdivision:
    """Regular subdivision of a lattice polytope by an integral lifting.

    cells holds the maximal linearity domains; faces_by_dim the full face
    lattice, each face a LatticePolytope.  Cells cover P and meet along
    common faces (a property of lower hulls, asserted rather than
    re-derived here).
    """

    def __init__(self, polytope, lifting, cells):
        self.polytope = polytope
        self.lifting = lifting
        self.cells = cells
        self.faces_by_dim = {}
        index = self._face_index = {}

        def add(points, poly=None):
            key = frozenset(points)
            if key not in index:  # build each shared face once
                if poly is None:  # a point, or an edge: its gcd steps from the lower end
                    a, b = min(key), max(key)
                    n = lattice_length(a, b)
                    steps = (tuple(x + k * (y - x) // n for x, y in zip(a, b))
                             for k in range(1, n + 1))
                    poly = LatticePolytope(tuple(sorted(key)), (a, *steps), min(n, 1))
                f = index[key] = poly
                self.faces_by_dim.setdefault(f.dim, []).append(f)

        # each cell, then each of its edges followed by the edge's endpoints
        for c in cells:
            v = c.vertices
            add(v, c)
            if c.dim == 2:
                for a, b in zip(v, v[1:] + v[:1]):
                    add((a, b))
                    for p in sorted((a, b)):
                        add((p,))
            else:
                for p in v:
                    add((p,))

    def faces(self, dim=None):
        if dim is None:
            return [f for fs in self.faces_by_dim.values() for f in fs]
        return list(self.faces_by_dim.get(dim, []))

    def face(self, key):
        return self._face_index[frozenset(tuple(p) for p in key)]

    @property
    def top_dim(self):
        return max(c.dim for c in self.cells)

    def is_unimodal(self):
        return all(c.is_elementary_simplex() for c in self.cells)


# ---------------------------------------------------------------------------
# operations

def regular_subdivision(polytope, lifting):
    """Projected lower convex hull of the lifted points (v, nu(v)).

    A cell is the set of lattice points where some affine minorant of the
    lifting is attained; ties (non-generic lifting) keep the non-simplicial
    cell as-is.  A segment P gets the exact 1-d lower chain.  A 2-d P is
    walked cell by cell in integer arithmetic (_lower_hull_walk), so no
    float ever proposes a cell and every lift, however large its values,
    gets the same exact answer.
    """
    if isinstance(polytope, (list, tuple)):
        polytope = LatticePolytope.from_points(polytope)
    if isinstance(lifting, dict):
        lifting = LiftingFunction(lifting)
    pts = list(polytope.lattice_points)
    vals = {p: lifting(p) for p in pts}
    if polytope.dim <= 0:
        raise DegeneracyError("polytope has no extent; nothing to subdivide")

    if polytope.dim == 1:
        return Subdivision(polytope, lifting, _lower_hull_1d(pts, vals))
    return Subdivision(polytope, lifting, _lower_hull_walk(polytope, pts, vals))


def _lower_hull_1d(pts, vals):
    base = pts[0]
    step = primitive(vsub(pts[-1], base))
    def param(p):
        d = vsub(p, base)
        for di, si in zip(d, step):
            if si != 0:
                return di // si
        return 0
    lifted = sorted((param(p), vals[p], p) for p in pts)
    hull = []
    for s, v, p in lifted:
        while len(hull) >= 2:
            (s1, v1, _), (s2, v2, _) = hull[-2], hull[-1]
            if (v2 - v1) * (s - s2) >= (v - v2) * (s2 - s1):
                hull.pop()
            else:
                break
        hull.append((s, v, p))
    cells = []
    for (s1, v1, p1), (s2, v2, p2) in zip(hull, hull[1:]):
        cells.append(LatticePolytope.from_points([p1, p2]))
    return cells


def _lower_hull_walk(polytope, pts, vals):
    """Cells of the lower hull of a 2-d P, sorted by their vertices.

    The walk starts on the first segment of the 1-d lower chain of the
    edge v0 -> v1 of P, which has P to its left: the hull lists the
    vertices counterclockwise from the lexicographically smallest, so
    v0 < v1, and the segment's sorted vertices p < q run the same way.  Each
    directed cell edge pq with its cell still unknown to its left gives
    that cell (_cell_left_of); the cell's counterclockwise edges, reversed,
    are the edges of its neighbours, and each is crossed once.  Cells of a
    lower hull meet along whole common edges, so the walk reaches every
    cell; an edge with no lattice point to its left lies on the boundary of
    P and leads nowhere.
    """
    v0, v1 = polytope.vertices[:2]
    p, q = _lower_hull_1d([r for r in pts if cross2(v0, v1, r) == 0], vals)[0].vertices
    lifted = [(x, y, vals[(x, y)]) for x, y in pts]
    known, cells, todo = set(), [], [(p, q)]
    while todo:
        p, q = todo.pop()
        if (p, q) in known:
            continue
        cell = _cell_left_of(p, q, vals, lifted)
        if cell is None:
            continue
        cells.append(cell)
        vs = cell.vertices
        sides = list(zip(vs, vs[1:] + vs[:1]))
        known.update(sides)
        todo.extend((b, a) for a, b in sides if (b, a) not in known)
    return sorted(cells, key=lambda c: sorted(c.vertices))


def _cell_left_of(p, q, vals, lifted):
    """The cell to the left of pq, an edge of the lower hull, or None when
    no lattice point lies to its left.

    With u, w the lifted vectors from p to q and to a point r left of pq,
    and n = u x w_b for the best point b so far, r lies below the plane
    through p, q and b exactly when det[u, w_b, w] = n . w < 0 (n points
    up, since b is left of pq).  The last such b spans the facet plane:
    every point left of pq lies on or above it, and so, because pq is a
    lower-hull edge, does every other lifted point.  The points met on a
    plane are kept until it drops; a point above an earlier plane is
    strictly above every later one.
    """
    px, py = p
    pz = vals[p]
    ux, uy, uz = q[0] - px, q[1] - py, vals[q] - pz
    left = ux * py - uy * px  # r is left of pq when ux y - uy x > left
    n0 = n1 = n2 = 0
    k = 1  # n . r - k = -1 < 0: the first point left of pq becomes b
    on = []
    for x, y, z in lifted:
        if ux * y - uy * x <= left:
            continue
        side = n0 * x + n1 * y + n2 * z - k
        if side < 0:
            wx, wy, wz = x - px, y - py, z - pz
            n0, n1, n2 = uy * wz - uz * wy, uz * wx - ux * wz, ux * wy - uy * wx
            k = n0 * px + n1 * py + n2 * pz
            on = [(x, y)]
        elif side == 0:
            on.append((x, y))
    return LatticePolytope.from_points([p, q] + on) if on else None


# ---------------------------------------------------------------------------
# discrete Legendre transform and the duals of 2-cells and edges

@dataclass(frozen=True)
class DualCell:
    """Dual polyhedron of a subdivision face: vertex set + recession rays."""

    verts: tuple
    rays: tuple


class PiecewiseAffine:
    """min-of-affine function: one piece <v,m> + c per subdivision vertex.

    Carries the dual cell of each 2-cell and edge of the inducing
    subdivision, the faces that the tropical curve is built from.
    """

    def __init__(self, pieces, dual_cells):
        seen = {}
        for v, c in pieces:
            seen[(tuple(v), c)] = None
        self.pieces = [(tuple(v), c) for (v, c) in seen]
        self._dual = dual_cells

    def dual_of(self, face):
        """DualCell of a 2-cell or edge (a LatticePolytope) of the subdivision."""
        return self._dual[face.key]


def discrete_legendre(subdivision):
    """Discrete Legendre transform of the lifting, with the dual cells of
    the subdivision's 2-cells (points) and edges (segments and rays, or
    lines when P is a segment)."""
    S = subdivision
    nu = S.lifting
    pieces = [(p, nu(p)) for p in sorted({f.vertices[0] for f in S.faces(0)})]
    dual = {}
    if S.top_dim == 2:
        # the cells at each lattice point, in S.cells order, and each
        # cell's dual vertex
        cells_at, cell_vertex = {}, {}
        for c in S.cells:
            cell_vertex[c.key] = _dual_vertex(c, nu)
            for v in c.vertices:
                cells_at.setdefault(v, []).append(c)
        for f in S.faces(2):
            dual[f.key] = DualCell((cell_vertex[f.key],), ())
        for f in S.faces(1):
            a, b = f.vertices
            owners = [c for c in cells_at[a] if b in c.vertices]
            if len(owners) == 2:
                dual[f.key] = DualCell(
                    (cell_vertex[owners[0].key], cell_vertex[owners[1].key]), ())
            else:
                base = cell_vertex[owners[0].key]
                ray = _boundary_ray_direction(f, S.polytope)
                dual[f.key] = DualCell((base,), (ray,))
    else:
        # segment polytope: duals of 1-cells are full lines
        for f in S.faces(1):
            v1, v2 = f.vertices
            d = vsub(v1, v2)
            c = nu(v2) - nu(v1)
            base = _point_on_line(d, c)
            perp = primitive((-d[1], d[0]))
            dual[f.key] = DualCell((base,), (perp, tuple(-x for x in perp)))
    return PiecewiseAffine(pieces, dual)


def _quotient(n, d):
    """n / d for ints n and d != 0: an int when d divides n, else a Fraction."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def _dual_vertex(cell, nu):
    """Point where all pieces of a 2-cell are equal (and minimal), by
    Cramer's rule; int coordinates when the determinant is +-1 (a
    unimodular cell) or otherwise divides the numerators."""
    v0 = cell.vertices[0]
    eqs = [(vsub(v, v0), nu(v0) - nu(v)) for v in cell.vertices[1:3]]
    (d1, c1), (d2, c2) = eqs
    det = d1[0] * d2[1] - d1[1] * d2[0]
    return (_quotient(c1 * d2[1] - c2 * d1[1], det),
            _quotient(c2 * d1[0] - c1 * d2[0], det))


def _boundary_ray_direction(face, polytope):
    """Primitive recession direction of the dual ray of a boundary edge:
    the edge normal on whose side P lies, tested at P's vertices (a linear
    function is least over P at one of them)."""
    v1, v2 = face.vertices[0], face.vertices[-1]
    d = vsub(v2, v1)
    for cand in (primitive((-d[1], d[0])), primitive((d[1], -d[0]))):
        if all(dot(vsub(w, v1), cand) >= 0 for w in polytope.vertices):
            return cand
    raise DegeneracyError("no valid dual ray direction; input not a polytope?")


def _point_on_line(d, c):
    """Some rational solution m of <d, m> = c."""
    if d[0] != 0:
        return (_quotient(c, d[0]), 0)
    return (0, _quotient(c, d[1]))


def load_polytope_json(data, default_zero=False):
    """Parse {"vertices": [[i,j],...], "lifting": {"i,j": v, ...}}."""
    try:
        verts = [plane_point((parse_int(x, "vertex coordinate") for x in p), "polytope vertex")
                 for p in data["vertices"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad polytope JSON: {exc}")
    poly = LatticePolytope.from_points(verts)
    raw = data.get("lifting", {})
    if not isinstance(raw, dict):
        raise InputError(f"lifting must be an object keyed by \"i,j\", "
                         f"not {type(raw).__name__}")
    values = {}
    for k, v in raw.items():
        try:  # tuple keys come from Python callers
            p = parse_key(k, 2, "lifting key") if isinstance(k, str) else tuple(int(x) for x in k)
        except (TypeError, ValueError):
            raise InputError(f"lifting key {k!r} is not of the form \"i,j\"")
        values[p] = v
    if default_zero:
        for p in poly.lattice_points:
            values.setdefault(p, 0)
    missing = [p for p in poly.lattice_points if p not in values]
    if missing:  # the count and the first five: a polytope can have millions
        shown = ", ".join(map(str, missing[:5] + ["..."] * (len(missing) > 5)))
        raise InputError(f"missing lifting values at {len(missing)} lattice points ({shown}); "
                         "pass --default-zero to default them to 0")
    return poly, LiftingFunction(values)
