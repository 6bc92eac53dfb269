"""Lifts of plane tropical curves.

PL lifts are unions of products (dual cell) x (cell coamoeba).  Smooth
lifts glue scaled pairs of pants over the curve vertices to flat
cylinders over the edges through Legendre-transform collars; the gluing
schedule fixes ball radii, leg cut points and pants scales.  Verification
quantities (symplectic residual, Hausdorff distance, exactness constants,
Maslov winding) live here as well.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coamoeba import PI, edge_fiber_from_dual, r_apply, reduce_mod_pi, rstar_apply
from .errors import ConfigurationError, InputError, NumericError
from .pants import (HESSIAN_MARGIN, LAM_MAX, PantsMap, h_chart_terms, hessian_rows, scaled_h,
                    solve_leg_fiber)
from .toric import lift_topology
from .tropical import tangent_line, vertex_frames
from .polyhedral import parse_key, primitive


# ---------------------------------------------------------------------------
# smooth cutoff profile

class BumpProfile:
    """C-infinity non-increasing 1 -> 0 transition on [0, 1].

    Normalized integral of exp(-1/(s(1-s))); the antiderivative is tabulated
    on 10^3 nodes and evaluated by cubic Hermite interpolation (the exact
    integrand supplies the derivatives), so eta is smooth to ~1e-12 while
    eta' and eta'' are closed-form.
    """

    _N = 1000

    def __init__(self):
        u = np.linspace(0.0, 1.0, self._N + 1)
        f = self._phi(u)
        F = np.zeros_like(u)
        # composite Simpson on each pair of intervals
        h = 1.0 / self._N
        mid = self._phi((u[:-1] + u[1:]) / 2)
        F[1:] = np.cumsum(h / 6.0 * (f[:-1] + 4.0 * mid + f[1:]))
        self._u = u
        self._F = F / F[-1]
        self._f = f / F[-1]
        self._Z = F[-1]

    @staticmethod
    def _phi(u):
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        inside = (u > 0) & (u < 1)
        ui = u[inside]
        out[inside] = np.exp(-1.0 / (ui * (1.0 - ui)))
        return out

    def psi(self, u):
        """Normalized antiderivative: 0 -> 1, C-infinity."""
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        i = np.clip((u * self._N).astype(int), 0, self._N - 1)
        h = 1.0 / self._N
        s = (u - self._u[i]) / h
        y0, y1 = self._F[i], self._F[i + 1]
        d0, d1 = self._f[i] * h, self._f[i + 1] * h
        h00 = 2 * s ** 3 - 3 * s ** 2 + 1
        h10 = s ** 3 - 2 * s ** 2 + s
        h01 = -2 * s ** 3 + 3 * s ** 2
        h11 = s ** 3 - s ** 2
        return h00 * y0 + h10 * d0 + h01 * y1 + h11 * d1

    def psi_prime(self, u):
        return self._phi(u) / self._Z

    def psi_second(self, u):
        # psi'' = phi'/Z with phi' = phi * (1 - 2u) / (u(1-u))^2
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        inside = (u > 0) & (u < 1)
        ui = u[inside]
        out[inside] = self._phi(ui) * (1 - 2 * ui) / (ui * (1 - ui)) ** 2 / self._Z
        return out


_BUMP = BumpProfile()


class Cutoff:
    """eta on [r1, r2]: 1 at r1 decreasing smoothly to 0 at r2."""

    def __init__(self, r1, r2):
        if not r2 > r1:
            raise ConfigurationError("cutoff needs r1 < r2")
        self.r1, self.r2 = float(r1), float(r2)

    def _u(self, s):
        return (np.asarray(s, dtype=float) - self.r1) / (self.r2 - self.r1)

    def eta(self, s):
        return 1.0 - _BUMP.psi(self._u(s))

    def eta_prime(self, s):
        return -_BUMP.psi_prime(self._u(s)) / (self.r2 - self.r1)

    def eta_second(self, s):
        return -_BUMP.psi_second(self._u(s)) / (self.r2 - self.r1) ** 2


# The largest size of a curve coordinate that _curve_table lifts and of a
# ray truncation: an input bound, below which the curve's extent, its
# squared vertex distances and a ray cylinder's squared length stay finite
# floats.
COORDINATE_LIMIT = 1e150


class _CurveTable:
    """The float data of a curve's lifts, built by _curve_table once per
    curve and kept on it; it refers to no curve, so the curve does not
    become a reference cycle.  vertices (V, 2) and truncation, the ray
    length of samples and schedules (3 x the larger of 1 and the vertices'
    extent, at most COORDINATE_LIMIT); per edge, in X.edges order, ends
    (E, 2, 2), verts[0] and then verts[1] of a segment or the ray
    direction, length (E,), the norm of their difference or of the
    direction, segment (E,) and the EdgeFibers fibers.  The vertex frames
    are None until _curve_table(X, frames=True): from
    tropical.vertex_frames, per vertex the frame B = [u1 u2] (V, 2, 2) of
    its sorted leg directions u0, u1, u2, its inverse A = adj(B) det(B),
    exact as det(B) = +-1, y_c = v0 pi / 2 (V, 2) and the lattice leg
    lengths norms (V, 3) of the directions; and legs (E, 2, 2), per edge
    the (vertex index, leg) of each end, the one end twice on a ray.  A
    vertex's pants and collars map from standard coordinates by
    x -> v + B x, y -> y_c + A^T y (mod pi).  The frame arrays are
    read-only."""

    def __init__(self, X):
        vs = self.vertices = np.array(X.vertices, dtype=float).reshape(-1, 2)
        extent = float(np.ptp(vs, axis=0).max()) if len(vs) > 1 else 1.0
        self.truncation = min(3.0 * max(1.0, extent), COORDINATE_LIMIT)
        self.ends = np.array([(e.verts[0], e.verts[1] if e.kind == "segment" else e.rays[0])
                              for e in X.edges], dtype=float).reshape(-1, 2, 2)
        self.segment = np.array([e.kind == "segment" for e in X.edges], dtype=bool)
        # one norm per edge: the norm along axis 1 of all of them rounds otherwise
        self.length = np.array([np.linalg.norm(b - a if seg else b)
                                for (a, b), seg in zip(self.ends, self.segment)])
        self.fibers = [edge_fiber_from_dual(e, X.dual_cell(e)) for e in X.edges]
        self.B = self.A = self.y_c = self.norms = self.legs = None

    def add_frames(self, X):
        if not X.vertices:
            raise InputError("smooth lifting needs a curve with a vertex to put a pants on")
        dirs, legs, v0 = vertex_frames(X)
        u = np.array(dirs, dtype=float)
        self.B = np.ascontiguousarray(u[:, 1:].transpose(0, 2, 1))
        # adj(B) det(B) in ints, where a zero is never -0.0
        self.A = np.array([((d * s, -c * s), (-b * s, a * s))
                           for _, (a, b), (c, d) in dirs for s in (a * d - b * c,)], dtype=float)
        self.y_c = np.array(v0, dtype=float) * PI / 2
        self.norms = np.hypot(u[..., 0], u[..., 1])
        # a curve with a vertex has no lines, so each edge has one or two
        # ends: a leg at an edge's verts[0] fills both, a ray's one end twice
        index = {v: vi for vi, v in enumerate(X.vertices)}
        first = np.array([index[e.verts[0]] for e in X.edges])
        ei = np.array(legs).ravel()
        vj = np.stack(np.divmod(np.arange(len(ei)), 3), axis=1)
        at_first = first[ei] == vj[:, 0]
        self.legs = np.empty((len(X.edges), 2, 2), dtype=vj.dtype)
        self.legs[ei[at_first]] = vj[at_first, None]
        self.legs[ei[~at_first], 1] = vj[~at_first]
        for a in (self.B, self.A, self.y_c, self.norms, self.legs):
            a.flags.writeable = False


def _curve_table(X, frames=False):
    """The _CurveTable of X, built on first use, with its vertex frames if
    frames.  InputError before any float is made when a coordinate of the
    vertices (which end every segment and ray) or of a line's base point
    exceeds COORDINATE_LIMIT in size, compared exactly, or the curve has no
    subdivision; and for the frames when it has no vertex."""
    table = getattr(X, "_lift_table", None)
    if table is None:
        points = X.vertices + [e.verts[0] for e in X.edges if e.kind == "line"]
        if any(abs(a) > COORDINATE_LIMIT for p in points for a in p):
            raise InputError("the curve lies beyond float range: its coordinates must be at "
                             f"most {COORDINATE_LIMIT:g} in magnitude to lift")
        if X.subdivision is None:
            raise InputError("missing duality data; build the curve from a subdivision")
        table = X._lift_table = _CurveTable(X)
    if frames and table.B is None:
        table.add_frames(X)
    return table


# ---------------------------------------------------------------------------
# gluing schedule

# The cut points of a leg, in the order of the last axis of
# GluingSchedule.cuts.
LEG_CUT_FIELDS = ("r_prime", "r_second", "r_bar", "r")


@dataclass(eq=False)  # == of arrays is ambiguous; compare to_json()
class GluingSchedule:
    """Ball radii, pants scales and leg cut points for a smooth lift.

    ball_radius and lam have shape (V,), by vertex index; cuts[vi, j], of
    shape (V, 3, 4), holds leg j's cut points at vertex vi in the order of
    LEG_CUT_FIELDS, as ambient arc lengths from the vertex along the leg.
    """

    ball_radius: np.ndarray
    lam: np.ndarray
    cuts: np.ndarray
    truncation: float

    def to_json(self):
        # string keys, which sort_keys puts in text order ("10" before "2")
        by_vertex = lambda a: {str(vi): v for vi, v in enumerate(a.tolist())}
        return json.dumps({
            "ball_radius": by_vertex(self.ball_radius),
            "lam": by_vertex(self.lam),
            "legs": {f"{vi},{j}": dict(zip(LEG_CUT_FIELDS, cuts))
                     for vi, legs in enumerate(self.cuts.tolist()) for j, cuts in enumerate(legs)},
            "truncation": self.truncation,
        }, indent=2, sort_keys=True)

    @staticmethod
    def from_dict(d):
        """Schedule of a parsed to_json() object, whose vertex count V is the
        number of lam entries; InputError when an entry is missing, a key is
        spelled otherwise than to_json writes it ("vi", "vi,j"), the keys are
        not exactly the vertices 0..V-1 and their legs 0, 1, 2, a leg has
        other fields than LEG_CUT_FIELDS, or a value is not a finite number."""
        def number(x):
            if isinstance(x, bool) or not math.isfinite(x):
                raise ValueError(f"{x!r} is not a finite number")
            return x

        def leg(key, cuts):
            vi, j = parse_key(key, 2, "leg key")
            if set(cuts) != set(LEG_CUT_FIELDS):
                raise ValueError(f"leg {key} has fields {sorted(cuts)}, not {LEG_CUT_FIELDS}")
            return (vi, j), [number(cuts[f]) for f in LEG_CUT_FIELDS]

        try:
            ball, lam = ({parse_key(k, 1, f"{name} key")[0]: number(v)
                          for k, v in d[name].items()}
                         for name in ("ball_radius", "lam"))
            legs = dict(leg(key, cuts) for key, cuts in d["legs"].items())
            nv = len(lam)
            if not set(ball) == set(lam) == set(range(nv)) or set(legs) != set(np.ndindex(nv, 3)):
                raise ValueError(f"the keys are not the vertices 0..{nv - 1} and their legs")
            return GluingSchedule(np.array([ball[vi] for vi in range(nv)], dtype=float),
                                  np.array([lam[vi] for vi in range(nv)], dtype=float),
                                  np.array([legs[k] for k in np.ndindex(nv, 3)],
                                           dtype=float).reshape(nv, 3, 4),
                                  float(number(d["truncation"])))
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise InputError(f"malformed schedule ({type(exc).__name__}: {exc})")


# Vertices per call of the feasibility kernel: bounds its (block, 720, 2)
# temporaries, and so the peak RSS of a schedule, whatever the curve size.
_FEASIBLE_BLOCK = 8


@lru_cache(maxsize=1)
def _unit_boundary_terms():
    """Scale-free terms (num, den) of the S_k boundary cloud, read-only: at
    t = 0 the chart expression of h is (lam * num) / den on the alpha grid."""
    alphas = np.exp(np.linspace(np.log(5e-3), np.log(2e2), 240))[:, None]
    terms = h_chart_terms(1, alphas, np.zeros(len(alphas)))
    for a in terms:
        a.setflags(write=False)
    return terms


def _boundary_cloud(lam):
    """Points of the three boundary surfaces S_k of the region scaled by
    each entry of lam: shape (len(lam), 720, 2)."""
    num, den = _unit_boundary_terms()
    x0 = (lam[:, None, None] * num) / den
    return np.concatenate([x0, rstar_apply(1, 1, x0), rstar_apply(1, 2, x0)], axis=1)


def _leg_coordinates(x_std):
    """The lattice coordinates (-x_1, x_1, x_2) along legs 0, 1, 2 of
    standard-side points x_std (..., 2), stacked on a new first axis."""
    return np.stack([-x_std[..., 0], x_std[..., 0], x_std[..., 1]])


def _feasible(lam, B, legs_lat, ball_r):
    """Per vertex i, whether pants scale lam[i] keeps the trimmed body
    inside 0.9 x ball_r[i], non-empty, and the arms slim enough to stay in
    their leg neighborhoods inside the ball.  B[i] is the vertex's frame
    matrix and legs_lat[i, j] its four leg-j cut points in lattice units.
    The body is the boundary points whose leg coordinates are all at most
    r'; at a scale whose body holds none, the pants lie beyond the legs'
    cuts and trim to nothing."""
    ok = np.empty(len(lam), dtype=bool)
    for s in range(0, len(lam), _FEASIBLE_BLOCK):
        blk = slice(s, s + _FEASIBLE_BLOCK)
        cloud = _boundary_cloud(lam[blk])
        amb = cloud @ B[blk].transpose(0, 2, 1)
        r = np.sqrt(amb[..., 0] * amb[..., 0] + amb[..., 1] * amb[..., 1])
        R = ball_r[blk, None]
        # c[j], the leg-j coordinate, is also d_{j,k_j}: the V_{{j},k_j}
        # slack at the smallest admissible k_j (1 for leg 0, else 0)
        c = _leg_coordinates(cloud)
        r_prime, r_end = (legs_lat[blk, :, k].T[..., None] for k in (0, 3))
        body = np.all(c <= r_prime, axis=0)
        arm = (c >= r_prime) & (c <= r_end)
        bad = np.any(arm & ~(c >= 1e-12), axis=0)
        bad |= (body & (r > 0.9 * R)) | (np.any(arm, axis=0) & (r > R))
        ok[blk] = ~bad.any(axis=1) & body.any(axis=1)
    return ok


def _distinct_rows(*arrays):
    """The distinct rows of the arrays' axis-0 slices laid side by side,
    compared bit for bit (so 0.0 and -0.0 differ): the index of each
    distinct row's first occurrence, and per row the position of its
    distinct row in that list."""
    rows = np.concatenate([np.asarray(a, dtype=float).reshape(len(a), -1) for a in arrays],
                          axis=1)
    _, first, inverse = np.unique(rows.view(np.uint64), axis=0,
                                  return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


# The default schedule's ball radius, as a fraction of the smallest vertex
# distance, and its leg cut points r', r'', rbar, r, as fractions of the
# ball radius.
_BALL_FACTOR = 0.45
_LEG_CUT_FRACTIONS = (0.5, 0.65, 0.8, 0.95)


def default_schedule(X):
    """Schedule per the default policy: balls at _BALL_FACTOR x min vertex
    distance, cut points at _LEG_CUT_FRACTIONS of the ball radius along
    each leg, rays truncated at the curve table's truncation, pants scales
    by bisection so the trimmed region sits inside 0.9 x ball.

    The gradient map h is linear in lambda, and the region it bounds is
    (n+1)^{n+1} x_1...x_{n+1} = lambda^{n+1}, so the boundary cloud tested
    at scale lam is lam times a unit cloud whose terms are computed once.
    Each vertex starts at hi = 2 x its shortest r' (lattice units) and
    takes hi if that is feasible, else the feasible end lo of 40 halvings
    of [hi / 1000, hi].  The scale depends only on the vertex's frame B
    and leg cuts, so only one vertex of each distinct (B, cuts) row is
    bisected, and its scale goes to every vertex of that row.  The rows
    run through the halvings in lockstep: each halving is one _feasible
    call on the rows still bisecting.  InputError, before any sample is
    built, when a scale exceeds pants.LAM_MAX: the curve's vertices lie too
    far apart for pants of float scale."""
    if X.subdivision is None:
        raise InputError("schedule needs a subdivision-backed curve")
    table = _curve_table(X, frames=True)
    B, norms = table.B, table.norms
    dist = X.min_vertex_distance()
    R = _BALL_FACTOR * dist
    cuts = np.array(_LEG_CUT_FRACTIONS) * R
    legs_lat = cuts / norms[:, :, None]
    first, row_of = _distinct_rows(B, legs_lat)
    B, legs_lat = B[first], legs_lat[first]
    ball_r = np.full(len(first), R)
    hi = 2.0 * legs_lat[:, :, 0].min(axis=1)
    lo = hi * 1e-3
    todo = np.flatnonzero(~_feasible(hi, B, legs_lat, ball_r))
    for _ in range(40):
        mid = 0.5 * (lo[todo] + hi[todo])
        ok = _feasible(mid, B[todo], legs_lat[todo], ball_r[todo])
        lo[todo[ok]] = mid[ok]
        hi[todo[~ok]] = mid[~ok]
    lam_row = hi.copy()
    lam_row[todo] = lo[todo]
    if lam_row.max() > LAM_MAX:
        raise InputError(f"the curve is too large to lift: its vertices lie {dist:g} or more "
                         f"apart, and pants that size need a scale above {LAM_MAX:g}")
    nv = len(norms)
    sched = GluingSchedule(np.full(nv, R), lam_row[row_of], np.tile(cuts, (nv, 3, 1)),
                           table.truncation)
    validate_schedule(X, sched)
    return sched


def _balls_meet(vs, ball_r):
    """Whether two of the balls (centers vs, radii ball_r) meet: some pair
    at distance <= the sum of its radii.  Only pairs whose x gap is within
    twice the largest radius can meet, so only those are compared, by a
    sweep in x order; the relative slack covers the rounding of the x
    gaps, so the result is that of comparing all pairs."""
    order = np.argsort(vs[:, 0], kind="stable")
    xs = vs[order, 0]
    reach = 2.0 * ball_r.max(initial=0.0) * (1.0 + 1e-9)
    ends = np.searchsorted(xs, xs + reach, side="right")
    counts = ends - np.arange(1, len(xs) + 1)
    a = np.repeat(np.arange(len(xs)), counts)
    b = a + 1 + (np.arange(len(a)) - np.repeat(np.cumsum(counts) - counts, counts))
    i, k = order[a], order[b]
    return bool(np.any(np.linalg.norm(vs[i] - vs[k], axis=1) <= ball_r[i] + ball_r[k]))


def validate_schedule(X, sched):
    table = _curve_table(X, frames=True)
    B, norms = table.B, table.norms
    nv = len(norms)
    lam, ball_r, cuts = sched.lam, sched.ball_radius, sched.cuts
    if (lam.shape, ball_r.shape, cuts.shape) != ((nv,), (nv,), (nv, 3, 4)):
        raise ConfigurationError("schedule shapes do not match the curve's vertices and legs")
    if not 0 < sched.truncation <= COORDINATE_LIMIT:
        raise ConfigurationError(f"truncation must be positive and at most {COORDINATE_LIMIT:g}")
    if not np.all(lam > 0):
        raise ConfigurationError("pants scales must be positive")
    if np.any(lam > LAM_MAX):
        raise ConfigurationError(f"pants scales must be at most {LAM_MAX:g}")
    if not (np.all(cuts[..., 0] > 0) and np.all(cuts[..., :-1] < cuts[..., 1:])):
        raise ConfigurationError("leg parameters must satisfy 0 < r' < r'' < rbar < r")
    if np.any(cuts[..., 3] > ball_r[:, None]):
        raise ConfigurationError("leg cut points must stay inside the ball")
    if _balls_meet(table.vertices, ball_r):
        raise ConfigurationError("vertex balls are not pairwise disjoint")
    # each edge keeps a flat piece: between its two legs' cut points on a
    # bounded edge, between its leg's cut point and the truncation on a ray
    r = cuts[table.legs[..., 0], table.legs[..., 1], 3]
    seg = table.segment
    bad = np.flatnonzero(np.where(seg, r[:, 0] + r[:, 1] >= table.length,
                                  sched.truncation <= r[:, 0]))
    if len(bad):
        raise ConfigurationError("leg cut points overlap on a bounded edge" if seg[bad[0]] else
                                 "truncation must lie beyond the cut point r of every ray's leg")
    # trimmed regions inside balls, at the scheduled scale
    legs_lat = cuts / norms[:, :, None]
    # one check per distinct (B, cuts, lam, ball radius) row
    first, row_of = _distinct_rows(B, legs_lat, lam, ball_r)
    ok = _feasible(lam[first], B[first], legs_lat[first], ball_r[first])
    bad = np.flatnonzero(~ok[row_of])
    if len(bad):
        raise ConfigurationError(f"pants scale at vertex {bad[0]} violates the ball bound")
    return True


# ---------------------------------------------------------------------------
# PL lift

@dataclass
class PLPiece:
    kind: str            # "vertex" | "edge"
    cell: object         # TropCell of the curve
    fiber: object        # CellCoamoeba-like or EdgeFiber


class PLLift:
    """Union over curve cells of (cell) x (fiber coamoeba)."""

    def __init__(self, X, pieces):
        self.X = X
        self.pieces = pieces

    def sample(self, resolution=64, truncation=None, windings=None):
        """Point cloud (x1, x2, y1, y2): each vertex's coamoeba over the
        vertex, and over each edge its fiber circles, twisted along the edge
        (_twist_fibers) when windings maps the edge index to m != 0.  Edge
        indices are piece indices: pl_lift puts the edges first, in X.edges
        order.  Rays are truncated.  InputError when _pl_sample_bound
        exceeds MAX_SAMPLE_POINTS."""
        _check_sample_size(_pl_sample_bound(self, resolution))
        table = _curve_table(self.X)
        truncation = table.truncation if truncation is None else truncation
        thetas = _fiber_angles(resolution)
        pts = []
        for ei, piece in enumerate(self.pieces):
            if piece.kind != "edge":  # the vertices follow the edges, in X.vertices order
                v = table.vertices[ei - len(table.fibers), None]
                pts.append(_cylinder(v, _coamoeba_cloud(piece.fiber, resolution)))
                continue
            seg = _edge_param_points(table, ei, piece.cell.kind, resolution, truncation)
            m = (windings or {}).get(ei, 0)
            if m:
                s = np.linspace(0.0, 1.0, len(seg))[:, None]
                v = _dual_basis_vector(piece.cell.direction())
            for j in range(piece.fiber.w):
                ys = piece.fiber.points(thetas, j)
                if m:
                    yy = _twist_fibers(ys, m, s, v).reshape(-1, 2)
                    pts.append(np.concatenate([np.repeat(seg, len(ys), axis=0), yy], axis=1))
                else:
                    pts.append(_cylinder(seg, ys))
        return np.vstack(pts)

    def genus(self):
        return lift_topology(self.X).genus


def _fiber_angles(resolution):
    """The angles (k + 0.5) pi / resolution, k < resolution, at which every
    fiber circle is sampled.  At an odd resolution the middle one is pi/2,
    a vertex of the coamoeba, so smooth_lift takes even ones only."""
    return (np.arange(resolution) + 0.5) * PI / resolution


def _cylinder(base, fiber):
    """Rows (x, y) for every base point x (outer) and fiber point y (inner)."""
    return np.concatenate([np.repeat(base, len(fiber), axis=0),
                           np.tile(fiber, (len(base), 1))], axis=1)


# Most points a smooth or PL lift sample may hold, checked against an upper
# bound before sampling.  `troplag lift triangle` at resolution 256 and 384
# (1.20 M and 2.69 M points) peaked at 266 and 521 MiB on a 2-vCPU Linux
# host, about 180 bytes a point over 61 MiB, so a run at this limit needs
# at most about 1.5 GB.
MAX_SAMPLE_POINTS = 8_000_000


def _check_sample_size(bound):
    if bound > MAX_SAMPLE_POINTS:
        raise InputError(f"the sample would hold up to {bound} points, more than "
                         f"{MAX_SAMPLE_POINTS}; lower the resolution")


def _pl_sample_bound(pl, resolution):
    """Upper bound on the rows of PLLift.sample: a triangle coamoeba holds
    (r+1)(r+2) points and any other vertex fiber at most its (4r)^2 grid; an
    edge holds w circles of r points over r base points (2r - 1 on a line,
    counted as 2r)."""
    r = resolution
    n = 0
    for piece in pl.pieces:
        if piece.kind == "edge":
            n += piece.fiber.w * r * (2 * r if piece.cell.kind == "line" else r)
        else:
            n += (r + 1) * (r + 2) if _triangle_fiber(piece.fiber) else 16 * r * r
    return n


def _edge_param_points(table, ei, kind, resolution, truncation):
    """Base points of edge ei of the curve table: along a segment, and out
    to the truncation on a ray or both ways on a line."""
    a, b = table.ends[ei]  # b: the far end of a segment, else the direction
    if kind == "segment":
        ts = np.linspace(0.0, 1.0, resolution)
        return a[None, :] + ts[:, None] * (b - a)[None, :]
    tmax = truncation / table.length[ei]
    ts = np.linspace(0.0, 1.0, resolution) * tmax
    pts = a[None, :] + ts[:, None] * b[None, :]
    if kind == "line":
        pts = np.vstack([pts, a[None, :] - ts[1:, None] * b[None, :]])
    return pts


def _triangle_fiber(fiber):
    return hasattr(fiber, "cell") and fiber.cell.dim == 2 and len(fiber.cell.vertices) == 3


def _coamoeba_cloud(fiber, resolution):
    """Sample points of a 2-cell coamoeba (plus and minus halves)."""
    if _triangle_fiber(fiber):
        v = np.array(fiber.cell.vertices, dtype=float) * PI / 2
        # barycentric grid i + k <= resolution, i outer and k inner
        i, k = np.triu_indices(resolution + 1)
        k = k - i
        p = (v[0] + (i / resolution)[:, None] * (v[1] - v[0])
             + (k / resolution)[:, None] * (v[2] - v[0]))
        out = np.empty((2 * len(p), 2))
        out[0::2] = reduce_mod_pi(p)
        out[1::2] = reduce_mod_pi(-p)
        return out
    # covering or general fiber: rejection-sample the torus
    grid = np.linspace(0, PI, 4 * resolution, endpoint=False)
    yy = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
    return yy[fiber.contains(yy)]


def pl_lift(X):
    """PL lift pieces for every curve cell of positive-dimensional dual.

    Vertex fibers are cell coamoebas for unimodular duals and pulled-back
    covering coamoebas for weighted trivalent vertices (whose fibers carry
    the parallel face copies the edge fibers must match).  InputError as
    _curve_table.
    """
    from .coamoeba import CellCoamoeba, CoveringCoamoeba
    pieces = [PLPiece("edge", e, f) for e, f in zip(X.edges, _curve_table(X).fibers)]
    for cell in X.cells:
        if cell.kind != "vertex":
            continue
        v, dual = cell.verts[0], X.dual_cell(cell)
        if dual.is_elementary_simplex() or len(X.edges_at(v)) != 3:
            fiber = CellCoamoeba(dual)
        else:
            fiber = CoveringCoamoeba(tangent_line(X, v))
        pieces.append(PLPiece("vertex", cell, fiber))
    return PLLift(X, pieces)


# ---------------------------------------------------------------------------
# Lagrangian mesh

@dataclass
class MeshPiece:
    tag: str             # "pants" | "collar" | "flat"
    owner: tuple         # (vertex index,) or (vertex index, leg) or (edge index,)
    points: np.ndarray   # (n, 4): x1 x2 y1 y2
    frames: np.ndarray   # (n, 2, 4)
    grid: tuple = None   # grid shape for face export


class LagrangianMesh:
    """A smooth lift of the curve X, with its scale and schedule: (N, 4)
    points and (N, 2, 4) frames, allocated empty, and per entry (tag, owner,
    rows, grid) of layout a piece that views its rows of both, in order;
    starts holds the start row of each piece, and N last."""

    def __init__(self, X, layout, scale, schedule):
        self.X = X
        self.scale = scale
        self.schedule = schedule
        ends = self.starts = np.cumsum([0] + [rows for _, _, rows, _ in layout])
        self.points = np.empty((ends[-1], 4))
        self.frames = np.empty((ends[-1], 2, 4))
        self.pieces = [MeshPiece(tag, owner, self.points[a:b], self.frames[a:b], grid)
                       for (tag, owner, _, grid), a, b in zip(layout, ends, ends[1:])]
        self._export = {}    # projection -> _export_rows; cleared by twist

    def to_off(self, path, projection="xxy"):
        n, blocks, faces, (records, counts) = self._export_rows(projection)
        with open(path, "wb") as fh:
            fh.write(b"OFF\n%d %d 0\n" % (n, len(faces)))
            fh.writelines(b.encode() for b in blocks)
            fh.writelines(_int_rows(b"4 ", faces, records, counts))

    def to_obj(self, path, projection="xxy"):
        n, blocks, faces, (records, counts) = self._export_rows(projection)
        with open(path, "wb") as fh:
            for block in blocks:
                fh.write(("v " + block[:-1].replace("\n", "\nv ") + "\n").encode())
            fh.writelines(_int_rows(b"f ", faces, records[1:], counts[1:]))  # from 1

    _PROJ = {"xxy": (0, 1, 2), "xyy": (0, 2, 3), "x1y": (0, 2, 1), "x2y": (1, 2, 3)}

    def _export_rows(self, projection):
        """(vertex count n, vertex text blocks, quads, digit table of 0..n)
        shared by to_off and to_obj, formatted on the first export of a
        projection: each block holds _EXPORT_BLOCK rows "x y z\n" of the
        projected vertices, kept as str and encoded as written (caching the
        encoded blocks, each made from a str freed at once, fragments the
        heap), and the quads are vertex indices, shape (F, 4), piece by
        piece in row-major grid order."""
        if projection in self._export:
            return self._export[projection]
        cols = self._PROJ.get(projection)
        if cols is None:
            raise InputError(f"unknown projection {projection!r}")
        faces = [np.zeros((0, 4), dtype=np.int64)]
        offset = 0
        for p in self.pieces:
            if p.grid is not None:
                nu, nv = p.grid
                a = offset + (np.arange(nu - 1)[:, None] * nv + np.arange(nv - 1)).ravel()
                faces.append(np.stack([a, a + 1, a + nv + 1, a + nv], axis=1))
            offset += len(p.points)
        pts = self.points[:, cols]
        blocks = ["%.9g %.9g %.9g\n" * len(b) % tuple(b.ravel().tolist())
                  for b in (pts[s:s + _EXPORT_BLOCK] for s in range(0, len(pts), _EXPORT_BLOCK))]
        rows = (len(pts), blocks, np.vstack(faces), _digit_table(0, len(pts)))
        self._export[projection] = rows
        return rows


# Rows per block of export text: bounds the text made at once.
_EXPORT_BLOCK = 1 << 14


def _digit_table(lo, hi):
    """(records, counts) for the ints lo..hi >= 0: records[i] holds the
    right-aligned ASCII digits of lo + i as one W-byte record (a V{W}
    array, W = len(str(hi))) and counts[i] their number."""
    w = len(str(hi))
    k = np.arange(lo, hi + 1)
    digits = np.empty((len(k), w), dtype=np.uint8)
    for j in range(w):
        digits[:, w - 1 - j] = k // 10 ** j % 10 + 48
    counts = (1 + np.searchsorted(10 ** np.arange(1, w), k, side="right")).astype(np.uint8)
    return digits.view(f"V{w}").ravel(), counts


def _int_rows(prefix, rows, records, counts):
    """The text (prefix + "%d %d ... %d\n") % tuple(row) for every row of an
    int array, where the number i is written as the _digit_table entry
    (records[i], counts[i]): uint8 arrays of a run of rows each.  Each run
    of rows whose numbers have the same digit counts is filled at fixed
    columns."""
    w = records.itemsize
    for s in range(0, len(rows), _EXPORT_BLOCK):
        block = rows[s:s + _EXPORT_BLOCK]
        recs = records.take(block).view(np.uint8).reshape(*block.shape, w)
        cnt = counts.take(block)
        keys = cnt.view(f"V{cnt.shape[1]}").ravel()  # a row's digit counts as one record
        cuts = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), len(block)]
        for a, b in zip(cuts, cuts[1:]):
            c = cnt[a].tolist()
            out = np.full((b - a, len(prefix) + sum(c) + len(c)), 32, dtype=np.uint8)
            out[:, :len(prefix)] = list(prefix)
            pos = len(prefix)
            for j, cj in enumerate(c):
                out[:, pos:pos + cj] = recs[a:b, j, w - cj:]
                pos += cj + 1
            out[:, -1] = 10
            yield out


# ---------------------------------------------------------------------------
# construction of the smooth lift

# The pants over a vertex depend on the vertex only through an integral
# affine map: smooth_lift solves and evaluates every piece in standard
# coordinates, once per distinct row of (lam, leg cuts), and maps it to each
# vertex of that row by the vertex's rows v, B, A and y_c of the curve table.

def _body_grid(resolution):
    """Torus points of the plus half of the pants body grid."""
    res = max(8, resolution)
    grid = (np.arange(res) + 0.5) / res
    l1, l2 = np.meshgrid(grid, grid)
    keep = (l1 + l2) < 1.0 - 1e-9
    return np.stack([l1[keep], l2[keep]], axis=1) * (PI / 2)


@lru_cache(maxsize=1)
def _unit_pants(resolution):
    """Scale-free tables of the pants over a vertex at this resolution,
    read-only; every scale lam reads them through scaled_h and
    hessian_rows, so its bits are those of PantsMap(1, lam).

    - body: at the plus half of _body_grid, the terms of h
      (PantsMap._h_terms) and the Hessian over lam in columns, not
      symmetrized (PantsMap._hessian_core).  The minus half has the same
      plus representative, bit for bit: the same h, and the Hessian times
      -1.
    - charts: the blow-up collar grid around the exceptional circle of
      vertex 0, stacked with its four difference stencils (alpha +- da,
      t +- dt): the h_chart terms (num, den) of each, shapes (5, G, 2) and
      (5, G, 1), the torus points, shape (5, G, 2), and the stencil widths
      2 da and 2 dt, shape (G,).  The circles of vertices 1 and 2 are
      their images under r_apply and rstar_apply."""
    terms, core = PantsMap(1)._unit_terms(_body_grid(resolution))
    res_a = max(8, resolution // 2)
    res_t = max(6, resolution // 4)
    alphas = np.exp(np.linspace(np.log(2e-2), np.log(5e1), res_a))
    A, Tn = np.meshgrid(alphas, np.linspace(-1.0, 1.0, res_t), indexing="ij")
    a = A.ravel()
    tcap = np.minimum(0.3 * PI / 2, 0.9 * (PI / 2) / (1.0 + a))
    t = Tn.ravel() * tcap
    da, dt = 1e-5 * a, 1e-5 * tcap
    aa = np.stack([a, a + da, a - da, a, a])
    tt = np.stack([t, t, t, t + dt, t - dt])
    num, den = h_chart_terms(1, aa.reshape(-1, 1), tt.ravel())
    charts = (num.reshape(5, -1, 2), den.reshape(5, -1, 1), np.stack([tt * aa, tt], axis=-1),
              2 * da, 2 * dt)
    for arr in (*terms[:2], *(rows for rows, _ in terms[2]), core, *charts):
        arr.setflags(write=False)
    return (terms, core), charts


def _within_trims(h, trims):
    """Rows of standard-side points h whose leg coordinates are all at most
    trims, one per leg."""
    return np.all(_leg_coordinates(h) <= trims[:, None], axis=0)


def _standard_pants(lam, legs_lat, resolution):
    """The trimmed pants over a vertex at scale lam, in standard
    coordinates, from _unit_pants: the body and the chart collars whose
    leg coordinates are all at most r'' (legs_lat[j, 1], leg j's cuts in
    lattice units).

    Returns (body, charts).  body is (h, y, H): the kept grid points, plus
    half then minus half, and their symmetric Hessians.  charts is (h, y,
    2 da, 2 dt): the standard points of the kept collar points around the
    exceptional circles k = 0, 1, 2, in that order, followed by the same
    rows of each of their four stencils, shape (5K, 2) each, and the
    stencil widths, shape (K, 1) each."""
    (terms, core), (num, den, y0, da2, dt2) = _unit_pants(resolution)
    trims = legs_lat[:, 1]
    h = scaled_h(1, lam, terms)
    keep = _within_trims(h, trims)
    h, y, core = h[keep], _body_grid(resolution)[keep], core[:, :, keep]
    sign = np.repeat([1.0, -1.0], len(h))
    body = (np.concatenate([h, h]), np.concatenate([y, -y]),
            hessian_rows(np.concatenate([core, core], axis=2), lam, sign))
    x = lam * num / den
    hs, ys, keeps = [], [], []
    for k in (0, 1, 2):
        xk = rstar_apply(1, k, x) if k else x
        keep = _within_trims(xk[0], trims)
        hs.append(xk[:, keep])
        ys.append(r_apply(1, k, y0[:, keep]) if k else y0[:, keep])
        keeps.append(np.flatnonzero(keep))
    keep = np.concatenate(keeps)
    charts = (np.concatenate(hs, axis=1).reshape(-1, 2),
              np.concatenate(ys, axis=1).reshape(-1, 2), da2[keep, None], dt2[keep, None])
    return body, charts


def _pants_vertex_piece(table, vi, pants, piece):
    """Fill the piece with the trimmed pants over vertex vi of the curve
    table, from _standard_pants: body, then chart collars.  The body's
    frames are its Hessian columns; the chart collars' are finite
    differences of their stencils, taken after the map to the vertex (on
    the raw torus lift, so nothing crosses the fundamental-domain cut)."""
    (h, y, H), (hc, yc, da2, dt2) = pants
    N, P, fr = len(h), piece.points, piece.frames
    v, B, A, y_c = table.vertices[vi], table.B[vi], table.A[vi], table.y_c[vi]
    P[:N, :2] = v + h @ B.T
    P[:N, 2:] = reduce_mod_pi(y_c + y @ A)
    for i in range(2):
        fr[:N, i, :2] = H[:, :, i] @ B.T
    fr[:N, :, 2:] = A  # the unit vectors times A, row by row
    P0, Pa_up, Pa_dn, Pt_up, Pt_dn = np.split(
        np.concatenate([v + hc @ B.T, y_c + yc @ A], axis=1), 5)
    P[N:, :2] = P0[:, :2]
    P[N:, 2:] = reduce_mod_pi(P0[:, 2:])
    fr[N:, 0] = (Pa_up - Pa_dn) / da2
    fr[N:, 1] = (Pt_up - Pt_dn) / dt2


def _collar_grid(legs_lat, resolution):
    """The columns leg j, leg coordinate S, fiber angle T and cutoff eta,
    eta', eta'' at S of a vertex's collar rows, leg by leg as the mesh lays
    them out, for leg cuts legs_lat (row j: leg j's r', r'', rbar and r in
    lattice units).  Row j r^2 + i r + k lies at the i-th of r = resolution
    leg coordinates from r' to r and at the k-th fiber angle."""
    n, thetas = resolution * resolution, _fiber_angles(resolution)
    legs = []
    for j, (r1, r2, rbar, r) in enumerate(legs_lat):
        s = np.linspace(r1, r, resolution)
        cutoff = Cutoff(r2, rbar)
        legs.append((np.full(n, j), np.repeat(s, resolution), np.tile(thetas, resolution),
                     *(np.repeat(f(s), resolution)
                       for f in (cutoff.eta, cutoff.eta_prime, cutoff.eta_second))))
    return [np.concatenate(column) for column in zip(*legs)]


def _collar_sheets(lam, grid):
    """Collar rows at scale lam in standard coordinates: on the rows grid
    (columns as _collar_grid's, the legs in increasing order), the graph of
    d(eta * G) in leg-j working coordinates at leg coordinate S and fiber
    angle T.  Returns x and y, shape (3, m, 2): the base and torus parts of
    each row's point and of its derivatives along S and T.  The legs share
    the scale and, in working coordinates, the face J = {1}: one fiber solve
    and one evaluation of the potential serve all of them, and the working
    map applies to each leg's run of rows.  Every step works row by row, so
    a block of rows gets the bits it gets as part of the whole grid."""
    leg, S, T, eta, etap, etas = grid
    pm = PantsMap(1, lam)
    q = _fiber_circle(pm, 1, S, T)
    Fq, hq, Hq = pm._evaluate(q, "FhH")
    G = -Fq + S * q[:, 0]
    x, y = np.empty((2, 3, len(S), 2))
    x[0, :, 0], x[0, :, 1] = S, eta * hq[:, 1]
    y[0, :, 0], y[0, :, 1] = etap * G + eta * q[:, 0], T
    x[1, :, 0], x[1, :, 1] = 1.0, etap * hq[:, 1] + eta * Hq[:, 1, 0] / Hq[:, 0, 0]
    y[1, :, 0], y[1, :, 1] = etas * G + 2 * etap * q[:, 0] + eta / Hq[:, 0, 0], 0.0
    x[2, :, 0] = 0.0
    x[2, :, 1] = eta * (Hq[:, 1, 1] - Hq[:, 1, 0] * Hq[:, 0, 1] / Hq[:, 0, 0])
    y[2, :, 0], y[2, :, 1] = -etap * hq[:, 1] - eta * Hq[:, 0, 1] / Hq[:, 0, 0], 1.0
    runs = np.searchsorted(leg, np.arange(4))
    for j, (a, b) in enumerate(zip(runs, runs[1:])):
        _working_to_std(j, x[:, a:b], y[:, a:b])
    return x, y


def _working_to_std(j, x, y):
    """Map in place the base and torus parts x, y (shape (3, m, 2)) of points
    and then two tangent vectors from leg-j working coordinates (the leg the
    first axis, the fiber circle the second torus one) to standard ones: an
    involution, the axes swapped on leg 2 and, on leg 0, the vertex
    involution exchanging p_0 and p_1, which moves points by pi/2."""
    if j == 2:
        x[...] = x[..., ::-1]
        y[...] = y[..., ::-1]
    elif j == 0:
        x[..., 1] -= x[..., 0]
        np.negative(x[..., 0], out=x[..., 0])
        y[..., 0] = -(y[..., 0] + y[..., 1])
        y[0, :, 0] += PI / 2


def _collar_block(table, lam, grid, targets):
    """One block of collar rows: _collar_sheets once on the rows grid of
    _collar_grid, mapped to each target (vi, P, fr), by the rows of vertex
    vi of the curve table, and written into its rows P and fr, of shapes
    (m, 4) and (m, 2, 4)."""
    x, y = _collar_sheets(lam, grid)
    for vi, P, fr in targets:
        B, A = table.B[vi], table.A[vi]
        P[:, :2] = table.vertices[vi] + x[0] @ B.T
        P[:, 2:] = reduce_mod_pi(table.y_c[vi] + y[0] @ A)
        for i in range(2):
            fr[:, i, :2] = x[i + 1] @ B.T
            fr[:, i, 2:] = y[i + 1] @ A


def _fiber_circle(pm, j, target, thetas):
    """Points q of the n = 1 pants with h_j(q) = target whose other
    coordinate is the fiber angle: angles past pi/2 are mirrored onto the
    plus half, solved there and negated back."""
    minus = thetas > PI / 2
    wp = np.zeros((len(thetas), 2))
    wp[:, 2 - j] = np.where(minus, PI - thetas, thetas)
    q = solve_leg_fiber(pm, j, target, wp, 1e-13, 80)
    return np.where(minus[:, None], -q, q)


def _flat_pieces(table, sched, points, frames, resolution):
    """Fill the rows points (E r^2, 4) and frames (E r^2, 2, 4) with the
    flat cylinders over the curve table's E edges, r^2 rows each at
    resolution r, in edge order: over each edge between the cut point r of
    its leg at each vertex end and, on a ray, the truncation; row i r + k
    of an edge lies over base point i, fiber angle k.  NumericError, naming
    the first such edge, when a cylinder has no length in floats."""
    a, b = table.ends[:, 0], table.ends[:, 1]
    r = sched.cuts[table.legs[..., 0], table.legs[..., 1], 3]
    seg = table.segment[:, None]
    d = np.where(seg, b - a, b) / table.length[:, None]
    p0 = a + d * r[:, :1]
    p1 = np.where(seg, b - d * r[:, 1:], a + d * sched.truncation)
    step = p1 - p0
    length = np.array([np.linalg.norm(s) for s in step])  # one per edge, as in _CurveTable
    short = np.flatnonzero(~(length > 0))
    if len(short):  # the float sum rounds both ends to one point
        ei = int(short[0])
        raise NumericError("a flat cylinder has no length in floats: its edge lies too far "
                           "from the origin for its cut points",
                           {"edge": ei, "p0": p0[ei].tolist(), "p1": p1[ei].tolist()})
    ts = np.linspace(0.0, 1.0, resolution)
    base, circle = np.array([f.circles()[0] for f in table.fibers])[:, None].transpose(2, 0, 1, 3)
    grid = points.reshape(len(step), resolution, resolution, 4)
    grid[..., :2] = (p0[:, None] + ts[:, None] * step[:, None])[:, :, None]
    grid[..., 2:] = reduce_mod_pi(base + _fiber_angles(resolution)[:, None] * circle)[:, None]
    fr = frames.reshape(len(step), -1, 2, 4)
    fr[:, :, 0, :2] = (step / length[:, None])[:, None]
    fr[:, :, 0, 2:] = 0.0
    fr[:, :, 1, :2] = 0.0
    fr[:, :, 1, 2:] = np.array([f.direction for f in table.fibers], dtype=float)[:, None]


# Rows per collar block of smooth_lift.  On the lift's thread pool each
# block is one task; small blocks bound the memory that each worker's
# malloc arena keeps.  On a 2-CPU host, 2^14 rows added 15 MB to the peak
# RSS of a verify run, 2^13 about 6 MB, and 2^11 made the lift slower
# than one thread.
_LIFT_BLOCK = 1 << 13
# A lift whose collars make at most this many blocks per distinct vertex
# row (resolution 72 and below) is built on the calling thread alone: the
# pool's threads trade the interpreter lock at every numpy call on small
# arrays, and on a 2-CPU host two pooled blocks per vertex made the lift
# slower.
_LIFT_POOL_BLOCKS = 2


def _cpu_count():
    """CPUs this process may run on: smooth_lift's pool and the KD-tree
    queries of hausdorff_distance use this many threads."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _smooth_sample_bound(X, resolution):
    """Upper bound on the points of smooth_lift: per vertex the pants body
    (below its grid of max(8, r)^2), three collars of r^2 and the three
    chart collars of _unit_pants; per edge a flat cylinder of r^2."""
    r = resolution
    vertex = max(8, r) ** 2 + 3 * r * r + 3 * max(8, r // 2) * max(6, r // 4)
    return len(X.vertices) * vertex + len(X.edges) * r * r


# A collar's leg-fiber root must clear this much: the Hessian's margin,
# plus the rounding of q + pi/4 when _evaluate reduces q mod pi.
_COLLAR_MARGIN = HESSIAN_MARGIN + np.spacing(PI / 4)


def _smallest_scale(lam, legs_lat, resolution):
    """The scale t at and below which the leg-fiber root of some collar
    point lies within _COLLAR_MARGIN of q_1 = 0, for the vertices' pants
    scales lam and leg cuts legs_lat (the schedule's cuts in lattice units).
    h_1 decreases along each fiber and is lam times its value at lam = 1,
    so the root of h_1 = S clears the margin iff S < t lam h_1(margin, b)
    at lam = 1; the largest S is the collar's outer end r, at every fiber
    angle b."""
    thetas = _fiber_angles(resolution)
    b = np.where(thetas > PI / 2, PI - thetas, thetas)
    h = PantsMap(1).h(np.stack([np.full_like(b, _COLLAR_MARGIN), b], axis=1))[:, 0]
    return (legs_lat[:, :, 3].max(axis=1) / lam).max() / h.min()


def _lift_vertex_row(mesh, table, vertices, lam, legs_lat, pants, resolution, pool):
    """Fill the pieces (pants, then three collars) of the vertices (indices
    into the curve table's vertices) that share one distinct row of scale
    lam and leg cuts legs_lat (a vertex's (3, 4) row of the
    schedule's cuts in lattice units): its pants (from _standard_pants) and
    collars are built once, in standard coordinates, and mapped to each
    vertex.  Each block of _LIFT_BLOCK rows of _collar_grid is one
    _collar_block call (one fiber solve) on that slice of the grid and of
    every vertex's collar rows.  With a pool, the collar blocks run on it
    while the calling thread maps the pants; the first failing block in row
    order raises."""
    grid = _collar_grid(legs_lat, resolution)
    n = len(grid[0])
    collars = [(vi, mesh.points[c:c + n], mesh.frames[c:c + n])
               for c, vi in zip(mesh.starts[4 * vertices + 1], vertices)]
    blocks = [(table, lam, [a[rows] for a in grid],
               [(vi, P[rows], fr[rows]) for vi, P, fr in collars])
              for rows in (slice(s, s + _LIFT_BLOCK) for s in range(0, n, _LIFT_BLOCK))]
    if pool is not None:
        futures = [pool.submit(_collar_block, *block) for block in blocks]
    for vi in vertices:
        _pants_vertex_piece(table, vi, pants, mesh.pieces[4 * vi])
    if pool is None:
        for block in blocks:
            _collar_block(*block)
    else:
        for future in futures:
            future.result()  # raises the first failing block's error, in row order


def smooth_lift(X, t=1.0, sched=None, resolution=128):
    """One member of the shrinking family of smooth Lagrangian lifts.

    Pieces: trimmed pants over each vertex, Legendre collars over each
    (vertex, leg) with the smooth cutoff, flat cylinders over each edge
    middle; the whole pants scale is multiplied by t.  Without sched, the
    default schedule is used (the mesh keeps it as .schedule).
    InputError when the resolution is odd, the curve has no vertex or
    _smooth_sample_bound exceeds MAX_SAMPLE_POINTS, before any schedule or
    sample is computed, and when t is at or below _smallest_scale, before
    any sample is computed.
    """
    if not 0 < t <= 1:
        raise InputError("scale t must lie in (0, 1]")
    if resolution % 2:
        raise InputError("resolution must be even: at an odd resolution the middle "
                         "fiber angle (k + 0.5) pi / r is pi/2, a vertex of the coamoeba")
    from .tropical import is_smooth
    if not is_smooth(X):
        raise InputError("smooth lifting needs a smooth curve")
    table = _curve_table(X, frames=True)  # InputError for a curve without vertices
    _check_sample_size(_smooth_sample_bound(X, resolution))
    if sched is None:
        sched = default_schedule(X)  # validated there
    else:
        validate_schedule(X, sched)
    lam, legs_lat = sched.lam, sched.cuts / table.norms[:, :, None]
    t_min = _smallest_scale(lam, legs_lat, resolution)
    if t <= t_min:
        raise InputError(f"--scale {t:g} is too small for this curve and schedule: "
                         f"it must exceed {t_min:.6g}, below which a collar's fiber "
                         f"solve comes within {HESSIAN_MARGIN:g} of a coamoeba face")
    # The pants and collars of a vertex depend only on its row of lam and
    # leg cuts, so each distinct row is built once and mapped to each of
    # its vertices, in the order of its first vertex.  The rows' pants sizes
    # lay out the mesh: per vertex its pants and three collars, then the
    # edges' flat cylinders.  A row's collar blocks run on a thread pool,
    # while the calling thread maps its pants, only when they are many
    # enough to pay for the pool; otherwise on the calling thread.
    lams = t * lam
    first, row_of = _distinct_rows(lams, legs_lat)
    pants = [_standard_pants(lams[f], legs_lat[f], resolution) for f in first]
    n, grid = resolution * resolution, (resolution, resolution)
    layout = []
    for vi, d in enumerate(row_of):
        (h, _, _), (_, _, da2, _) = pants[d]
        layout += [("pants", (vi,), len(h) + len(da2), None),
                   *(("collar", (vi, j), n, grid) for j in range(3))]
    layout += [("flat", (ei,), n, grid) for ei in range(len(X.edges))]
    mesh = LagrangianMesh(X, layout, t, sched)
    workers = _cpu_count()
    pool = None
    if workers > 1 and 3 * resolution * resolution > _LIFT_POOL_BLOCKS * _LIFT_BLOCK:
        # imported on first use, like scipy: lifts without a pool do not
        # pay for it
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(workers)
    try:
        for d in np.argsort(first):
            _lift_vertex_row(mesh, table, np.flatnonzero(row_of == d), lams[first[d]],
                             legs_lat[first[d]], pants[d], resolution, pool)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    flat = mesh.starts[4 * len(lam)]
    _flat_pieces(table, sched, mesh.points[flat:], mesh.frames[flat:], resolution)
    return mesh


# ---------------------------------------------------------------------------
# verification quantities

def symplectic_residual(mesh):
    """max |omega(v, w)| over the sampled tangent frames of the mesh, with
    omega(v, w) = (<v_x, w_y> - <w_x, v_y>) / pi.  Each pairing is written
    as its two products; rounding is monotone, so dividing the largest
    |<v_x, w_y> - <w_x, v_y>| by pi gives the largest quotient.
    NumericError, naming the first row and its piece, when a frame is not
    finite."""
    worst = 0.0
    for s in range(0, len(mesh.frames), _LIFT_BLOCK):  # bounds the temporaries
        (v0, v1, v2, v3), (w0, w1, w2, w3) = mesh.frames[s:s + _LIFT_BLOCK].transpose(1, 2, 0)
        om = np.abs((v0 * w2 + v1 * w3) - (w0 * v2 + w1 * v3))
        if not np.isfinite(om).all():
            row = s + int(np.argmin(np.isfinite(om)))
            piece = mesh.pieces[int(np.searchsorted(mesh.starts, row, side="right")) - 1]
            raise NumericError("the mesh has a non-finite tangent frame",
                               {"row": row, "piece": [piece.tag, *map(int, piece.owner)]})
        worst = max(worst, float(om.max()))
    return worst / PI


def _fold_fiber(cloud):
    """The cloud as a C-contiguous float array with its fiber coordinates
    in [0, pi): the cloud itself when it is one already (the mesh points
    and PL samples are), otherwise a folded copy."""
    cloud = np.asarray(cloud)
    y = cloud[:, 2:]
    if cloud.dtype == np.float64 and cloud.flags.c_contiguous and y.min() >= 0 and y.max() < PI:
        return cloud
    out = np.array(cloud, dtype=float, order="C")
    y = np.mod(out[:, 2:], PI)
    y[y >= PI] = 0.0  # np.mod rounds tiny negative values up to pi itself
    out[:, 2:] = y
    return out


# Approximation factor of the bounding query in hausdorff_distance: each
# returned distance is at most (1 + eps) times the nearest distance.
_HAUSDORFF_EPS = 3.0
# Rows per anchor group of the certificate in _leaf_bounds, taken in the
# leaf order of the cloud's own KD-tree (leafsize 16).
_HAUSDORFF_STRIDE = 32


def hausdorff_distance(cloud_a, cloud_b):
    """Symmetric point-sample Hausdorff distance in the product metric
    (Euclidean base x flat torus fiber).

    Each cloud goes into a KD-tree with boxsize (0, 0, pi, pi): a box size
    of zero leaves the two base axes non-periodic, and pi makes the fiber
    axes wrap, so the nearest-neighbour distances are exact torus distances
    without translated copies of the clouds.

    The maximum is certified with few queries.  The rows of each cloud, in
    the leaf order of its own tree, form groups of _HAUSDORFF_STRIDE nearby
    rows, and only each group's middle row (its anchor) is queried exactly
    in the other tree.  The distance to a cloud is 1-Lipschitz, so a row's
    nearest distance is at most its anchor's plus its own distance to the
    anchor.  The largest anchor distance of either direction is a lower
    bound lo on the result.  Only rows whose bound (inflated by a relative
    1e-9 and an absolute 1e-12 against rounding) exceeds lo get an
    approximate query (eps = 3), a second upper bound; the row with the
    largest such bound is queried exactly to raise lo, and the rows whose
    bound still exceeds lo are queried exactly.  The direction from cloud_b
    finishes first, and its lo is carried into the direction from cloud_a:
    the callers pass the PL cloud as cloud_b, which holds the maximum at
    small scales and so prunes the larger mesh.  A point's exact distance
    does not depend on which other points are queried, so the result is the
    same float as exact queries of all points in both directions, whatever
    the thread timing and however many threads (_cpu_count) the queries use.

    The two trees are built side by side: cloud_b's on one worker thread
    while the calling thread builds cloud_a's (the callers' larger cloud).
    The worker is joined before anything else runs, also when either build
    raises.  Every query then runs on the calling thread, and the KD-tree
    spreads each query of many rows over _cpu_count() threads of its own.

    ValueError if either cloud holds NaN or inf.
    """
    if len(cloud_a) == 0 or len(cloud_b) == 0:
        raise InputError("empty sampling")
    if not (np.isfinite(cloud_a).all() and np.isfinite(cloud_b).all()):
        raise ValueError("point clouds must be finite")
    A, B = _fold_fiber(cloud_a), _fold_fiber(cloud_b)
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(1) as pool:
        worker = pool.submit(_fiber_tree, B)
        tree_a = _fiber_tree(A)
    tree_b = worker.result()
    bound_b, lo_b = _leaf_bounds(B, tree_b, tree_a)
    bound_a, lo_a = _leaf_bounds(A, tree_a, tree_b)
    lo = _finish_directed(B, tree_a, bound_b, max(lo_a, lo_b))
    return float(_finish_directed(A, tree_b, bound_a, lo))


def _fiber_tree(cloud):
    """KD-tree of a folded cloud, periodic in the fiber axes; the tree
    keeps the cloud uncopied."""
    # imported on first use: only a Hausdorff distance needs scipy, and
    # importing it with this module doubled the start-up of every command
    from scipy.spatial import cKDTree
    return cKDTree(cloud, boxsize=(0.0, 0.0, PI, PI), balanced_tree=False,
                   copy_data=False)


def _leaf_bounds(P, tree, other):
    """Anchor bounds of the certificate of hausdorff_distance for the rows
    of P, the cloud of tree: each anchor is queried exactly in other, and
    each row's bound is inflated as hausdorff_distance says.  Returns the
    bounds, indexed like P, and the largest anchor distance."""
    n, stride, order = len(P), _HAUSDORFF_STRIDE, tree.indices
    # the rows in leaf order as (groups, stride, 4): np.resize pads the last
    # group with the first rows again, whose bounds are dropped
    step = P[np.resize(order, (-(-n // stride), stride))]
    groups = np.arange(len(step))
    anchors = step[groups, np.minimum(stride, n - stride * groups) // 2]
    d_anchor = other.query(anchors, k=1, workers=_cpu_count())[0]
    step -= anchors[:, None]
    np.abs(step, out=step)
    fiber = step[..., 2:]
    # min(f, pi - f) in place; pi - f is exact for f in [pi/2, pi)
    np.subtract(PI, fiber, out=fiber, where=fiber > PI / 2)
    dist = np.sqrt(np.einsum("gsj,gsj->gs", step, step))
    dist += d_anchor[:, None]
    dist *= 1.0 + 1e-9
    dist += 1e-12
    bound = np.empty(n)
    bound[order] = dist.ravel()[:n]
    return bound, d_anchor.max()


def _finish_directed(P, tree, bound, lo):
    """Finishing phase of the certificate: the larger of lo and the largest
    exact nearest distance from a row of P to the tree's cloud, querying
    only the rows whose bound from _leaf_bounds exceeds lo."""
    workers = _cpu_count()
    far = P[bound > lo]
    if len(far):
        approx = tree.query(far, k=1, eps=_HAUSDORFF_EPS, workers=workers)[0]
        lo = max(lo, tree.query(far[np.argmax(approx)], k=1)[0])
        far = far[approx > lo]
    return max(lo, tree.query(far, k=1, workers=workers)[0].max()) if len(far) else lo


# ---------------------------------------------------------------------------
# twisting

def _twist_fibers(y, m, s, v):
    """Fiber points y over edge parameters s in [0, 1], rotated by
    pi * m * psi(s) times v (the edge's _dual_basis_vector), mod pi; s
    broadcasts against the rows of y."""
    return np.mod(y + (PI * m * _BUMP.psi(s))[..., None] * v, PI)


def _dual_basis_vector(u):
    """Integer v with <u, v> = 1 for primitive u, as floats."""
    a, b = int(u[0]), int(u[1])
    g, x, y = _egcd(a, b)
    if g != 1:
        raise InputError("edge tangent is not primitive")
    return np.array((x, y), dtype=float)


def _egcd(a, b):
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _egcd(b, a % b)
    return (g, y, x - (a // b) * y)


def check_windings(X, windings):
    """InputError unless each edge index of windings is one of X.edges."""
    for ei in windings:
        if not 0 <= ei < len(X.edges):
            raise InputError(f"no edge with index {ei}")


def twist(mesh, windings):
    """Twist the mesh in place: the fibers over the flat piece of each edge
    index in windings rotate along it by its winding m (_twist_fibers).
    Only those rows' fiber coordinates and first frame vectors change.

    Returns (mesh, total class n_sigma = the sum of the windings).
    """
    X = mesh.X
    check_windings(X, windings)
    mesh._export.clear()
    for p in mesh.pieces:
        if p.tag != "flat" or p.owner[0] not in windings:
            continue
        m = windings[p.owner[0]]
        nu, nv = p.grid
        s = np.repeat(np.linspace(0.0, 1.0, nu), nv)
        arc = np.linalg.norm(p.points[(nu - 1) * nv, :2] - p.points[0, :2])
        v = _dual_basis_vector(X.edges[p.owner[0]].direction())
        p.points[:, 2:] = _twist_fibers(p.points[:, 2:], m, s, v)
        dpsi_darc = PI * m * _BUMP.psi_prime(s) / max(arc, 1e-300)
        p.frames[:, 0, 2:] += dpsi_darc[:, None] * v
    return mesh, int(sum(windings.values()))


# ---------------------------------------------------------------------------
# exactness

def exactness_check(X):
    """Integral of the canonical one-form over each fiber circle.

    For the edge on the line <e_f, x> = c_f the integral is c_f; the lift
    is exact iff every c_f vanishes.
    """
    constants = {}
    for i, e in enumerate(X.edges):
        u = e.direction()
        n = primitive((-u[1], u[0]))
        if n[0] < 0 or (n[0] == 0 and n[1] < 0):
            n = (-n[0], -n[1])
        base = e.verts[0]
        constants[i] = n[0] * base[0] + n[1] * base[1]
    exact = all(c == 0 for c in constants.values())
    return {"exact": exact, "constants": constants}


# ---------------------------------------------------------------------------
# Maslov phase winding

def phase_values(points, frames):
    """Complex Omega(v, w) on the frames, z_j = y_j + i x_j."""
    v, w = frames[:, 0, :], frames[:, 1, :]
    a1 = v[:, 2] + 1j * v[:, 0]
    a2 = v[:, 3] + 1j * v[:, 1]
    b1 = w[:, 2] + 1j * w[:, 0]
    b2 = w[:, 3] + 1j * w[:, 1]
    return a1 * b2 - a2 * b1


def maslov_winding(points, frames):
    """Winding number of the phase along a sampled closed loop.

    Works with the squared phase so the result is insensitive to frame
    orientation flips between neighboring samples.  Refuses loops whose
    consecutive phase steps exceed 1 radian: the wrap-around
    heuristic would alias and the integer could be silently wrong.
    """
    om = phase_values(points, frames)
    if np.any(np.abs(om) < 1e-14):
        raise NumericError("degenerate frame along the loop")
    ang = np.angle(om ** 2)
    d = np.diff(np.concatenate([ang, ang[:1]]))
    d = np.mod(d + PI, 2 * PI) - PI
    if np.abs(d).max() > 1.0:
        raise NumericError("phase steps too large; sample the loop more densely",
                           {"max_step": float(np.abs(d).max())})
    total = d.sum()
    return int(round(total / (2 * PI)))


def pants_basis_loop(lam, leg, x_value, resolution=700):
    """Fiber loop of the standard pants over a point of a leg, with frames.

    leg in {1, 2}; x_value is the leg coordinate (0 < x).  Returns
    (points, frames) sampled along the whole fiber circle.
    """
    pm = PantsMap(1, lam)
    q = _fiber_circle(pm, leg, np.full(resolution, x_value), _fiber_angles(resolution))
    h, H = pm._evaluate(q, "hH")
    pts = np.concatenate([h, q], axis=1)
    fr = np.empty((resolution, 2, 4))
    for i in range(2):
        fr[:, i, :2] = H[:, :, i]
        fr[:, i, 2 + i] = 1.0
        fr[:, i, 2 + (1 - i)] = 0.0
    return pts, fr

