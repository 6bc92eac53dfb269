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
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .coamoeba import PI, edge_fiber_from_dual, reduce_mod_pi, rstar_apply
from .errors import ConfigurationError, InputError, NumericError
from .pants import HESSIAN_MARGIN, PantsMap, h_chart_terms, solve_leg_fiber
from .tropical import adapted_frame, tangent_line, tangent_star
from .polyhedral import primitive


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


# ---------------------------------------------------------------------------
# vertex-local models

class LocalModel:
    """Adapted coordinates of a smooth curve vertex.

    Base side x = v + B x_std, torus side y = y_c + A^T y_std (mod pi) with
    B = [u_1 u_2], A = B^{-1}, y_c = (pi/2) v_0 for the dual-cell vertex v_0
    shared by the subdivision edges dual to the legs u_1 and u_2.
    """

    def __init__(self, X, v):
        self.v = np.array([float(c) for c in v])
        star, dirs, line = tangent_star(X, v)
        frame, (u0, u1, u2) = adapted_frame(line)
        self.u = {0: u0, 1: u1, 2: u2}
        self.A = np.array(frame.A, dtype=float)
        self.B = np.linalg.inv(self.A)
        # incident curve edges by leg label
        self.leg_edge = {}
        for e, d in zip(star, dirs):
            for j, uj in self.u.items():
                if tuple(d) == tuple(uj):
                    self.leg_edge[j] = e
        if len(self.leg_edge) != 3:
            raise InputError(f"vertex {v} has unmatched leg directions")
        # dual data: v0 = common vertex of the dual edges of legs 1 and 2
        f1 = X.dual_cell(self.leg_edge[1])
        f2 = X.dual_cell(self.leg_edge[2])
        common = set(f1.vertices) & set(f2.vertices)
        if len(common) != 1:
            raise InputError("dual edges of the two frame legs do not share a vertex")
        self.v0 = common.pop()
        self.y_c = np.array(self.v0, dtype=float) * PI / 2
        self.leg_norm = {j: float(np.hypot(*self.u[j])) for j in range(3)}

    def x_ambient(self, x_std):
        return self.v[None, :] + np.atleast_2d(x_std) @ self.B.T

    def y_ambient_raw(self, y_std):
        return self.y_c[None, :] + np.atleast_2d(y_std) @ self.A

    def y_ambient(self, y_std):
        return reduce_mod_pi(self.y_ambient_raw(y_std))

    def dx_ambient(self, dx_std):
        return np.atleast_2d(dx_std) @ self.B.T

    def dy_ambient(self, dy_std):
        return np.atleast_2d(dy_std) @ self.A

    @staticmethod
    def leg_coordinate(x_std, j):
        """Lattice coordinate along leg j of a standard-side point."""
        x_std = np.atleast_2d(x_std)
        if j == 1:
            return x_std[:, 0]
        if j == 2:
            return x_std[:, 1]
        return -x_std[:, 0]

    @staticmethod
    def to_working(j, x_std, y_std):
        """Map standard coordinates to leg-j working coordinates in which
        the leg is the first axis and the fiber circle the second torus
        coordinate; an involution."""
        x = np.atleast_2d(np.asarray(x_std, dtype=float))
        y = np.atleast_2d(np.asarray(y_std, dtype=float))
        if j == 1:
            return x.copy(), y.copy()
        if j == 2:
            return x[:, ::-1].copy(), y[:, ::-1].copy()
        # leg 0: conjugate by the vertex involution exchanging p_0 and p_1
        xw = np.stack([-x[:, 0], x[:, 1] - x[:, 0]], axis=1)
        yw = np.stack([PI / 2 - y.sum(axis=1), y[:, 1]], axis=1)
        return xw, yw

    from_working = to_working  # all three maps are involutions


# ---------------------------------------------------------------------------
# gluing schedule

@dataclass
class LegSchedule:
    r_prime: float
    r_second: float
    r_bar: float
    r: float

    def validate(self):
        if not (0 < self.r_prime < self.r_second < self.r_bar < self.r):
            raise ConfigurationError("leg parameters must satisfy r' < r'' < rbar < r")

    def as_dict(self):
        return asdict(self)


@dataclass
class GluingSchedule:
    """Ball radii, pants scales and leg cut points for a smooth lift.

    Leg parameters are ambient arc lengths from the vertex along the leg;
    `legs[(vi, j)]` holds a LegSchedule for leg j at vertex index vi.
    """

    ball_radius: dict
    lam: dict
    legs: dict
    truncation: float

    def to_json(self):
        return json.dumps({
            "ball_radius": {str(k): v for k, v in self.ball_radius.items()},
            "lam": {str(k): v for k, v in self.lam.items()},
            "legs": {f"{vi},{j}": ls.as_dict() for (vi, j), ls in self.legs.items()},
            "truncation": self.truncation,
        }, indent=2, sort_keys=True)

    @staticmethod
    def from_dict(d):
        """Schedule of a parsed to_json() object; InputError when an entry is
        missing, a key is not an integer or "vi,j", a leg has other fields
        than a LegSchedule, or a value is not a finite number."""
        def number(x):
            if isinstance(x, bool) or not math.isfinite(x):
                raise ValueError(f"{x!r} is not a finite number")
            return x

        def leg(key, ls):
            vi, j = (int(p) for p in key.split(","))
            return (vi, j), LegSchedule(**{f: number(v) for f, v in ls.items()})

        try:
            legs = dict(leg(key, ls) for key, ls in d["legs"].items())
            ball, lam = ({int(k): number(v) for k, v in d[name].items()}
                         for name in ("ball_radius", "lam"))
            return GluingSchedule(ball, lam, legs, number(d["truncation"]))
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


def _feasible(lam, B, legs_lat, ball_r):
    """Per vertex i, whether pants scale lam[i] keeps the trimmed body
    inside 0.9 x ball_r[i] and the arms slim enough to stay in their leg
    neighborhoods inside the ball.  B[i] is the vertex's frame matrix and
    legs_lat[i, j] its four leg-j cut points in lattice units."""
    ok = np.empty(len(lam), dtype=bool)
    for s in range(0, len(lam), _FEASIBLE_BLOCK):
        blk = slice(s, s + _FEASIBLE_BLOCK)
        cloud = _boundary_cloud(lam[blk])
        amb = cloud @ B[blk].transpose(0, 2, 1)
        r = np.sqrt(amb[..., 0] * amb[..., 0] + amb[..., 1] * amb[..., 1])
        R = ball_r[blk, None]
        far_body = r > 0.9 * R  # narrowed to the body points below
        in_arm = np.zeros_like(far_body)
        bad = np.zeros_like(far_body)
        # c_j, the leg-j coordinate, is also d_{j,k_j}: the V_{{j},k_j}
        # slack at the smallest admissible k_j (1 for leg 0, else 0)
        for j, c in enumerate((-cloud[..., 0], cloud[..., 0], cloud[..., 1])):
            r_prime, r_end = legs_lat[blk, j, 0, None], legs_lat[blk, j, 3, None]
            far_body &= c <= r_prime
            arm = (c >= r_prime) & (c <= r_end)
            in_arm |= arm
            bad |= arm & ~(c >= 1e-12)
        bad |= far_body | (in_arm & (r > R))
        ok[blk] = ~bad.any(axis=1)
    return ok


def _vertex_arrays(X):
    """Frame matrices of the curve's vertices, shape (V, 2, 2), and their
    lattice leg lengths, shape (V, 3)."""
    models = [_local_model(X, vi) for vi in range(len(X.vertices))]
    B = np.array([m.B for m in models]).reshape(-1, 2, 2)
    norms = np.array([[m.leg_norm[j] for j in range(3)] for m in models]).reshape(-1, 3)
    return B, norms


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
    each leg, rays truncated at _default_truncation, pants scales by
    bisection so the trimmed region sits inside 0.9 x ball.

    The gradient map h is linear in lambda, and the region it bounds is
    (n+1)^{n+1} x_1...x_{n+1} = lambda^{n+1}, so the boundary cloud tested
    at scale lam is lam times a unit cloud whose terms are computed once.
    Each vertex starts at hi = 2 x its shortest r' (lattice units) and
    takes hi if that is feasible, else the feasible end lo of 40 halvings
    of [hi / 1000, hi].  The scale depends only on the vertex's frame B
    and leg cuts, so only one vertex of each distinct (B, cuts) row is
    bisected, and its scale goes to every vertex of that row.  The rows
    run through the halvings in lockstep: each halving is one _feasible
    call on the rows still bisecting."""
    if X.subdivision is None:
        raise InputError("schedule needs a subdivision-backed curve")
    R = _BALL_FACTOR * X.min_vertex_distance()
    nv = len(X.vertices)
    B, norms = _vertex_arrays(X)
    cuts = [f * R for f in _LEG_CUT_FRACTIONS]
    legs_lat = np.array(cuts)[None, None, :] / norms[:, :, None]
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
    lam_v = lam_row[row_of]
    legs = {(vi, j): LegSchedule(*cuts) for vi in range(nv) for j in range(3)}
    sched = GluingSchedule({vi: R for vi in range(nv)},
                           {vi: float(lam_v[vi]) for vi in range(nv)}, legs,
                           _default_truncation(X))
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
    nv = len(X.vertices)
    if (set(sched.ball_radius) != set(range(nv)) or set(sched.lam) != set(range(nv))
            or set(sched.legs) != {(vi, j) for vi in range(nv) for j in range(3)}):
        raise ConfigurationError("schedule keys do not match the curve's vertices and legs")
    if not sched.truncation > 0:
        raise ConfigurationError("truncation must be positive")
    for (vi, j), ls in sched.legs.items():
        ls.validate()
        if ls.r > sched.ball_radius[vi]:
            raise ConfigurationError("leg cut points must stay inside the ball")
    ball_r = np.array([sched.ball_radius[vi] for vi in range(nv)], dtype=float)
    vs = np.array([[float(c) for c in v] for v in X.vertices]).reshape(-1, 2)
    if _balls_meet(vs, ball_r):
        raise ConfigurationError("vertex balls are not pairwise disjoint")
    # bounded edges keep a flat middle segment
    for e in X.bounded_edges():
        a, b = (np.array([float(c) for c in p]) for p in e.verts)
        length = np.linalg.norm(b - a)
        ia = X.vertex_index(e.verts[0])
        ib = X.vertex_index(e.verts[1])
        ja = _leg_of_edge(X, ia, e)
        jb = _leg_of_edge(X, ib, e)
        if sched.legs[(ia, ja)].r + sched.legs[(ib, jb)].r >= length:
            raise ConfigurationError("leg cut points overlap on a bounded edge")
    # rays keep a flat piece between the leg's cut point and the truncation
    for e in X.edges:
        if e.kind == "ray":
            vi = X.vertex_index(e.verts[0])
            if sched.truncation <= sched.legs[(vi, _leg_of_edge(X, vi, e))].r:
                raise ConfigurationError("truncation must lie beyond the cut point r "
                                         "of every ray's leg")
    # trimmed regions inside balls, at the scheduled scale
    B, norms = _vertex_arrays(X)
    cuts = np.array([[(ls.r_prime, ls.r_second, ls.r_bar, ls.r)
                      for ls in (sched.legs[(vi, j)] for j in range(3))]
                     for vi in range(nv)]).reshape(nv, 3, 4)
    legs_lat = cuts / norms[:, :, None]
    lam = np.array([sched.lam[vi] for vi in range(nv)], dtype=float)
    # one check per distinct (B, cuts, lam, ball radius) row
    first, row_of = _distinct_rows(B, legs_lat, lam, ball_r)
    ok = _feasible(lam[first], B[first], legs_lat[first], ball_r[first])
    bad = np.flatnonzero(~ok[row_of])
    if len(bad):
        raise ConfigurationError(f"pants scale at vertex {bad[0]} violates the ball bound")
    return True


def _local_model(X, vi):
    """LocalModel of vertex vi, built once per curve and shared by the
    schedule, its validation and the smooth lift."""
    models = getattr(X, "_local_models", None)
    if models is None:
        models = X._local_models = {}
    if vi not in models:
        models[vi] = LocalModel(X, X.vertices[vi])
    return models[vi]


def _leg_of_edge(X, vi, e):
    for j, ec in _local_model(X, vi).leg_edge.items():
        if ec is e:
            return j
    raise InputError("edge is not incident to the vertex")


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

    def sample(self, resolution=64, truncation=None):
        """Point cloud (x1, x2, y1, y2); rays truncated."""
        return _pl_cloud(self, {}, resolution, truncation)

    def euler_characteristic(self):
        """chi of the lift surface: each vertex contributes minus the
        normalized volume of its dual cell, cylinders contribute zero."""
        chi = 0
        for piece in self.pieces:
            if piece.kind == "vertex":
                chi -= self.X.dual_cell(piece.cell).normalized_volume()
        return chi

    def punctures(self):
        return self.X.lift_ends()[0]

    def genus(self):
        p, c = self.X.lift_ends()
        g2 = 2 * c - self.euler_characteristic() - p
        if g2 % 2:
            raise InputError("inconsistent Euler data")
        return g2 // 2


def _default_truncation(X):
    """Ray length of samples and schedules: 3 x the larger of 1 and the
    extent of the curve's vertices."""
    vs = np.array([[float(a) for a in v] for v in X.vertices]).reshape(-1, 2)
    return 3.0 * (max(1.0, float(np.ptp(vs, axis=0).max())) if len(vs) > 1 else 1.0)


def _cylinder(base, fiber):
    """Rows (x, y) for every base point x (outer) and fiber point y (inner)."""
    return np.concatenate([np.repeat(base, len(fiber), axis=0),
                           np.tile(fiber, (len(base), 1))], axis=1)


# Most points a smooth or PL lift sample may hold, checked against an upper
# bound before sampling.  `troplag lift triangle` at resolution 256 and 384
# (1.20 M and 2.69 M points) peaked at 331 and 671 MB, about 230 bytes a
# point over 60 MB, so a run at this limit needs at most about 1.9 GB.
MAX_SAMPLE_POINTS = 8_000_000


def _check_sample_size(bound):
    if bound > MAX_SAMPLE_POINTS:
        raise InputError(f"the sample would hold up to {bound} points, more than "
                         f"{MAX_SAMPLE_POINTS}; lower the resolution")


def _pl_sample_bound(pl, resolution):
    """Upper bound on the rows of _pl_cloud: a triangle coamoeba holds
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


def _pl_cloud(pl, windings, resolution, truncation):
    """PL lift sample: each vertex's coamoeba over the vertex, and over each
    edge its fiber circles, rotated along the edge by pi * m * psi(s) times
    the edge's dual vector when windings maps the edge index to m != 0.
    Edge indices are piece indices: pl_lift puts the edges first, in
    X.edges order.  InputError when _pl_sample_bound exceeds
    MAX_SAMPLE_POINTS."""
    _check_sample_size(_pl_sample_bound(pl, resolution))
    if truncation is None:
        truncation = _default_truncation(pl.X)
    thetas = (np.arange(resolution) + 0.5) * PI / resolution
    pts = []
    for ei, piece in enumerate(pl.pieces):
        if piece.kind != "edge":
            v = np.array([[float(c) for c in piece.cell.verts[0]]])
            pts.append(_cylinder(v, _coamoeba_cloud(piece.fiber, resolution)))
            continue
        seg = _edge_param_points(piece.cell, resolution, truncation)
        m = windings.get(ei, 0)
        if m:
            v = np.array(_dual_basis_vector(piece.cell.direction()), dtype=float)
            shift = (PI * m * _BUMP.psi(np.linspace(0.0, 1.0, len(seg))))[:, None, None] * v
        for j in range(piece.fiber.w):
            ys = piece.fiber.points(thetas, j)
            if m:
                yy = np.mod(ys + shift, PI).reshape(-1, 2)
                pts.append(np.concatenate([np.repeat(seg, len(ys), axis=0), yy], axis=1))
            else:
                pts.append(_cylinder(seg, ys))
    return np.vstack(pts)


def _edge_param_points(cell, resolution, truncation):
    if cell.kind == "segment":
        a, b = (np.array([float(c) for c in p]) for p in cell.verts)
        ts = np.linspace(0.0, 1.0, resolution)
        return a[None, :] + ts[:, None] * (b - a)[None, :]
    base = np.array([float(c) for c in cell.verts[0]])
    d = np.array(cell.rays[0], dtype=float)
    tmax = truncation / np.linalg.norm(d)
    ts = np.linspace(0.0, 1.0, resolution) ** 1.0 * tmax
    pts = base[None, :] + ts[:, None] * d[None, :]
    if cell.kind == "line":
        pts = np.vstack([pts, base[None, :] - ts[1:, None] * d[None, :]])
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
    the parallel face copies the edge fibers must match).
    """
    if X.subdivision is None:
        raise InputError("missing duality data; build the curve from a subdivision")
    from .coamoeba import CellCoamoeba, CoveringCoamoeba
    pieces = [PLPiece("edge", e, edge_fiber_from_dual(e, X.dual_cell(e))) for e in X.edges]
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
    points: np.ndarray   # (N, 4): x1 x2 y1 y2
    frames: np.ndarray   # (N, 2, 4)
    grid: tuple = None   # grid shape for face export


class LagrangianMesh:
    def __init__(self, pieces, scale, schedule):
        self.pieces = pieces
        self.scale = scale
        self.schedule = schedule
        self._export = {}    # projection -> _export_rows; pieces fixed from then on

    @property
    def points(self):
        return np.vstack([p.points for p in self.pieces])

    def to_off(self, path, projection="xxy"):
        n, blocks, faces = self._export_rows(projection)
        with open(path, "w") as fh:
            fh.write("OFF\n")
            fh.write(f"{n} {len(faces)} 0\n")
            fh.writelines(blocks)
            _write_rows(fh, "4 %d %d %d %d\n", faces)

    def to_obj(self, path, projection="xxy"):
        n, blocks, faces = self._export_rows(projection)
        with open(path, "w") as fh:
            for block in blocks:
                fh.write("v " + block[:-1].replace("\n", "\nv ") + "\n")
            _write_rows(fh, "f %d %d %d %d\n", faces + 1)

    _PROJ = {"xxy": (0, 1, 2), "xyy": (0, 2, 3), "x1y": (0, 2, 1), "x2y": (1, 2, 3)}

    def _export_rows(self, projection):
        """(vertex count, vertex text blocks, quads) shared by to_off and
        to_obj, formatted on the first export of a projection: each block
        holds _EXPORT_BLOCK rows "x y z\n" of the projected vertices, and
        the quads are vertex indices, shape (F, 4), piece by piece in
        row-major grid order."""
        if projection in self._export:
            return self._export[projection]
        cols = self._PROJ.get(projection)
        if cols is None:
            raise InputError(f"unknown projection {projection!r}")
        verts, faces = [], [np.zeros((0, 4), dtype=np.int64)]
        offset = 0
        for p in self.pieces:
            verts.append(p.points[:, cols])
            if p.grid is not None:
                nu, nv = p.grid
                a = offset + (np.arange(nu - 1)[:, None] * nv + np.arange(nv - 1)).ravel()
                faces.append(np.stack([a, a + 1, a + nv + 1, a + nv], axis=1))
            offset += len(p.points)
        verts = np.vstack(verts)
        rows = (len(verts), list(_row_blocks("%.9g %.9g %.9g\n", verts)), np.vstack(faces))
        self._export[projection] = rows
        return rows


# Rows per formatting call of _row_blocks: bounds the text made at once.
_EXPORT_BLOCK = 1 << 14


def _row_blocks(fmt, rows):
    """fmt % row for every row of a 2-d array, joined a block at a time."""
    for s in range(0, len(rows), _EXPORT_BLOCK):
        block = rows[s:s + _EXPORT_BLOCK]
        yield (fmt * len(block)) % tuple(block.ravel().tolist())


def _write_rows(fh, fmt, rows):
    """Write fmt % row for every row of a 2-d array, a block at a time."""
    fh.writelines(_row_blocks(fmt, rows))


# ---------------------------------------------------------------------------
# construction of the smooth lift

def _pants_vertex_piece(model, lam, legs_lat, resolution):
    """Sample the trimmed pants over one vertex, with tangent frames."""
    pm = PantsMap(1, lam)
    res = max(8, resolution)
    grid = (np.arange(res) + 0.5) / res
    l1, l2 = np.meshgrid(grid, grid)
    keep = (l1 + l2) < 1.0 - 1e-9
    bary = np.stack([l1[keep], l2[keep]], axis=1) * (PI / 2)
    y_all = np.vstack([bary, -bary])
    h_all, H_all = pm._evaluate(y_all, "hH")
    c = np.stack([LocalModel.leg_coordinate(h_all, j) for j in range(3)], axis=1)
    trims = np.array([legs_lat[j][1] for j in range(3)])  # trim at r''
    keep = np.all(c <= trims[None, :], axis=1)
    y_in = y_all[keep]
    h_in = h_all[keep]
    H = H_all[keep]
    P = np.concatenate([model.x_ambient(h_in), model.y_ambient(y_in)], axis=1)
    N = len(y_in)
    frames = np.empty((N, 2, 4))
    for i in range(2):
        e = np.zeros((1, 2))
        e[0, i] = 1.0
        frames[:, i, :2] = model.dx_ambient(H[:, :, i])
        frames[:, i, 2:] = np.repeat(model.dy_ambient(e), N, axis=0)
    chart_pts, chart_frames = _pants_chart_points(model, pm, legs_lat, resolution)
    if len(chart_pts):
        P = np.vstack([P, chart_pts])
        frames = np.vstack([frames, chart_frames])
    return P, frames


def _pants_chart_points(model, pm, legs_lat, resolution):
    """Blow-up collars around the three exceptional circles; FD frames in
    chart coordinates (positions are exact, the raw torus lift is used for
    the differences so nothing crosses the fundamental-domain cut)."""
    from .coamoeba import r_apply, rstar_apply
    res_a = max(8, resolution // 2)
    res_t = max(6, resolution // 4)
    alphas = np.exp(np.linspace(np.log(2e-2), np.log(5e1), res_a))
    tgrid = np.linspace(-1.0, 1.0, res_t)
    trims = np.array([legs_lat[j][1] for j in range(3)])
    pts_all, fr_all = [], []
    for k in (0, 1, 2):
        A, Tn = np.meshgrid(alphas, tgrid, indexing="ij")
        a = A.ravel()
        tcap = np.minimum(0.3 * PI / 2, 0.9 * (PI / 2) / (1.0 + a))
        t = Tn.ravel() * tcap

        def emb_raw(aa, tt):
            yy = np.stack([tt * aa, tt], axis=1)
            if k != 0:
                yy = r_apply(1, k, yy)
            hh = np.atleast_2d(pm.h_chart(aa[:, None], tt))
            if k != 0:
                hh = rstar_apply(1, k, hh)
            return np.concatenate([model.x_ambient(hh), model.y_ambient_raw(yy)],
                                  axis=1), hh

        P0, h0 = emb_raw(a, t)
        c = np.stack([LocalModel.leg_coordinate(h0, j) for j in range(3)], axis=1)
        keep = np.all(c <= trims[None, :], axis=1)
        a, t, tcap, P0 = a[keep], t[keep], tcap[keep], P0[keep]
        if not len(a):
            continue
        da = 1e-5 * a
        dt = 1e-5 * tcap
        # the four difference stencils of the kept points in one evaluation
        Pa_up, Pa_dn, Pt_up, Pt_dn = np.split(emb_raw(np.concatenate([a + da, a - da, a, a]),
                                                      np.concatenate([t, t, t + dt, t - dt]))[0], 4)
        va = (Pa_up - Pa_dn) / (2 * da[:, None])
        vt = (Pt_up - Pt_dn) / (2 * dt[:, None])
        P0[:, 2:] = reduce_mod_pi(P0[:, 2:])
        pts_all.append(P0)
        fr_all.append(np.stack([va, vt], axis=1))
    if not pts_all:
        return np.zeros((0, 4)), np.zeros((0, 2, 4))
    return np.vstack(pts_all), np.vstack(fr_all)


def _collar_sheets(model, lam, legs, out):
    """Collar points and analytic frames at one vertex: for each leg
    (j, cutoff, S, T), the graph of d(eta * G) in leg-j working coordinates
    at paired arrays S of leg coordinate and T of fiber angle, mapped to
    ambient coordinates and written into that leg's pair (points, frames)
    of out, arrays of shapes (n, 4) and (n, 2, 4); returns out.  The legs
    share the scale and, in working coordinates, the face J = {1}: one
    fiber solve and one evaluation of the potential serve all of them.
    Every step works row by row, so a block of rows gets the bits it gets
    as part of the whole grid; smooth_lift calls this once per block of
    _LIFT_BLOCK rows."""
    pm = PantsMap(1, lam)
    qw = _fiber_circle(pm, 1, np.concatenate([leg[2] for leg in legs]),
                       np.concatenate([leg[3] for leg in legs]))
    ends = np.cumsum([len(leg[2]) for leg in legs])[:-1]
    rows = zip(*(np.split(a, ends) for a in (qw, *pm._evaluate(qw, "FhH"))))
    for (j, cutoff, Sf, Tf), (q, Fq, hq, Hq), (P, fr) in zip(legs, rows, out):
        eta = cutoff.eta(Sf)
        etap = cutoff.eta_prime(Sf)
        etas = cutoff.eta_second(Sf)
        G = -Fq + Sf * q[:, 0]
        x2 = eta * hq[:, 1]
        y1 = etap * G + eta * q[:, 0]
        xw = np.stack([Sf, x2], axis=1)
        yw = np.stack([y1, Tf], axis=1)
        dxw_s = np.stack([np.ones_like(Sf),
                          etap * hq[:, 1] + eta * Hq[:, 1, 0] / Hq[:, 0, 0]], axis=1)
        dyw_s = np.stack([etas * G + 2 * etap * q[:, 0] + eta / Hq[:, 0, 0],
                          np.zeros_like(Sf)], axis=1)
        dxw_t = np.stack([np.zeros_like(Sf),
                          eta * (Hq[:, 1, 1] - Hq[:, 1, 0] * Hq[:, 0, 1] / Hq[:, 0, 0])],
                         axis=1)
        dyw_t = np.stack([-etap * hq[:, 1] - eta * Hq[:, 0, 1] / Hq[:, 0, 0],
                          np.ones_like(Sf)], axis=1)
        x_std, y_std = LocalModel.from_working(j, xw, yw)
        dxs_std, dys_std = _dworking_to_std(j, dxw_s, dyw_s)
        dxt_std, dyt_std = _dworking_to_std(j, dxw_t, dyw_t)
        P[:, :2] = model.x_ambient(x_std)
        P[:, 2:] = model.y_ambient(y_std)
        fr[:, 0, :2] = model.dx_ambient(dxs_std)
        fr[:, 0, 2:] = model.dy_ambient(dys_std)
        fr[:, 1, :2] = model.dx_ambient(dxt_std)
        fr[:, 1, 2:] = model.dy_ambient(dyt_std)
    return out


def _collar_pieces(model, vi, lam, legs_lat, resolution):
    """Graphs of d(eta * G) over [r', r] x (fiber circle) for the legs of
    vertex vi; legs_lat[j] holds r', r'', rbar and r in lattice units.
    Returns the pieces, whose arrays are still to be filled, and their
    blocks: the legs' grids, stacked, are cut into blocks of _LIFT_BLOCK
    rows, in row order, and each block is the arguments (legs, out) of one
    _collar_sheets call (one fiber solve) that fills its rows of the
    pieces.  A block may span legs, so a small grid costs one call per
    vertex, not one per leg."""
    thetas = (np.arange(resolution) + 0.5) * PI / resolution
    n = resolution * resolution
    legs, pieces = [], []
    for j, (r1, r2, rbar, r) in legs_lat.items():
        S, T = np.meshgrid(np.linspace(r1, r, resolution), thetas, indexing="ij")
        legs.append((j, Cutoff(r2, rbar), S.ravel(), T.ravel()))
        pieces.append(MeshPiece("collar", (vi, j), np.empty((n, 4)), np.empty((n, 2, 4)),
                                grid=(resolution, resolution)))
    blocks = []
    for start in range(0, len(legs) * n, _LIFT_BLOCK):
        part, out = [], []
        for k, ((j, cutoff, S, T), piece) in enumerate(zip(legs, pieces)):
            rows = slice(max(start - k * n, 0), min(start + _LIFT_BLOCK - k * n, n))
            if rows.start < rows.stop:
                part.append((j, cutoff, S[rows], T[rows]))
                out.append((piece.points[rows], piece.frames[rows]))
        blocks.append((part, out))
    return pieces, blocks


def _fiber_circle(pm, j, target, thetas):
    """Points q of the n = 1 pants with h_j(q) = target whose other
    coordinate is the fiber angle: angles past pi/2 are mirrored onto the
    plus half, solved there and negated back."""
    minus = thetas > PI / 2
    wp = np.zeros((len(thetas), 2))
    wp[:, 2 - j] = np.where(minus, PI - thetas, thetas)
    q = solve_leg_fiber(pm, j, target, wp, 1e-13, 80)
    return np.where(minus[:, None], -q, q)


def _dworking_to_std(j, dx, dy):
    if j == 1:
        return dx, dy
    if j == 2:
        return dx[:, ::-1], dy[:, ::-1]
    dxs = np.stack([-dx[:, 0], dx[:, 1] - dx[:, 0]], axis=1)
    dys = np.stack([-(dy.sum(axis=1)), dy[:, 1]], axis=1)
    return dxs, dys


def _flat_piece(X, sched, ei, resolution):
    e = X.edges[ei]
    fiber = edge_fiber_from_dual(e, X.dual_cell(e))
    if e.kind == "segment":
        ia = X.vertex_index(e.verts[0])
        ib = X.vertex_index(e.verts[1])
        ja = _leg_of_edge(X, ia, e)
        jb = _leg_of_edge(X, ib, e)
        a, b = (np.array([float(c) for c in p]) for p in e.verts)
        d = (b - a) / np.linalg.norm(b - a)
        p0 = a + d * sched.legs[(ia, ja)].r
        p1 = b - d * sched.legs[(ib, jb)].r
    else:
        ia = X.vertex_index(e.verts[0])
        ja = _leg_of_edge(X, ia, e)
        a = np.array([float(c) for c in e.verts[0]])
        d = np.array(e.rays[0], dtype=float)
        d = d / np.linalg.norm(d)
        p0 = a + d * sched.legs[(ia, ja)].r
        p1 = a + d * sched.truncation
    ts = np.linspace(0.0, 1.0, resolution)
    seg = p0[None, :] + ts[:, None] * (p1 - p0)[None, :]
    thetas = (np.arange(resolution) + 0.5) * PI / resolution
    ys = fiber.points(thetas, 0)
    tangent = (p1 - p0) / np.linalg.norm(p1 - p0)
    circ = np.array(fiber.direction, dtype=float)
    P = _cylinder(seg, ys)
    fr = np.empty((resolution * resolution, 2, 4))
    fr[:, 0, :2] = tangent
    fr[:, 0, 2:] = 0.0
    fr[:, 1, :2] = 0.0
    fr[:, 1, 2:] = circ
    return MeshPiece("flat", (ei,), P, fr, grid=(resolution, resolution))


# Rows per collar block of smooth_lift.  On the lift's thread pool each
# block is one task; small blocks bound the memory that each worker's
# malloc arena keeps.  On a 2-CPU host, 2^14 rows added 15 MB to the peak
# RSS of a verify run, 2^13 about 6 MB, and 2^11 made the lift slower
# than one thread.
_LIFT_BLOCK = 1 << 13
# A vertex whose collars make at most this many blocks (resolution 72 and
# below) is built on the calling thread alone: the pool's threads trade
# the interpreter lock at every numpy call on small arrays, and on a
# 2-CPU host two pooled blocks per vertex made the lift slower.
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
    chart collars of _pants_chart_points; per edge a flat cylinder of r^2."""
    r = resolution
    vertex = max(8, r) ** 2 + 3 * r * r + 3 * max(8, r // 2) * max(6, r // 4)
    return len(X.vertices) * vertex + len(X.edges) * r * r


# A collar's leg-fiber root must clear this much: the Hessian's margin,
# plus the rounding of q + pi/4 when _evaluate reduces q mod pi.
_COLLAR_MARGIN = HESSIAN_MARGIN + np.spacing(PI / 4)


def _smallest_scale(sched, vertex_legs, resolution):
    """The scale t at and below which the leg-fiber root of some collar
    point lies within _COLLAR_MARGIN of q_1 = 0.  h_1 decreases along each
    fiber and is lam times its value at lam = 1, so the root of h_1 = S
    clears the margin iff S < t lam h_1(margin, b) at lam = 1; the
    largest S is the collar's outer end r, at every fiber angle b."""
    thetas = (np.arange(resolution) + 0.5) * PI / resolution
    b = np.where(thetas > PI / 2, PI - thetas, thetas)
    h = PantsMap(1).h(np.stack([np.full_like(b, _COLLAR_MARGIN), b], axis=1))[:, 0]
    return max(max(leg[3] for leg in legs.values()) / sched.lam[vi]
               for vi, legs in enumerate(vertex_legs)) / h.min()


def smooth_lift(X, t=1.0, sched=None, resolution=128):
    """One member of the shrinking family of smooth Lagrangian lifts.

    Pieces: trimmed pants over each vertex, Legendre collars over each
    (vertex, leg) with the smooth cutoff, flat cylinders over each edge
    middle; the whole pants scale is multiplied by t.  Without sched, the
    default schedule is used (the mesh keeps it as .schedule).
    InputError when the resolution is odd or _smooth_sample_bound exceeds
    MAX_SAMPLE_POINTS, before any schedule or sample is computed, and
    when t is at or below _smallest_scale, before any sample is computed.
    """
    if not 0 < t <= 1:
        raise InputError("scale t must lie in (0, 1]")
    if resolution % 2:
        raise InputError("resolution must be even: at an odd resolution the middle "
                         "fiber angle (k + 0.5) pi / r is pi/2, a vertex of the coamoeba")
    from .tropical import is_smooth
    if not is_smooth(X):
        raise InputError("smooth lifting needs a smooth curve")
    _check_sample_size(_smooth_sample_bound(X, resolution))
    if sched is None:
        sched = default_schedule(X)  # validated there
    else:
        validate_schedule(X, sched)
    models = [_local_model(X, vi) for vi in range(len(X.vertices))]
    vertex_legs = [{j: tuple(getattr(sched.legs[(vi, j)], f) / model.leg_norm[j]
                             for f in ("r_prime", "r_second", "r_bar", "r"))
                    for j in range(3)} for vi, model in enumerate(models)]
    t_min = _smallest_scale(sched, vertex_legs, resolution)
    if t <= t_min:
        raise InputError(f"--scale {t:g} is too small for this curve and schedule: "
                         f"it must exceed {t_min:.6g}, below which a collar's fiber "
                         f"solve comes within {HESSIAN_MARGIN:g} of a coamoeba face")
    # A vertex's collar blocks (three grids of resolution^2 rows) run on a
    # thread pool, while the calling thread builds its pants body, only
    # when they are many enough to pay for the pool; otherwise every block
    # runs on the calling thread.
    workers = _cpu_count()
    pool = None
    if workers > 1 and 3 * resolution * resolution > _LIFT_POOL_BLOCKS * _LIFT_BLOCK:
        # imported on first use, like scipy: lifts without a pool do not
        # pay for it
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(workers)
    pieces = []
    try:
        for vi, (model, legs_lat) in enumerate(zip(models, vertex_legs)):
            lam = t * sched.lam[vi]
            collars, blocks = _collar_pieces(model, vi, lam, legs_lat, resolution)
            if pool is None:
                P, fr = _pants_vertex_piece(model, lam, legs_lat, resolution)
                for legs, out in blocks:
                    _collar_sheets(model, lam, legs, out)
            else:
                futures = [pool.submit(_collar_sheets, model, lam, legs, out)
                           for legs, out in blocks]
                P, fr = _pants_vertex_piece(model, lam, legs_lat, resolution)
                for future in futures:
                    future.result()  # raises the first failing block's error, in row order
            pieces.append(MeshPiece("pants", (vi,), P, fr))
            pieces.extend(collars)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    for ei, e in enumerate(X.edges):
        pieces.append(_flat_piece(X, sched, ei, resolution))
    mesh = LagrangianMesh(pieces, t, sched)
    mesh._curve = X
    return mesh


# ---------------------------------------------------------------------------
# verification quantities

def symplectic_residual(mesh):
    """max |omega(v, w)| over the sampled tangent frames of the mesh."""
    worst = 0.0
    for p in mesh.pieces:
        v, w = p.frames[:, 0, :], p.frames[:, 1, :]
        om = (np.sum(v[:, :2] * w[:, 2:], axis=1) - np.sum(w[:, :2] * v[:, 2:], axis=1)) / PI
        if len(om):
            worst = max(worst, float(np.abs(om).max()))
    return worst


def _fold_fiber(cloud):
    """Copy of the cloud with the fiber coordinates in [0, pi)."""
    out = np.array(cloud, dtype=float)
    y = np.mod(out[:, 2:], PI)
    y[y >= PI] = 0.0  # np.mod rounds tiny negative values up to pi itself
    out[:, 2:] = y
    return out


# Approximation factor of the bounding query in hausdorff_distance: each
# returned distance is at most (1 + eps) times the nearest distance.
_HAUSDORFF_EPS = 3.0
# Rows per anchor group of the certificate in _anchor_bounds, and rows per
# block of its bound computation.  hausdorff_distance's worker computes
# cloud_a's bounds, and glibc keeps the memory of each thread's temporaries
# in that thread's arena: blocks of 2^12 rows keep them under 1 MB.  Over
# theorem41's three distances, 2^15-row blocks raised the peak RSS by 4 MB.
_HAUSDORFF_STRIDE = 8
_HAUSDORFF_BLOCK = 1 << 12


def hausdorff_distance(cloud_a, cloud_b):
    """Symmetric point-sample Hausdorff distance in the product metric
    (Euclidean base x flat torus fiber).

    Each cloud goes into a KD-tree with boxsize (0, 0, pi, pi): a box size
    of zero leaves the two base axes non-periodic, and pi makes the fiber
    axes wrap, so the nearest-neighbour distances are exact torus distances
    without translated copies of the clouds.

    The maximum is certified with few queries.  The rows of each cloud form
    consecutive groups of _HAUSDORFF_STRIDE, and only each group's middle
    row (its anchor) is queried exactly.  The distance to a cloud is
    1-Lipschitz, so a row's nearest distance is at most its anchor's plus
    its own distance to the anchor, in any row order.  The largest anchor
    distance of either direction is a lower bound lo on the result.  Only
    rows whose bound (inflated by a relative 1e-9 and an absolute 1e-12
    against rounding) exceeds lo get an approximate query (eps = 3), a
    second upper bound; the row with the largest such bound is queried
    exactly to raise lo, and the rows whose bound still exceeds lo are
    queried exactly.  The direction from cloud_b finishes first, and its lo
    is carried into the direction from cloud_a: the callers pass the PL
    cloud as cloud_b, which holds the maximum at small scales and so prunes
    the larger mesh.  A point's exact distance does not depend on which
    other points are queried, so the result is the same float as exact
    queries of all points in both directions, whatever the thread timing
    and however many threads (_cpu_count) the queries use.

    The two directions start side by side.  The calling thread builds
    cloud_a's tree (the callers' larger cloud), while one worker thread
    builds cloud_b's tree, queries cloud_a's anchors in it and writes the
    bound of every cloud_a row into an array of the calling thread.  The
    worker is joined before anything else runs, also when either side
    raises; the rest runs on the calling thread, with its KD-tree queries
    on _cpu_count() threads.

    ValueError if either cloud holds NaN or inf.
    """
    if len(cloud_a) == 0 or len(cloud_b) == 0:
        raise InputError("empty sampling")
    if not (np.isfinite(cloud_a).all() and np.isfinite(cloud_b).all()):
        raise ValueError("point clouds must be finite")
    A = _fold_fiber(cloud_a)
    B = _fold_fiber(cloud_b)
    bound_a = np.empty(len(A))

    def b_side():
        tree = _fiber_tree(B)
        return tree, _anchor_bounds(A, tree, 1, bound_a)

    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(1) as pool:
        worker = pool.submit(b_side)
        tree_a = _fiber_tree(A)
    tree_b, lo = worker.result()
    bound_b = np.empty(len(B))
    lo = max(lo, _anchor_bounds(B, tree_a, _cpu_count(), bound_b))
    lo = _finish_directed(B, tree_a, bound_b, lo)
    return float(_finish_directed(A, tree_b, bound_a, lo))


def _fiber_tree(cloud):
    """KD-tree of a folded cloud, periodic in the fiber axes.  A folded
    cloud is a private contiguous copy, so the tree keeps it uncopied."""
    # imported on first use: only a Hausdorff distance needs scipy, and
    # importing it with this module doubled the start-up of every command
    from scipy.spatial import cKDTree
    return cKDTree(cloud, boxsize=(0.0, 0.0, PI, PI), balanced_tree=False,
                   copy_data=False)


def _anchor_bounds(P, tree, workers, out):
    """Anchor phase of the certificate of hausdorff_distance: query each
    anchor of P exactly in the tree, on this many threads, and write every
    row's inflated upper bound on its nearest distance into out.  Returns
    the largest anchor distance."""
    n, stride = len(P), _HAUSDORFF_STRIDE
    starts = np.arange(0, n, stride)
    anchors = starts + np.minimum(stride, n - starts) // 2
    d_anchor = tree.query(P[anchors], k=1, workers=workers)[0]
    for b in range(0, n, _HAUSDORFF_BLOCK):
        rows = P[b:b + _HAUSDORFF_BLOCK]
        group = np.arange(b, b + len(rows)) // stride
        step = np.abs(rows - P[anchors[group]])
        fiber = step[:, 2:]
        np.minimum(fiber, PI - fiber, out=fiber)
        bound = out[b:b + len(rows)]
        np.add(d_anchor[group], np.sqrt(np.einsum("ij,ij->i", step, step)), out=bound)
        bound *= 1.0 + 1e-9
        bound += 1e-12
    return d_anchor.max()


def _finish_directed(P, tree, bound, lo):
    """Finishing phase of the certificate: the larger of lo and the largest
    exact nearest distance from a row of P to the tree's cloud, querying
    only the rows whose bound from _anchor_bounds exceeds lo."""
    workers = _cpu_count()
    far = P[bound > lo]
    if len(far):
        approx = tree.query(far, k=1, eps=_HAUSDORFF_EPS, workers=workers)[0]
        lo = max(lo, tree.query(far[np.argmax(approx)], k=1)[0])
        far = far[approx > lo]
    return max(lo, tree.query(far, k=1, workers=workers)[0].max()) if len(far) else lo


# ---------------------------------------------------------------------------
# twisting

@dataclass
class TwistData:
    """Integer winding per edge index; sections constant outside the flat zone."""

    windings: dict

    def total(self):
        return int(sum(self.windings.values()))


def _dual_basis_vector(u):
    """Integer v with <u, v> = 1 for primitive u."""
    a, b = int(u[0]), int(u[1])
    g, x, y = _egcd(a, b)
    if g != 1:
        raise InputError("edge tangent is not primitive")
    return (x, y)


def _egcd(a, b):
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _egcd(b, a % b)
    return (g, y, x - (a // b) * y)


def twist(mesh, data):
    """Twisted lift: fibers over the flat zones rotate by the section.

    Returns (twisted mesh, total class n_sigma).  The base projection is
    untouched.
    """
    X = getattr(mesh, "_curve", None)
    if X is None:
        raise InputError("mesh carries no curve reference; cannot twist")
    for ei in data.windings:
        if not 0 <= ei < len(X.edges):
            raise InputError(f"no edge with index {ei}")
    total = data.total()
    new_pieces = []
    for p in mesh.pieces:
        if p.tag != "flat" or p.owner[0] not in data.windings:
            new_pieces.append(p)
            continue
        m = data.windings[p.owner[0]]
        u = X.edges[p.owner[0]].direction()
        v = np.array(_dual_basis_vector(u), dtype=float)
        q = p.points.copy()
        fr = p.frames.copy()
        nu, nv = p.grid
        s = np.repeat(np.linspace(0.0, 1.0, nu), nv)
        arc = np.linalg.norm(p.points[(nu - 1) * nv, :2] - p.points[0, :2])
        psi = PI * m * _BUMP.psi(s)
        q[:, 2:] = np.mod(q[:, 2:] + psi[:, None] * v[None, :], PI)
        dpsi_darc = PI * m * _BUMP.psi_prime(s) / max(arc, 1e-300)
        fr[:, 0, 2:] = fr[:, 0, 2:] + dpsi_darc[:, None] * v[None, :]
        new_pieces.append(MeshPiece("flat", p.owner, q, fr, p.grid))
    out = LagrangianMesh(new_pieces, mesh.scale, mesh.schedule)
    out._curve = X
    return out, total


def twist_pl_cloud(pl, data, resolution=64, truncation=None):
    """Twisted PL lift sampling: fibers over each edge rotate by the loop."""
    return _pl_cloud(pl, data.windings, resolution, truncation)


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
        c = n[0] * base[0] + n[1] * base[1]
        constants[i] = Fraction(c) if isinstance(c, (int, Fraction)) else float(c)
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


def maslov_winding(points, frames, max_step=1.0):
    """Winding number of the phase along a sampled closed loop.

    Works with the squared phase so the result is insensitive to frame
    orientation flips between neighboring samples.  Refuses loops whose
    consecutive phase steps exceed max_step radians: the wrap-around
    heuristic would alias and the integer could be silently wrong.
    """
    om = phase_values(points, frames)
    if np.any(np.abs(om) < 1e-14):
        raise NumericError("degenerate frame along the loop")
    ang = np.angle(om ** 2)
    d = np.diff(np.concatenate([ang, ang[:1]]))
    d = np.mod(d + PI, 2 * PI) - PI
    if np.abs(d).max() > max_step:
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
    thetas = (np.arange(resolution) + 0.5) * PI / resolution
    q = _fiber_circle(pm, leg, np.full(resolution, x_value), thetas)
    h, H = pm._evaluate(q, "hH")
    pts = np.concatenate([h, q], axis=1)
    fr = np.empty((resolution, 2, 4))
    for i in range(2):
        fr[:, i, :2] = H[:, :, i]
        fr[:, i, 2 + i] = 1.0
        fr[:, i, 2 + (1 - i)] = 0.0
    return pts, fr

