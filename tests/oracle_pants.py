"""Row-wise pants evaluators and the per-leg smooth lift, as they were
before the column-wise kernel: the oracles of test_pants and test_lift.

OraclePantsMap overrides F, h and hessian with numpy reductions over the
coordinate axis (_plus_rep, _h_plus_raw, _g_derivatives) and keeps h_chart;
oracle_solve_scalar is the fiber solve on _h_and_hessian_diag, and
oracle_smooth_pieces builds, vertex by vertex, the pants with their chart
collars and one collar per (vertex, leg) with a fiber solve and F, h,
h_chart and hessian calls of its own, and edge by edge the flat cylinders,
each from its own float ends and edge fiber.  The maps between leg-j working
coordinates and standard ones are kept here as they were written, one for
points and one for differentials, and so are the per-vertex maps from
standard coordinates to the ambient ones, which read only a vertex's rows
v, B, A and y_c of the curve table.
"""

import numpy as np

from troplag import lift
from troplag.coamoeba import PI, edge_fiber_from_dual, r_apply, reduce_mod_pi, rstar_apply
from troplag.errors import DomainError, NumericError
from troplag.lift import Cutoff, MeshPiece
from troplag.pants import VERTEX_SWITCH_DIST, PantsMap


class VertexMap:
    """Standard coordinates of vertex vi of the curve table to ambient ones:
    x -> v + B x, y -> y_c + A^T y (mod pi), and their differentials."""

    def __init__(self, table, vi):
        self.v, self.B, self.A, self.y_c = (table.vertices[vi], table.B[vi], table.A[vi],
                                            table.y_c[vi])

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


def _leg_coordinates(h):
    """The coordinates (-x_1, x_1, x_2) of standard-side points along legs
    0, 1, 2, one column each."""
    return np.stack([-h[:, 0], h[:, 0], h[:, 1]], axis=1)


class OraclePantsMap(PantsMap):

    def _plus_rep(self, y):
        y = np.atleast_2d(np.asarray(y, dtype=float))
        wp = np.mod(y + PI / 4, PI) - PI / 4
        wm = np.mod(-y + PI / 4, PI) - PI / 4
        eps = 1e-12
        okp = np.all(wp >= -eps, axis=1) & (wp.sum(axis=1) <= PI / 2 + eps)
        okm = np.all(wm >= -eps, axis=1) & (wm.sum(axis=1) <= PI / 2 + eps)
        sign = np.where(okp, 1.0, np.where(okm, -1.0, 0.0))
        w = np.where(okp[:, None], wp, wm)
        return w, sign

    def F(self, y):
        y = np.asarray(y, dtype=float)
        single = y.ndim == 1
        w, sign = self._plus_rep(y)
        if np.any(sign == 0.0):
            raise DomainError("point outside the coamoeba")
        inner = np.cos(w.sum(axis=1)) * np.prod(np.sin(np.clip(w, 0.0, None)), axis=1)
        val = sign * np.power(np.clip(inner, 0.0, None), 1.0 / self.m) * self.lam
        return float(val[0]) if single else val

    def _h_plus_raw(self, w):
        w = np.atleast_2d(np.asarray(w, dtype=float))
        s = w.sum(axis=1)
        sins = np.sin(w)
        P = np.prod(sins, axis=1)
        C = np.cos(s)
        base = np.power(np.clip(C * P, 1e-300, None), self.n / self.m)
        with np.errstate(invalid="ignore", divide="ignore"):
            num = np.cos(w + s[:, None]) * (P[:, None] / sins)
            return self.lam * num / (self.m * base[:, None])

    def h(self, y):
        y = np.asarray(y, dtype=float)
        single = y.ndim == 1
        w, sign = self._plus_rep(y)
        if np.any(sign == 0.0):
            raise DomainError("point outside the coamoeba")
        out = np.empty_like(w)
        dv = self.coamoeba.torus.distance(w[:, None, :], self.coamoeba.vertices[None, :, :])
        nearest = np.argmin(dv, axis=1)
        near = dv[np.arange(len(w)), nearest] < VERTEX_SWITCH_DIST
        far = ~near
        if np.any(far):
            out[far] = self._h_plus_raw(w[far])
        if np.any(near):
            for k in sorted(set(nearest[near])):
                rows = near & (nearest == k)
                z = w[rows]
                if k != 0:
                    z = r_apply(self.n, k, z)
                z = np.mod(z + PI / 2, PI) - PI / 2
                t = z[:, -1].copy()
                t = np.where(np.abs(t) < 1e-300, 1e-300, t)
                alpha = z[:, :-1] / t[:, None]
                hk = np.atleast_2d(self.h_chart(alpha, t))
                if k != 0:
                    hk = rstar_apply(self.n, int(k), hk)
                out[rows] = hk
        if not np.all(np.isfinite(out)):
            raise DomainError("gradient undefined on an open face of the coamoeba")
        return out[0] if single else out

    def _g_derivatives(self, w):
        w = np.atleast_2d(np.asarray(w, dtype=float))
        s = w.sum(axis=1)
        sins = np.sin(w)
        cots = np.cos(w) / sins
        P = np.prod(sins, axis=1)
        C, Sn = np.cos(s), np.sin(s)
        g = C * P
        gj = P[:, None] * (C[:, None] * cots - Sn[:, None])
        gjk = P[:, None, None] * (
            cots[:, None, :] * (C[:, None, None] * cots[:, :, None] - Sn[:, None, None])
            - Sn[:, None, None] * cots[:, :, None]
            - C[:, None, None]
        )
        m = self.m
        diag = -C[:, None] * P[:, None] / (sins * sins)
        idx = np.arange(m)
        gjk[:, idx, idx] += diag
        return g, gj, gjk

    def _h_and_hessian_diag(self, w, i):
        s = w.sum(axis=1)
        sins = np.sin(w)
        P = np.prod(sins, axis=1)
        C, Sn = np.cos(s), np.sin(s)
        si = sins[:, i]
        cot = np.cos(w[:, i]) / si
        g = C * P
        base = np.power(np.clip(g, 1e-300, None), self.n / self.m)
        h = self.lam * (np.cos(w[:, i] + s) * (P / si)) / (self.m * base)
        gi = P * (C * cot - Sn)
        gii = P * (cot * (C * cot - Sn) - Sn * cot - C) - C * P / (si * si)
        p = 1.0 / self.m
        gp = np.power(g, p)
        H = p * (p - 1) * (gp / (g * g)) * gi * gi + p * (gp / g) * gii
        return h, self.lam * H

    def hessian(self, y):
        y = np.asarray(y, dtype=float)
        single = y.ndim == 1
        w, sign = self._plus_rep(y)
        eps = 1e-12
        interior = np.all(w > eps, axis=1) & (w.sum(axis=1) < PI / 2 - eps)
        if not np.all(interior):
            raise DomainError("Hessian needs interior points of a coamoeba half")
        g, gj, gjk = self._g_derivatives(w)
        m = self.m
        p = 1.0 / m
        gp = np.power(g, p)
        H = (p * (p - 1) * (gp / (g * g))[:, None, None] * gj[:, :, None] * gj[:, None, :]
             + p * (gp / g)[:, None, None] * gjk)
        H = H * self.lam * sign[:, None, None]
        H = 0.5 * (H + np.swapaxes(H, 1, 2))
        return H[0] if single else H


def _n1_root(b, s):
    """Root q of h_1(q, b) = lam s on the n = 1 pants.  With c = sin b and
    z = sin(2q + b): v = z - c solves c v^2 + 2(c^2 + s^2) v = c cos^2 b,
    u = 1 - z solves c u^2 - 2(c + s^2) u + 2 s^2 (1 - c) = 0, and
    sin 2q = (z^2 - c^2) / (z cos b + c cos(2q + b)),
    cos 2q = cos(2q + b) cos b + z c."""
    e = s * s
    c, cb = np.sin(b), np.cos(b)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d = np.sqrt(e * e + c * c * (2.0 * e + 1.0))
        v = c * cb * cb / (c * c + e + d)
        u = 2.0 * e * cb * cb / ((1.0 + c) * (c + e + d))
        z = c + v
        ct = np.sqrt(u * (1.0 + z))
        return 0.5 * np.arctan2(v * (z + c), (z * cb + c * ct) * (ct * cb + z * c))


def oracle_solve_scalar(pm, j, target, wp, tol, max_iter):
    """pants.solve_leg_fiber on _h_and_hessian_diag of rows."""
    i = j - 1
    target = np.asarray(target, dtype=float)
    if not np.all(np.isfinite(target)):
        raise DomainError("fiber target is not finite")
    rest = wp.sum(axis=1) - wp[:, i]
    hi = (PI / 2 - rest) / 2.0
    if not np.all(hi > 0):
        raise DomainError("transverse point outside the open face")
    others = np.delete(wp, i, axis=1)
    if not np.all(others > 1e-12):
        raise DomainError("fiber solve needs interior points of a coamoeba half")
    y = 0.5 * hi
    if pm.n:
        c = np.cos(rest) * np.prod(np.sin(others), axis=1)
        A = pm.lam * c / (pm.m * np.power(c, pm.n / pm.m))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            y0 = np.power(A / target, pm.m / pm.n)
        y = np.where(np.isfinite(y0) & (y0 > 0) & (y0 < hi), y0, y)
    if pm.n == 1:
        with np.errstate(over="ignore"):
            y0 = _n1_root(others[:, 0], target / pm.lam)
        y = np.where(np.isfinite(y0) & (y0 > 0) & (y0 < hi), y0, y)
    act, w, lo, t = np.arange(len(y)), wp.copy(), np.zeros_like(hi), target
    for _ in range(max_iter):
        ya = y[act]
        w[:, i] = ya
        hval, Hjj = pm._h_and_hessian_diag(w, i)
        f = hval - t
        lo = np.where(f > 0, ya, lo)
        hi = np.where(f < 0, ya, hi)
        ynew = ya - f / Hjj
        outside = (((ynew <= lo) | (ynew >= hi)) & (ynew != ya)) | ~np.isfinite(ynew)
        ynew = np.where(outside, 0.5 * (lo + hi), ynew)
        y[act] = ynew
        moving = ~(np.abs(ynew - ya) < tol)
        act, w, lo, hi, t = act[moving], w[moving], lo[moving], hi[moving], t[moving]
        if not len(act):
            break
    else:
        w = wp.copy()
        w[:, i] = y
        resid = np.abs(pm._h_plus_raw(w)[:, i] - target)
        if not np.all(resid <= 1e-6 * (1 + np.abs(target))):
            raise NumericError("fiber solve did not converge", {})
    q = wp.copy()
    q[:, i] = y
    return q


def oracle_fiber_circle(pm, j, target, thetas):
    minus = thetas > PI / 2
    wp = np.zeros((len(thetas), 2))
    wp[:, 2 - j] = np.where(minus, PI - thetas, thetas)
    q = oracle_solve_scalar(pm, j, target, wp, 1e-13, 80)
    return np.where(minus[:, None], -q, q)


def oracle_collar_sheet(model, j, lam, cutoff, Sf, Tf, reduce_torus=True):
    """One leg's collar: its own fiber solve, then F, h and hessian."""
    pm = OraclePantsMap(1, lam)
    qw = oracle_fiber_circle(pm, 1, Sf, Tf)
    Fq = pm.F(qw)
    hq = pm.h(qw)
    Hq = pm.hessian(qw)
    eta = cutoff.eta(Sf)
    etap = cutoff.eta_prime(Sf)
    etas = cutoff.eta_second(Sf)
    G = -Fq + Sf * qw[:, 0]
    x2 = eta * hq[:, 1]
    y1 = etap * G + eta * qw[:, 0]
    xw = np.stack([Sf, x2], axis=1)
    yw = np.stack([y1, Tf], axis=1)
    dxw_s = np.stack([np.ones_like(Sf),
                      etap * hq[:, 1] + eta * Hq[:, 1, 0] / Hq[:, 0, 0]], axis=1)
    dyw_s = np.stack([etas * G + 2 * etap * qw[:, 0] + eta / Hq[:, 0, 0],
                      np.zeros_like(Sf)], axis=1)
    dxw_t = np.stack([np.zeros_like(Sf),
                      eta * (Hq[:, 1, 1] - Hq[:, 1, 0] * Hq[:, 0, 1] / Hq[:, 0, 0])], axis=1)
    dyw_t = np.stack([-etap * hq[:, 1] - eta * Hq[:, 0, 1] / Hq[:, 0, 0],
                      np.ones_like(Sf)], axis=1)
    x_std, y_std = _from_working(j, xw, yw)
    dxs_std, dys_std = _dworking_to_std(j, dxw_s, dyw_s)
    dxt_std, dyt_std = _dworking_to_std(j, dxw_t, dyw_t)
    y_amb = model.y_ambient(y_std) if reduce_torus else model.y_ambient_raw(y_std)
    P = np.concatenate([model.x_ambient(x_std), y_amb], axis=1)
    fr = np.empty((len(P), 2, 4))
    fr[:, 0, :2] = model.dx_ambient(dxs_std)
    fr[:, 0, 2:] = model.dy_ambient(dys_std)
    fr[:, 1, :2] = model.dx_ambient(dxt_std)
    fr[:, 1, 2:] = model.dy_ambient(dyt_std)
    return P, fr


def oracle_pants_vertex_piece(model, lam, legs_lat, resolution):
    pm = OraclePantsMap(1, lam)
    res = max(8, resolution)
    grid = (np.arange(res) + 0.5) / res
    l1, l2 = np.meshgrid(grid, grid)
    keep = (l1 + l2) < 1.0 - 1e-9
    bary = np.stack([l1[keep], l2[keep]], axis=1) * (PI / 2)
    y_all = np.vstack([bary, -bary])
    h_all = pm.h(y_all)
    c = _leg_coordinates(h_all)
    trims = np.array([legs_lat[j][1] for j in range(3)])
    keep = np.all(c <= trims[None, :], axis=1)
    y_in = y_all[keep]
    h_in = h_all[keep]
    H = pm.hessian(y_in)
    P = np.concatenate([model.x_ambient(h_in), model.y_ambient(y_in)], axis=1)
    N = len(y_in)
    frames = np.empty((N, 2, 4))
    for i in range(2):
        e = np.zeros((1, 2))
        e[0, i] = 1.0
        frames[:, i, :2] = model.dx_ambient(H[:, :, i])
        frames[:, i, 2:] = np.repeat(model.dy_ambient(e), N, axis=0)
    chart_pts, chart_frames = oracle_pants_chart_points(model, pm, legs_lat, resolution)
    if len(chart_pts):
        P = np.vstack([P, chart_pts])
        frames = np.vstack([frames, chart_frames])
    return P, frames


def oracle_pants_chart_points(model, pm, legs_lat, resolution):
    """Blow-up collars around the three exceptional circles of one vertex,
    evaluated, trimmed and differenced per vertex; FD frames in chart
    coordinates (positions are exact, the raw torus lift is used for the
    differences so nothing crosses the fundamental-domain cut)."""
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
            return np.concatenate([model.x_ambient(hh), model.y_ambient_raw(yy)], axis=1), hh

        P0, h0 = emb_raw(a, t)
        c = _leg_coordinates(h0)
        keep = np.all(c <= trims[None, :], axis=1)
        a, t, tcap, P0 = a[keep], t[keep], tcap[keep], P0[keep]
        if not len(a):
            continue
        da = 1e-5 * a
        dt = 1e-5 * tcap
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


def oracle_smooth_pieces(X, t, sched, resolution):
    """The pieces of smooth_lift(X, t, sched, resolution), built per leg."""
    pieces = []
    table = lift._curve_table(X, frames=True)
    for vi in range(len(X.vertices)):
        model = VertexMap(table, vi)
        lam = t * sched.lam[vi]
        legs_lat = {j: tuple(sched.cuts[vi, j] / table.norms[vi, j]) for j in range(3)}
        P, fr = oracle_pants_vertex_piece(model, lam, legs_lat, resolution)
        pieces.append(MeshPiece("pants", (vi,), P, fr))
        for j in range(3):
            r1, r2, rbar, r = sched.cuts[vi, j] / table.norms[vi, j]
            s_lat = np.linspace(r1, r, resolution)
            cutoff = Cutoff(r2, rbar)
            thetas = (np.arange(resolution) + 0.5) * PI / resolution
            S, T = np.meshgrid(s_lat, thetas, indexing="ij")
            P, fr = oracle_collar_sheet(model, j, lam, cutoff, S.ravel(), T.ravel())
            pieces.append(MeshPiece("collar", (vi, j), P, fr,
                                    grid=(resolution, resolution)))
    for ei, e in enumerate(X.edges):
        # the (vertex, leg) of each end of the edge: leg j leaves the vertex
        # in the j-th of its star's outgoing directions in sorted order
        ends = [(X.vertices.index(p),
                 sorted(X.outgoing_direction(f, p) for f in X.edges_at(p)).index(
                     X.outgoing_direction(e, p))) for p in e.verts]
        n = resolution * resolution
        piece = MeshPiece("flat", (ei,), np.empty((n, 4)), np.empty((n, 2, 4)),
                          (resolution, resolution))
        oracle_flat_piece(X, sched, ei, ends, piece)
        pieces.append(piece)
    return pieces


def _from_working(j, xw, yw):
    """Leg-j working coordinates of points to standard ones (an involution)."""
    x = np.atleast_2d(np.asarray(xw, dtype=float))
    y = np.atleast_2d(np.asarray(yw, dtype=float))
    if j == 1:
        return x.copy(), y.copy()
    if j == 2:
        return x[:, ::-1].copy(), y[:, ::-1].copy()
    # leg 0: conjugate by the vertex involution exchanging p_0 and p_1
    xs = np.stack([-x[:, 0], x[:, 1] - x[:, 0]], axis=1)
    ys = np.stack([PI / 2 - y.sum(axis=1), y[:, 1]], axis=1)
    return xs, ys


def _dworking_to_std(j, dx, dy):
    """The differential of _from_working."""
    if j == 1:
        return dx, dy
    if j == 2:
        return dx[:, ::-1], dy[:, ::-1]
    dxs = np.stack([-dx[:, 0], dx[:, 1] - dx[:, 0]], axis=1)
    dys = np.stack([-(dy.sum(axis=1)), dy[:, 1]], axis=1)
    return dxs, dys


def oracle_flat_piece(X, sched, ei, ends, piece):
    """Fill the piece with the flat cylinder over edge ei between the cut
    point r of its leg at each vertex end, ends the (vertex, leg) pairs, and
    the truncation on a ray; row i r + k lies over base point i, fiber
    angle k."""
    resolution = piece.grid[0]
    e = X.edges[ei]
    fiber = edge_fiber_from_dual(e, X.dual_cell(e))
    r = [sched.cuts[vi, j, 3] for vi, j in ends]
    a = np.array([float(c) for c in e.verts[0]])
    if e.kind == "segment":
        b = np.array([float(c) for c in e.verts[1]])
        d = (b - a) / np.linalg.norm(b - a)
        p1 = b - d * r[1]
    else:
        d = np.array(e.rays[0], dtype=float)
        d = d / np.linalg.norm(d)
        p1 = a + d * sched.truncation
    p0 = a + d * r[0]
    step = p1 - p0
    length = np.linalg.norm(step)
    ts = np.linspace(0.0, 1.0, resolution)
    seg = p0[None, :] + ts[:, None] * step[None, :]
    grid = piece.points.reshape(resolution, resolution, 4)
    grid[:, :, :2] = seg[:, None]
    grid[:, :, 2:] = fiber.points((np.arange(resolution) + 0.5) * PI / resolution, 0)
    fr = piece.frames
    fr[:, 0, :2] = step / length
    fr[:, 0, 2:] = 0.0
    fr[:, 1, :2] = 0.0
    fr[:, 1, 2:] = fiber.direction
