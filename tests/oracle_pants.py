"""Row-wise pants evaluators and the per-leg smooth lift, as they were
before the column-wise kernel: the oracles of test_pants and test_lift.

OraclePantsMap overrides F, h and hessian with numpy reductions over the
coordinate axis (_plus_rep, _h_plus_raw, _g_derivatives) and keeps h_chart;
oracle_solve_scalar is the fiber solve on _h_and_hessian_diag, and
oracle_smooth_pieces builds the pants and one collar per (vertex, leg) with
a fiber solve and F, h and hessian calls of its own.
"""

import numpy as np

from troplag import lift
from troplag.coamoeba import PI, r_apply, rstar_apply
from troplag.errors import DomainError, NumericError
from troplag.lift import Cutoff, LocalModel, MeshPiece
from troplag.pants import VERTEX_SWITCH_DIST, PantsMap


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


def oracle_solve_scalar(pm, j, target, wp, tol, max_iter):
    """ProjectionPair._solve_scalar on _h_and_hessian_diag of rows."""
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
    act, w, lo, t = np.arange(len(y)), wp.copy(), np.zeros_like(hi), target
    for _ in range(max_iter):
        ya = y[act]
        w[:, i] = ya
        hval, Hjj = pm._h_and_hessian_diag(w, i)
        f = hval - t
        lo = np.where(f > 0, ya, lo)
        hi = np.where(f < 0, ya, hi)
        ynew = ya - f / Hjj
        outside = (ynew <= lo) | (ynew >= hi) | ~np.isfinite(ynew)
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
    x_std, y_std = LocalModel.from_working(j, xw, yw)
    dxs_std, dys_std = lift._dworking_to_std(j, dxw_s, dyw_s)
    dxt_std, dyt_std = lift._dworking_to_std(j, dxw_t, dyw_t)
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
    c = np.stack([LocalModel.leg_coordinate(h_all, j) for j in range(3)], axis=1)
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
    chart_pts, chart_frames = lift._pants_chart_points(model, pm, legs_lat, resolution)
    if len(chart_pts):
        P = np.vstack([P, chart_pts])
        frames = np.vstack([frames, chart_frames])
    return P, frames


def oracle_smooth_pieces(X, t, sched, resolution):
    """The pieces of smooth_lift(X, t, sched, resolution), built per leg."""
    pieces = []
    for vi in range(len(X.vertices)):
        model = lift._local_model(X, vi)
        lam = t * sched.lam[vi]
        legs_lat = {j: tuple(getattr(sched.legs[(vi, j)], f) / model.leg_norm[j]
                             for f in ("r_prime", "r_second", "r_bar", "r"))
                    for j in range(3)}
        P, fr = oracle_pants_vertex_piece(model, lam, legs_lat, resolution)
        pieces.append(MeshPiece("pants", (vi,), P, fr))
        for j in range(3):
            ls = sched.legs[(vi, j)]
            scale = model.leg_norm[j]
            s_lat = np.linspace(ls.r_prime / scale, ls.r / scale, resolution)
            cutoff = Cutoff(ls.r_second / scale, ls.r_bar / scale)
            thetas = (np.arange(resolution) + 0.5) * PI / resolution
            S, T = np.meshgrid(s_lat, thetas, indexing="ij")
            P, fr = oracle_collar_sheet(model, j, lam, cutoff, S.ravel(), T.ravel())
            pieces.append(MeshPiece("collar", (vi, j), P, fr,
                                    grid=(resolution, resolution)))
    for ei in range(len(X.edges)):
        pieces.append(lift._flat_piece(X, sched, ei, resolution))
    return pieces
