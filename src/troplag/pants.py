"""Pair-of-pants numerics.

The potential on the standard coamoeba is

    F(y) = (cos(y_1 + ... + y_{n+1}) * sin y_1 * ... * sin y_{n+1})^(1/(n+1))

on the plus half, extended oddly to the minus half.  Its gradient map h
(scaled by lambda) sends the blown-up coamoeba onto the amoeba-like region
H bounded by the hypersurfaces (n+1)^{n+1} x_1...x_{n+1} = lambda^{n+1};
restricted to a fiber of a face projection it is strictly monotone, which
is what the Newton/bisection fiber solvers exploit.

All evaluators are vectorized over a leading batch axis and are pure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .coamoeba import PI, Coamoeba, r_apply, rstar_apply, apply_index_transposition
from .errors import DomainError, InputError, NumericError

VERTEX_SWITCH_DIST = 1e-3  # below this distance to a vertex, use chart formulas
# Largest scale lambda: keeps the region level (lam / m)^m for n <= 2 and
# the region plot's (lam / 2)^2 finite in floating point.
LAM_MAX = 1e100


def _sinc_pi(x):
    """sin(x)/x, smooth through 0."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    nz = np.abs(x) > 1e-150
    out[nz] = np.sin(x[nz]) / x[nz]
    return out


def h_chart_terms(n, alpha, t):
    """Numerator and denominator of the chart expression of h near vertex 0:
    PantsMap(n, lam).h_chart is (lam * num) / den, and neither term
    depends on lam."""
    alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    a_full = np.concatenate([alpha, np.ones((alpha.shape[0], 1))], axis=1)
    y = a_full * t[:, None]
    s = y.sum(axis=1)
    sincs = a_full * _sinc_pi(y)  # sin(t a_j)/t
    S = np.prod(sincs, axis=1)
    base = np.power(np.clip(np.cos(s) * S, 1e-300, None), n / (n + 1))
    num = np.cos(y + s[:, None]) * (S[:, None] / sincs)
    return num, (n + 1) * base[:, None]


class _PlusJet:
    """lam * F on the plus half and its first two derivatives at the
    columns w (shape (m, N)) of plus rows; no domain checks.  F, each h_j
    and each Hessian entry share one sum, one set of sines and cosines and
    the terms cached on first use.  Reductions run over the first axis:
    numpy's reduction along each row gives the same bits at ~20 ns a row,
    this one ~1 ns."""

    def __init__(self, n, lam, w):
        self.n, self.m, self.lam, self.w = n, n + 1, lam, w
        self.s = w.sum(axis=0)
        self.sins = np.sin(w)
        self.P = self.sins.prod(axis=0)
        self.C = np.cos(self.s)
        self.g = self.C * self.P
        self._first = {}

    @functools.cached_property
    def _root(self):
        """max(g, 0)^(1/m): F / lam if no coordinate is negative, and g^(1/m)."""
        return np.power(np.clip(self.g, 0.0, None), 1.0 / self.m)

    def F(self):
        """F / lam; a coordinate below 0 (the closed half's slack) gives 0."""
        return np.where((self.w < 0.0).any(axis=0), 0.0, self._root)

    @functools.cached_property
    def _base(self):
        return np.power(np.clip(self.g, 1e-300, None), self.n / self.m)

    def h(self, j):
        """Column j of the gradient map; no chart near the vertices."""
        with np.errstate(invalid="ignore", divide="ignore"):
            num = np.cos(self.w[j] + self.s) * (self.P / self.sins[j])
            return self.lam * num / (self.m * self._base)

    @functools.cached_property
    def _second(self):
        """sin(s) and the factors p (p - 1) g^p / g^2 and p g^p / g of H."""
        p = 1.0 / self.m
        return (np.sin(self.s), p * (p - 1) * (self._root / (self.g * self.g)),
                p * (self._root / self.g))

    def _dg(self, j):
        """cot w_j, cos(s) cot w_j - sin(s) and g_j = P times the latter."""
        if j not in self._first:
            cot = np.cos(self.w[j]) / self.sins[j]
            d = self.C * cot - self._second[0]
            self._first[j] = cot, d, self.P * d
        return self._first[j]

    def H(self, j, k):
        """Hessian entry (j, k), not symmetrized; interior rows only."""
        Sn, A, B = self._second
        cot_j, d_j, g_j = self._dg(j)
        cot_k, _, g_k = self._dg(k)
        gjk = self.P * (cot_k * d_j - Sn * cot_j - self.C)
        if j == k:
            gjk = gjk - self.C * self.P / (self.sins[j] * self.sins[j])
        return (A * g_j * g_k + B * gjk) * self.lam


class PantsMap:
    """Potential, gradient map, Hessian and region data at scale lambda."""

    def __init__(self, n, lam=1.0):
        if n < 0:
            raise InputError("n must be >= 0")
        if not np.isfinite(lam):
            raise InputError("scale lambda must be finite")
        if lam <= 0:
            raise InputError("scale lambda must be positive")
        if lam > LAM_MAX:
            raise InputError(f"scale lambda must be at most {LAM_MAX:g}")
        self.n = n
        self.m = n + 1
        self.lam = float(lam)
        self.coamoeba = Coamoeba(n)

    def rescaled(self, lam):
        return PantsMap(self.n, lam)

    # ------------------------------------------------------------------
    # the potential, its gradient map and its Hessian

    def _plus_rep(self, y):
        """Columns (shape (m, N)) of the per-row plus representative w, and
        the sign (+1 plus / -1 minus; 0 in neither closed half)."""
        y = np.atleast_2d(np.asarray(y, dtype=float)).T.copy()
        wp = np.mod(y + PI / 4, PI) - PI / 4
        wm = np.mod(-y + PI / 4, PI) - PI / 4
        eps = 1e-12
        okp = (wp >= -eps).all(axis=0) & (wp.sum(axis=0) <= PI / 2 + eps)
        okm = (wm >= -eps).all(axis=0) & (wm.sum(axis=0) <= PI / 2 + eps)
        sign = np.where(okp, 1.0, np.where(okm, -1.0, 0.0))
        return np.where(okp, wp, wm), sign

    def F(self, y):
        """Potential value; odd under the torus involution y -> -y."""
        return self._evaluate(y, "F")[0]

    def h(self, y):
        """Gradient map, even under y -> -y, chart-stabilized near vertices."""
        return self._evaluate(y, "h")[0]

    def hessian(self, y):
        """Analytic Hessian of the potential; interior plus points only."""
        return self._evaluate(y, "H")[0]

    def _evaluate(self, y, parts):
        """The parts "F", "h", "H" (in that order) of the potential at rows
        y, from one _PlusJet: each with the values and the DomainErrors of
        F, h and hessian."""
        single = np.ndim(y) == 1
        w, sign = self._plus_rep(y)
        if ("F" in parts or "h" in parts) and np.any(sign == 0.0):
            raise DomainError("point outside the coamoeba")
        jet = _PlusJet(self.n, self.lam, w)
        out = []
        if "F" in parts:
            val = sign * jet.F() * self.lam
            out.append(float(val[0]) if single else val)
        if "h" in parts:
            h = self._h_switched(w, jet)
            out.append(h[0] if single else h)
        if "H" in parts:
            if not np.all((w > 1e-12).all(axis=0) & (jet.s < PI / 2 - 1e-12)):
                raise DomainError("Hessian needs interior points of a coamoeba half")
            H = np.array([[jet.H(j, k) * sign for k in range(self.m)] for j in range(self.m)])
            H = np.ascontiguousarray((0.5 * (H + H.swapaxes(0, 1))).transpose(2, 0, 1))
            out.append(H[0] if single else H)  # exactly symmetric, for frames
        return out

    def _h_switched(self, w, jet):
        """h at plus columns w: the jet's gradient, replaced by the chart
        expression within VERTEX_SWITCH_DIST of a vertex."""
        out = np.stack([jet.h(j) for j in range(self.m)], axis=1)
        # FlatTorus.distance to the vertices 0 and (pi/2) e_k, column by
        # column: only coordinate k - 1 of w - p_k differs from w
        wrap = self.coamoeba.torus.wrap_centered
        dd = wrap(w) ** 2
        best = np.sqrt(dd.sum(axis=0))
        nearest = np.zeros(len(best), dtype=int)
        for k in range(1, self.m + 1):
            ddk = dd.copy()
            ddk[k - 1] = wrap(w[k - 1] - PI / 2) ** 2
            dist = np.sqrt(ddk.sum(axis=0))
            closer = dist < best
            best = np.where(closer, dist, best)
            nearest = np.where(closer, k, nearest)
        near = best < VERTEX_SWITCH_DIST
        for k in sorted(set(nearest[near])):
            rows = near & (nearest == k)
            z = w.T[rows]
            if k != 0:
                z = r_apply(self.n, k, z)
            z = np.mod(z + PI / 2, PI) - PI / 2
            t = np.where(np.abs(z[:, -1]) < 1e-300, 1e-300, z[:, -1])
            # on a face through the vertex the chart terms are 0/0 or
            # overflow; the finiteness check below reports such rows
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                out[rows] = self.h_chart(z[:, :-1] / t[:, None], t, int(k))
        if not np.all(np.isfinite(out)):
            raise DomainError("gradient undefined on an open face of the coamoeba")
        return out

    def h_chart(self, alpha, t, k=0):
        """Smooth chart expression of h near vertex k.

        alpha: (N, n) positive; t: (N,); valid for both signs of t and at
        t = 0, where it restricts to the boundary-surface diffeomorphism.
        """
        num, den = h_chart_terms(self.n, alpha, t)
        h = self.lam * num / den
        if k != 0:
            h = rstar_apply(self.n, k, h)
        return h if h.shape[0] > 1 else h[0]

    def hessian_eigen_max(self, y):
        H = self.hessian(y)
        vals = np.linalg.eigvalsh(np.atleast_3d(H).reshape(-1, self.m, self.m))
        return vals.max(axis=1)

    # ------------------------------------------------------------------
    # the region H and its cells

    def region_membership(self, x, tol=1e-9):
        """Classify x: which H_k contain it, which S_k it lies on.

        Returns {"in": [k...], "on": [k...], "outside": bool}.
        """
        x = np.asarray(x, dtype=float)
        cval = (self.lam / self.m) ** self.m
        in_list, on_list = [], []
        for k in range(self.m + 1):
            xk = x if k == 0 else rstar_apply(self.n, k, x)
            if np.all(xk >= -tol):
                prod = np.prod(xk)
                if prod <= cval + tol:
                    in_list.append(k)
                if np.all(xk > tol) and abs(prod - cval) <= tol:
                    on_list.append(k)
        return {"in": in_list, "on": on_list, "outside": not in_list}

    def region_slack(self, x):
        """min over k of the H_k inequality slacks; >= 0 means inside."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        cval = (self.lam / self.m) ** self.m
        best = np.full(len(x), -np.inf)
        for k in range(self.m + 1):
            xk = x if k == 0 else rstar_apply(self.n, k, x)
            slack = np.minimum(xk.min(axis=1), cval - np.prod(np.clip(xk, 0, None), axis=1))
            best = np.maximum(best, slack)
        return best

    # -- barycentric cells ------------------------------------------------

    def delta_value(self, j, k, y):
        """Signed slack of the half-space Delta_{jk} at plus coordinates y."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        s = y.sum(axis=1)
        if k == 0:
            return PI / 2 - (y[:, j - 1] + s)
        if j == 0:
            return (y[:, k - 1] + s) - PI / 2
        return y[:, k - 1] - y[:, j - 1]

    def in_W(self, J, y, k=None, tol=1e-12):
        """Membership of the plus representative in W^+_{J}, or W^+_{J,k}."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        J = frozenset(J)
        ks = [k] if k is not None else [q for q in range(self.m + 1) if q not in J]
        ok = np.ones(len(y), dtype=bool)
        for q in ks:
            for j in J:
                ok &= self.delta_value(j, q, y) >= -tol
        return ok

    def d_value(self, j, k, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if k == 0:
            return x[:, j - 1]
        if j == 0:
            return -x[:, k - 1]
        return x[:, j - 1] - x[:, k - 1]

    def in_V(self, J, x, k=None, tol=1e-12):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        J = frozenset(J)
        ks = [k] if k is not None else [q for q in range(self.m + 1) if q not in J]
        ok = np.ones(len(x), dtype=bool)
        for q in ks:
            for j in J:
                ok &= self.d_value(j, q, x) >= -tol
        return ok

    def cell_classify(self, y, tol=1e-12):
        """All pairs (J, k) with y in W_{J,k}, plus V-memberships of h(y)."""
        w, sign = self._plus_rep(y)
        if sign[0] == 0.0:
            raise DomainError("point outside the coamoeba")
        w = w.T
        x = np.atleast_2d(self.h(y))
        pairs, vmember = [], []
        idx = range(self.m + 1)
        from itertools import combinations
        for size in range(1, self.m + 1):
            for J in combinations(idx, size):
                Jf = frozenset(J)
                for k in idx:
                    if k in Jf:
                        continue
                    if bool(self.in_W(Jf, w, k=k, tol=tol)[0]):
                        pairs.append((Jf, k))
                if bool(self.in_V(Jf, x, tol=tol)[0]):
                    vmember.append(Jf)
        return {"W": pairs, "V": vmember}

    # ------------------------------------------------------------------
    # sampling helpers

    def sample_interior(self, m, seed=0, half=+1):
        return self.coamoeba.sample_interior(m, seed=seed, half=half)

    def sample_W_J0(self, m, seed=0):
        """Quasi-random points of the vertex-star W^+_{J_0} (interior)."""
        J0 = frozenset(range(1, self.m + 1))
        out = np.empty((0, self.m))
        s = seed
        while len(out) < m:
            cand = self.sample_interior(2 * m, seed=s)
            keep = self.in_W(J0, cand, tol=0.0)
            out = np.vstack([out, cand[keep]])
            s += 1000003
        return out[:m]


# ---------------------------------------------------------------------------
# face projections and Legendre machinery

@dataclass
class ProjectionPair:
    """Projections adapted to the face E_J and auxiliary vertex index k.

    Standard position is k = 0 with J a subset of {1..n+1}: the torus-side
    projection zeroes the J coordinates, the base-side projection keeps
    them.  Other k are handled by conjugation with the vertex symmetry.
    """

    pants: PantsMap
    J: frozenset
    k: int

    def __post_init__(self):
        m = self.pants.m
        self.J = frozenset(self.J)
        if not self.J or len(self.J) > m or self.k in self.J:
            raise InputError("need 1 <= |J| <= n+1 and k not in J")
        if not self.J <= set(range(m + 2)) or not 0 <= self.k <= m + 1:
            raise InputError("indices out of range")
        if self.k == 0:
            self._J0 = self.J
        else:
            self._J0 = apply_index_transposition(self.k, self.J, self.pants.n)
            if 0 in self._J0:
                raise InputError("conjugated face index still contains 0")
        self._jlist = sorted(self._J0)
        self._comp = [j for j in range(1, m + 1) if j not in self._J0]

    # -- raw projections ---------------------------------------------------
    def _conj_y(self, y):
        return r_apply(self.pants.n, self.k, y) if self.k != 0 else np.asarray(y, dtype=float)

    def _conj_x(self, x):
        return rstar_apply(self.pants.n, self.k, x) if self.k != 0 else np.asarray(x, dtype=float)

    def y_proj(self, y):
        """Torus-side projection onto the face E_J (full torus point)."""
        z = np.atleast_2d(self._conj_y(y)).copy()
        for j in self._jlist:
            z[:, j - 1] = 0.0
        out = self._conj_y(z)
        return out if out.shape[0] > 1 else out[0]

    def x_proj(self, x):
        """Base-side projection onto the span of the face's ray directions."""
        z = np.atleast_2d(self._conj_x(x)).copy()
        for j in self._comp:
            z[:, j - 1] = 0.0
        out = self._conj_x(z)
        return out if out.shape[0] > 1 else out[0]

    def h_proj(self, y):
        return self.x_proj(self.pants.h(y))

    def g(self, y):
        return self.y_proj(y), self.h_proj(y)

    def in_interior_cone(self, x, tol=0.0):
        """x in int Gamma_J?"""
        z = np.atleast_2d(self._conj_x(x))
        ok = np.ones(len(z), dtype=bool)
        for j in self._jlist:
            ok &= z[:, j - 1] > tol
        for j in self._comp:
            ok &= np.abs(z[:, j - 1]) <= 1e-9 + 0 * tol
        return ok

    # -- fiber solving -------------------------------------------------
    def fiber_solve(self, x, yprime, tol=1e-12, max_iter=80):
        """The unique q in int W~_{J,k} with y_proj(q) = yprime, h_proj(q) = x."""
        xs = np.atleast_2d(self._conj_x(np.asarray(x, dtype=float)))
        ys = np.atleast_2d(self._conj_y(np.asarray(yprime, dtype=float)))
        single = np.asarray(x, dtype=float).ndim == 1
        if not np.all(self.in_interior_cone(x)):
            raise DomainError("base point not in the open cone of the face")
        # centered representative of the face point; the minus half of the
        # face is mirrored onto the plus half (the gradient map is even)
        yc = np.mod(ys + PI / 2, PI) - PI / 2
        cidx = [j - 1 for j in self._comp]
        if cidx:
            neg = yc[:, cidx] < 0
            mixed = np.any(neg, axis=1) & ~np.all(neg, axis=1)
            if np.any(mixed):
                raise DomainError("transverse point not on a half of the face")
            minus = np.all(neg, axis=1)
        else:
            minus = np.zeros(len(yc), dtype=bool)
        wp = np.where(minus[:, None], -yc, yc)
        for j in self._jlist:
            wp[:, j - 1] = 0.0
        targets = xs[:, [j - 1 for j in self._jlist]]
        q = self._solve_std(targets, wp, tol, max_iter)
        q = np.where(minus[:, None], -q, q)
        out = self._conj_y(q)
        return out[0] if single else out

    def _solve_std(self, targets, wp, tol, max_iter):
        ell = len(self._jlist)
        if ell == 1:
            q = self._solve_scalar(self._jlist[0], targets[:, 0], wp, tol, max_iter)
        else:
            q = self._solve_newton_nd(targets, wp, tol, max_iter)
        return q

    def _h_plus(self, q, cols):
        """Columns cols of h at plus rows q (no chart near the vertices)."""
        jet = _PlusJet(self.pants.n, self.pants.lam, q.T.copy())
        return np.stack([jet.h(c) for c in cols], axis=1)

    def _solve_scalar(self, j, target, wp, tol, max_iter):
        """Solve h_j(q) = target for the coordinate q_j; the other
        coordinates stay at wp.

        h_j decreases monotonically on the bracket 0 < q_j < hi =
        (pi/2 - rest)/2, where rest is the sum of the other coordinates, and
        vanishes at hi.  As q_j -> 0, h_j ~ A q_j^(-n/m) with
        A = lam cos(rest) P_rest / (m (cos(rest) P_rest)^(n/m)) and P_rest
        the product of the other sines, so Newton starts at
        (A/target)^(m/n); a start that is not finite or lies outside the
        bracket is replaced by hi/2.  Each iteration updates only the rows
        whose last step was at least tol, and evaluates only h_j and H_jj;
        a Newton step that leaves the bracket becomes a bisection step.
        Rows still moving after max_iter iterations must have a small
        residual, or NumericError reports them.
        """
        pants = self.pants
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
        if pants.n:  # for n = 0, h_j has no pole at q_j = 0
            c = np.cos(rest) * np.prod(np.sin(others), axis=1)
            A = pants.lam * c / (pants.m * np.power(c, pants.n / pants.m))
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                y0 = np.power(A / target, pants.m / pants.n)
            y = np.where(np.isfinite(y0) & (y0 > 0) & (y0 < hi), y0, y)
        # rows still moving, with their point columns, brackets and targets
        act, w, lo, t = np.arange(len(y)), wp.T.copy(), np.zeros_like(hi), target
        for _ in range(max_iter):
            ya = y[act]
            w[i] = ya
            jet = _PlusJet(pants.n, pants.lam, w)
            hval, Hjj = jet.h(i), jet.H(i, i)
            f = hval - t
            lo = np.where(f > 0, ya, lo)
            hi = np.where(f < 0, ya, hi)
            ynew = ya - f / Hjj
            outside = (ynew <= lo) | (ynew >= hi) | ~np.isfinite(ynew)
            ynew = np.where(outside, 0.5 * (lo + hi), ynew)
            y[act] = ynew
            moving = ~(np.abs(ynew - ya) < tol)
            act, w, lo, hi, t = act[moving], w[:, moving], lo[moving], hi[moving], t[moving]
            if not len(act):
                break
        q = wp.copy()
        q[:, i] = y
        if len(act):  # rows still moving after max_iter iterations
            resid = np.abs(self._h_plus(q, [i])[:, 0] - target)
            # written so that a NaN residual counts as a failure
            if not np.all(resid <= 1e-6 * (1 + np.abs(target))):
                raise NumericError("fiber solve did not converge",
                                   {"max_residual": float(resid.max()),
                                    "iterations": max_iter,
                                    "unconverged_rows": int(len(act))})
        return q

    def _solve_newton_nd(self, targets, wp, tol, max_iter):
        """Damped Newton for |J| >= 2; the Jacobian is a negative-definite
        Hessian block, so the residual is a descent direction everywhere."""
        pants = self.pants
        jidx = [j - 1 for j in self._jlist]
        q = wp.copy()
        # start strictly inside, then two coordinate sweeps of scalar solves
        free = PI / 2 - q.sum(axis=1)
        q[:, jidx] = 0.25 * free[:, None] / len(jidx)
        for _ in range(2):
            for pos, j in enumerate(self._jlist):
                q = self._solve_scalar(j, targets[:, pos], q, 1e-6, 40)
        for row in range(len(q)):
            qr = q[row:row + 1].copy()
            tr = targets[row]
            scale = 1.0 + np.abs(tr).max()
            for _ in range(max_iter):
                f = self._h_plus(qr, jidx)[0] - tr
                res = np.abs(f).max()
                if res < 1e-13 * scale:
                    break
                H = pants.hessian(qr)[0][np.ix_(jidx, jidx)]
                step = np.linalg.solve(H, f)
                lam = 1.0
                for _ in range(50):
                    trial = qr.copy()
                    trial[0, jidx] = qr[0, jidx] - lam * step
                    s = trial.sum()
                    ok = np.all(trial[0, jidx] > 1e-15) and s < PI / 2 - 1e-15
                    ok = ok and all(trial[0, j] + s < PI / 2 - 1e-15 for j in jidx)
                    if ok:
                        rnew = np.abs(self._h_plus(trial, jidx)[0] - tr).max()
                        if rnew <= res:
                            qr = trial
                            break
                    lam *= 0.5
                else:
                    break
            f = self._h_plus(qr, jidx)[0] - tr
            if np.abs(f).max() > 1e-8 * scale:
                raise NumericError("nd fiber solve did not converge",
                                   {"row": row, "residual": float(np.abs(f).max())})
            q[row] = qr[0]
        return q

    def fiber_solve_exceptional(self, x):
        """Fiber over the t = 0 chart point of the face's blown-up vertex.

        Closed form from the exceptional-set diffeomorphism: the chart
        coordinates are ratios of base coordinates.
        """
        xs = np.atleast_2d(self._conj_x(np.asarray(x, dtype=float)))
        m = self.pants.m
        alpha = xs[:, -1][:, None] / xs[:, :-1]
        return alpha

    # -- Legendre transform ---------------------------------------------
    def legendre_G(self, x, yprime):
        """Legendre transform value and differential at the solved fiber point.

        Returns (G, q, dG) with dG = {"x": y_J(q)-coords, "yprime": -h on
        the complement}, matching the graph identities.
        """
        q = self.fiber_solve(x, yprime)
        qs = np.atleast_2d(q)
        xs = np.atleast_2d(np.asarray(x, dtype=float))
        F, hq = self.pants._evaluate(qs, "Fh")
        # work in conjugated standard coordinates
        qc = np.atleast_2d(self._conj_y(qs))
        xc = np.atleast_2d(self._conj_x(xs))
        hc = np.atleast_2d(self._conj_x(hq)) if self.k != 0 else hq
        jidx = [j - 1 for j in self._jlist]
        cidx = [j - 1 for j in self._comp]
        G = -F + np.sum(xc[:, jidx] * qc[:, jidx], axis=1)
        dG_x = qc[:, jidx]
        dG_y = -hc[:, cidx]
        single = np.asarray(x, dtype=float).ndim == 1
        if single:
            return float(G[0]), q, {"x": dG_x[0], "yprime": dG_y[0]}
        return G, q, {"x": dG_x, "yprime": dG_y}


def project(pants, J, k):
    return ProjectionPair(pants, frozenset(J), k)


# ---------------------------------------------------------------------------
# decomposition data of the three-dimensional region

class DecompositionData:
    """Explicit decomposition constants of the 3-d region H (n = 2)."""

    def __init__(self, pants=None):
        self.pants = pants or PantsMap(2)
        if self.pants.n != 2:
            raise InputError("decomposition data is specific to n = 2")
        self.q0 = np.array([1.0, 1.0, 1.0]) / 3.0

    def q(self, k):
        return self.q0 if k == 0 else rstar_apply(2, k, self.q0)

    def z(self, t, tol=1e-15):
        """Unique positive root of 9 z^2 (2z + 3t) = 1 for finite t >= 1/9."""
        t = float(t)
        if not 1.0 / 9.0 - 1e-12 <= t < np.inf:  # false for NaN as well
            raise DomainError("z(t) defined for finite t >= 1/9")
        z = 1.0 / 3.0
        for _ in range(100):
            f = 18.0 * z ** 3 + 27.0 * t * z ** 2 - 1.0
            df = 54.0 * z ** 2 + 54.0 * t * z
            znew = z - f / df
            if znew <= 0:
                znew = z / 2
            if abs(znew - z) < tol:
                z = znew
                break
            z = znew
        return z

    def q0t(self, t):
        z = self.z(t)
        return np.array([2.0 * z / 3.0 + t, z, z])

    def qkt(self, k, t):
        return rstar_apply(2, k, self.q0t(t)) if k else self.q0t(t)

    def x_proj_J1(self, x):
        """Projection value along the J={1} system: x1 - x2/3 - x3/3."""
        x = np.asarray(x, dtype=float)
        return x[..., 0] - x[..., 1] / 3.0 - x[..., 2] / 3.0

    def tau1(self, x2):
        """Curve bounding Q_J inside the 2-face: x1 = 1/(108 x2^2) - x2."""
        x2 = np.asarray(x2, dtype=float)
        return 1.0 / (108.0 * x2 * x2) - x2

    def tau2(self, x1):
        return self.tau1(x1)

    def tau_intersection(self):
        """tau1 and tau2 cross on the diagonal: 216 x^3 = 1."""
        x = (1.0 / 216.0) ** (1.0 / 3.0)
        return np.array([x, x, 0.0])

    def in_QJ(self, x, tol=1e-12):
        """Region of the 2-face cut off by tau1 and tau2 away from the axes."""
        x = np.asarray(x, dtype=float)
        x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
        if abs(x3) > 1e-9 or x1 < -tol or x2 < -tol:
            return False
        if x2 <= 1.0 / 6.0 and x2 > 0 and x1 < self.tau1(x2) - tol:
            return False
        if x1 <= 1.0 / 6.0 and x1 > 0 and x2 < self.tau1(x1) - tol:
            return False
        if x1 <= 0 or x2 <= 0:
            return False
        return True

    def in_H_empty(self, x, tol=1e-12):
        """Membership in the central simplex conv{q_0..q_3}."""
        verts = np.stack([self.q(k) for k in range(4)])
        M = np.vstack([verts.T, np.ones(4)])
        rhs = np.concatenate([np.asarray(x, dtype=float), [1.0]])
        bary, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        return bool(np.all(bary >= -1e-9) and abs(bary.sum() - 1) < 1e-9
                    and np.allclose(M @ bary, rhs, atol=1e-9))

    def in_H_J1(self, x, tol=1e-9):
        """Membership in the |J| = 1 piece for J = {1} (triangle stack)."""
        t = float(self.x_proj_J1(x))
        if t < 1.0 / 9.0 - tol:
            return False
        verts = np.stack([self.qkt(k, t) for k in (0, 2, 3)])
        M = np.vstack([verts.T, np.ones(3)])
        rhs = np.concatenate([np.asarray(x, dtype=float), [1.0]])
        bary, res, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        return bool(np.all(bary >= -1e-9) and np.allclose(M @ bary, rhs, atol=1e-8))

    def in_H_J12(self, x, tol=1e-9):
        """Membership in the |J| = 2 piece: fiber over Q_J inside H."""
        x = np.asarray(x, dtype=float)
        base = np.array([x[0], x[1], 0.0])
        if not self.in_QJ(base):
            return False
        return not self.pants.region_membership(x, tol)["outside"]


def decomposition_data(n=2):
    if n != 2:
        raise InputError("decomposition data implemented for n = 2 only")
    return DecompositionData()


# ---------------------------------------------------------------------------
# appendix test curves

def gamma_curve(a, t, pants=None):
    """h along the ray from the origin vertex with direction a, sum(a) = pi/2."""
    a = np.asarray(a, dtype=float)
    if abs(a.sum() - PI / 2) > 1e-9 or np.any(a <= 0):
        raise InputError("need positive a with sum(a) = pi/2")
    pm = pants or PantsMap(len(a) - 1)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any((t <= 0) | (t >= 1)):
        raise DomainError("t must lie in (0, 1)")
    y = t[:, None] * a[None, :]
    out = pm.h(y)
    return out if len(t) > 1 else out[0]


def eta_curve(a, b, t, pants=None):
    """h along the edge-to-edge segment ((pi/2-b)t, bt, (1-t)a), n = 2."""
    if not (0 < a < PI / 4 and 0 < b < PI / 4):
        raise InputError("need a, b in (0, pi/4)")
    pm = pants or PantsMap(2)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any((t <= 0) | (t >= 1)):
        raise DomainError("t must lie in (0, 1)")
    y = np.stack([(PI / 2 - b) * t, b * t, (1 - t) * a], axis=1)
    out = pm.h(y)
    return out if len(t) > 1 else out[0]
