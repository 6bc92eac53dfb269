"""Pair-of-pants numerics.

The potential on the standard coamoeba is

    F(y) = (cos(y_1 + ... + y_{n+1}) * sin y_1 * ... * sin y_{n+1})^(1/(n+1))

on the plus half, extended oddly to the minus half.  Its gradient map h
(scaled by lambda) sends the blown-up coamoeba onto the amoeba-like region
H bounded by the hypersurfaces (n+1)^{n+1} x_1...x_{n+1} = lambda^{n+1};
restricted to the fiber of a leg projection its leg component is strictly
monotone, which is what the Newton/bisection leg-fiber solve exploits.

All evaluators are vectorized over a leading batch axis and are pure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .coamoeba import PI, Coamoeba, r_apply, rstar_apply
from .errors import DomainError, InputError, NumericError

VERTEX_SWITCH_DIST = 1e-3  # below this distance to a vertex, use chart formulas
# Largest scale lambda: keeps the region level (lam / m)^m for n <= 2 and
# the region plot's (lam / 2)^2 finite in floating point.
LAM_MAX = 1e100
# The Hessian is evaluated only this far inside a coamoeba half.
HESSIAN_MARGIN = 1e-12


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


def scaled_h(n, lam, terms):
    """The gradient map at scale lam from its terms (num, den, charts) of
    PantsMap._h_terms: (lam * num) / den, mapped by rstar_apply(n, k, .) on
    the rows of the chart of each vertex k.  DomainError where it is not
    finite."""
    num, den, charts = terms
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        h = lam * num / den[:, None]
        for rows, k in charts:
            h[rows] = rstar_apply(n, k, h[rows])
    if not np.all(np.isfinite(h)):
        raise DomainError("gradient undefined on an open face of the coamoeba")
    return h


def hessian_rows(core, lam, sign):
    """Symmetric Hessian rows, shape (N, m, m), at scale lam from the
    Hessian over lam in columns, core of shape (m, m, N), and the row signs
    (+1 plus, -1 minus half): entry (j, k) is the mean of (core * lam) *
    sign over (j, k) and (k, j), exactly symmetric, for frames."""
    H = core * lam * sign
    return np.ascontiguousarray((0.5 * (H + H.swapaxes(0, 1))).transpose(2, 0, 1))


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

    def h_terms(self, j):
        """Numerator and denominator of column j of the gradient map: h(j)
        is (lam * num) / den, and neither term depends on lam."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.cos(self.w[j] + self.s) * (self.P / self.sins[j]), self.m * self._base

    def h(self, j):
        """Column j of the gradient map; no chart near the vertices."""
        num, den = self.h_terms(j)
        return self.lam * num / den

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

    def H_core(self, j, k):
        """Hessian entry (j, k) over lam, not symmetrized; interior rows only."""
        Sn, A, B = self._second
        cot_j, d_j, g_j = self._dg(j)
        cot_k, _, g_k = self._dg(k)
        gjk = self.P * (cot_k * d_j - Sn * cot_j - self.C)
        if j == k:
            gjk = gjk - self.C * self.P / (self.sins[j] * self.sins[j])
        return A * g_j * g_k + B * gjk

    def H(self, j, k):
        """Hessian entry (j, k), not symmetrized; interior rows only."""
        return self.H_core(j, k) * self.lam


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
            h = scaled_h(self.n, self.lam, self._h_terms(w, jet))
            out.append(h[0] if single else h)
        if "H" in parts:
            H = hessian_rows(self._hessian_core(w, jet), self.lam, sign)
            out.append(H[0] if single else H)
        return out

    def _unit_terms(self, y):
        """The terms of h (_h_terms) and the Hessian over lam
        (_hessian_core) at rows y of the open plus half, neither of which
        depends on lam: _evaluate(y, "hH") is scaled_h(n, lam, terms) and
        hessian_rows(core, lam, 1)."""
        w, sign = self._plus_rep(y)
        if not np.all(sign == 1.0):
            raise DomainError("scale-free terms need points of the plus half")
        jet = _PlusJet(self.n, self.lam, w)
        return self._h_terms(w, jet), self._hessian_core(w, jet)

    def _hessian_core(self, w, jet):
        """The Hessian over lam at plus columns w, not symmetrized: shape
        (m, m, N); DomainError unless every column is interior."""
        if not np.all((w > HESSIAN_MARGIN).all(axis=0) & (jet.s < PI / 2 - HESSIAN_MARGIN)):
            raise DomainError("Hessian needs interior points of a coamoeba half")
        return np.array([[jet.H_core(j, k) for k in range(self.m)] for j in range(self.m)])

    def _h_terms(self, w, jet):
        """Terms (num, den, charts) of h at plus columns w, none of which
        depends on lam: the jet's h_terms, replaced by those of the chart
        expression within VERTEX_SWITCH_DIST of a vertex.  charts lists
        (rows, k) for the rows near a vertex k != 0, which scaled_h maps by
        rstar_apply(n, k, .) after scaling."""
        cols = [jet.h_terms(j) for j in range(self.m)]
        num, den, charts = np.stack([c[0] for c in cols], axis=1), cols[0][1], []
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
                charts.append((rows, int(k)))
            z = np.mod(z + PI / 2, PI) - PI / 2
            t = np.where(np.abs(z[:, -1]) < 1e-300, 1e-300, z[:, -1])
            # on a face through the vertex the chart terms are 0/0 or
            # overflow; scaled_h reports such rows
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                num[rows], den_k = h_chart_terms(self.n, z[:, :-1] / t[:, None], t)
            den[rows] = den_k[:, 0]
        return num, den, charts

    def h_chart(self, alpha, t):
        """Smooth chart expression of h near vertex 0.

        alpha: (N, n) positive; t: (N,); valid for both signs of t and at
        t = 0, where it restricts to the boundary-surface diffeomorphism.
        """
        num, den = h_chart_terms(self.n, alpha, t)
        h = self.lam * num / den
        return h if h.shape[0] > 1 else h[0]

    def hessian_eigen_max(self, y):
        H = self.hessian(y)
        vals = np.linalg.eigvalsh(np.atleast_3d(H).reshape(-1, self.m, self.m))
        return vals.max(axis=1)

    # ------------------------------------------------------------------
    # barycentric cells

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

    # ------------------------------------------------------------------
    # sampling helpers

    def sample_interior(self, m, seed=0):
        return self.coamoeba.sample_interior(m, seed=seed)

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
# leg fibers and the Legendre transform

def leg_fiber_root(b, s):
    """The root q of h_1(q, b) = lam s on the n = 1 pants, for rows of the
    other coordinate 0 < b < pi/2 and of s > 0; NaN or a value outside
    (0, (pi/2 - b)/2) where it cannot be formed in floating point.

    With c = sin b and z = sin(2q + b), h_1 = lam s reads
    c z^2 + 2 s^2 z - c (1 + 2 s^2) = 0, whose root in (c, 1) is the one
    on the bracket.  z - c and 1 - z are taken from the two quadratics
    they solve, each in the form without cancellation, and
    2q = atan2(sin(2q), cos(2q)) from them, so q keeps its relative
    precision both near 0 (s large) and near the bracket end (s small).
    """
    e = s * s
    c, cb = np.sin(b), np.cos(b)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d = np.sqrt(e * e + c * c * (2.0 * e + 1.0))
        v = c * cb * cb / (c * c + e + d)                    # z - c
        u = 2.0 * e * cb * cb / ((1.0 + c) * (c + e + d))    # 1 - z
        z = c + v
        ct = np.sqrt(u * (1.0 + z))                          # cos(2q + b)
        return 0.5 * np.arctan2(v * (z + c), (z * cb + c * ct) * (ct * cb + z * c))


def solve_leg_fiber(pants, j, target, wp, tol=1e-12, max_iter=80):
    """Rows q of plus coordinates with h_j(q) = target, solved for the
    coordinate q_j; the other coordinates stay at wp.

    h_j decreases monotonically on the bracket 0 < q_j < hi =
    (pi/2 - rest)/2, where rest is the sum of the other coordinates, and
    vanishes at hi.  For n = 1, h_j = target is a quadratic in
    sin(2 q_j + rest) and Newton starts at its root (leg_fiber_root), so
    one iteration confirms it.  Otherwise, or on the rows where that root
    cannot be formed (target / lam so large that q_j underflows), the
    start is asymptotic: as q_j -> 0, h_j ~ A q_j^(-n/m) with
    A = lam cos(rest) P_rest / (m (cos(rest) P_rest)^(n/m)) and P_rest
    the product of the other sines, giving (A/target)^(m/n).  A start
    that is not finite or lies outside the bracket is replaced by hi/2.
    Each iteration updates only the rows whose last step was at least
    tol, and evaluates only h_j and H_jj; a Newton step that leaves the
    bracket becomes a bisection step, unless it rounds to no move at all
    (at the root, the end of the bracket it just set).  Rows still
    moving after max_iter iterations must have a small residual, or
    NumericError reports them.
    """
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
    start = np.arange(len(y))  # rows still without a start
    if pants.n == 1:
        with np.errstate(over="ignore"):
            y0 = leg_fiber_root(others[:, 0], target / pants.lam)
        ok = np.isfinite(y0) & (y0 > 0) & (y0 < hi)
        y = np.where(ok, y0, y)
        start = start[~ok]
    if pants.n and len(start):  # for n = 0, h_j has no pole at q_j = 0
        c = np.cos(rest[start]) * np.prod(np.sin(others[start]), axis=1)
        A = pants.lam * c / (pants.m * np.power(c, pants.n / pants.m))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            y0 = np.power(A / target[start], pants.m / pants.n)
        y[start] = np.where(np.isfinite(y0) & (y0 > 0) & (y0 < hi[start]), y0, y[start])
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
        outside = (((ynew <= lo) | (ynew >= hi)) & (ynew != ya)) | ~np.isfinite(ynew)
        ynew = np.where(outside, 0.5 * (lo + hi), ynew)
        y[act] = ynew
        moving = ~(np.abs(ynew - ya) < tol)
        act, w, lo, hi, t = act[moving], w[:, moving], lo[moving], hi[moving], t[moving]
        if not len(act):
            break
    q = wp.copy()
    q[:, i] = y
    if len(act):  # rows still moving after max_iter iterations
        resid = np.abs(_PlusJet(pants.n, pants.lam, q.T.copy()).h(i) - target)
        # written so that a NaN residual counts as a failure
        if not np.all(resid <= 1e-6 * (1 + np.abs(target))):
            raise NumericError("fiber solve did not converge",
                               {"max_residual": float(resid.max()),
                                "iterations": max_iter,
                                "unconverged_rows": int(len(act))})
    return q


@dataclass
class ProjectionPair:
    """Projections adapted to the leg face E_J, J = {j} with 1 <= j <= n+1:
    the torus-side projection zeroes coordinate j, the base-side projection
    keeps only coordinate j."""

    pants: PantsMap
    J: frozenset

    def __post_init__(self):
        self.J = frozenset(self.J)
        if len(self.J) != 1 or not self.J <= set(range(1, self.pants.m + 1)):
            raise InputError("J must be a single leg {j} with 1 <= j <= n+1")
        (self.j,) = self.J
        self._comp = [i for i in range(1, self.pants.m + 1) if i != self.j]

    def y_proj(self, y):
        """Torus-side projection onto the face E_J (full torus point)."""
        z = np.atleast_2d(np.asarray(y, dtype=float)).copy()
        z[:, self.j - 1] = 0.0
        return z if z.shape[0] > 1 else z[0]

    def x_proj(self, x):
        """Base-side projection onto the leg's ray direction."""
        z = np.atleast_2d(np.asarray(x, dtype=float)).copy()
        for i in self._comp:
            z[:, i - 1] = 0.0
        return z if z.shape[0] > 1 else z[0]

    def h_proj(self, y):
        return self.x_proj(self.pants.h(y))

    def g(self, y):
        return self.y_proj(y), self.h_proj(y)

    def in_interior_cone(self, x):
        """x in int Gamma_J: positive on the leg, 0 off it."""
        z = np.atleast_2d(np.asarray(x, dtype=float))
        ok = z[:, self.j - 1] > 0.0
        for i in self._comp:
            ok &= np.abs(z[:, i - 1]) <= 1e-9
        return ok

    def fiber_solve(self, x, yprime, tol=1e-12, max_iter=80):
        """The unique q in int W~_{J,0} with y_proj(q) = yprime, h_proj(q) = x."""
        xs = np.atleast_2d(np.asarray(x, dtype=float))
        ys = np.atleast_2d(np.asarray(yprime, dtype=float))
        single = np.asarray(x, dtype=float).ndim == 1
        if not np.all(self.in_interior_cone(x)):
            raise DomainError("base point not in the open cone of the face")
        # centered representative of the face point; the minus half of the
        # face is mirrored onto the plus half (the gradient map is even)
        yc = np.mod(ys + PI / 2, PI) - PI / 2
        cidx = [i - 1 for i in self._comp]
        if cidx:
            neg = yc[:, cidx] < 0
            mixed = np.any(neg, axis=1) & ~np.all(neg, axis=1)
            if np.any(mixed):
                raise DomainError("transverse point not on a half of the face")
            minus = np.all(neg, axis=1)
        else:
            minus = np.zeros(len(yc), dtype=bool)
        wp = np.where(minus[:, None], -yc, yc)
        wp[:, self.j - 1] = 0.0
        q = solve_leg_fiber(self.pants, self.j, xs[:, self.j - 1], wp, tol, max_iter)
        q = np.where(minus[:, None], -q, q)
        return q[0] if single else q

    def legendre_G(self, x, yprime):
        """Legendre transform value and differential at the solved fiber point.

        Returns (G, q, dG) with dG = {"x": q_j, "yprime": -h on the
        complement}, matching the graph identities.
        """
        q = self.fiber_solve(x, yprime)
        qs = np.atleast_2d(q)
        xs = np.atleast_2d(np.asarray(x, dtype=float))
        F, hq = self.pants._evaluate(qs, "Fh")
        jidx = [self.j - 1]
        cidx = [i - 1 for i in self._comp]
        G = -F + np.sum(xs[:, jidx] * qs[:, jidx], axis=1)
        dG_x = qs[:, jidx]
        dG_y = -hq[:, cidx]
        if np.asarray(x, dtype=float).ndim == 1:
            return float(G[0]), q, {"x": dG_x[0], "yprime": dG_y[0]}
        return G, q, {"x": dG_x, "yprime": dG_y}


# ---------------------------------------------------------------------------
# decomposition data of the three-dimensional region

class DecompositionData:
    """Explicit decomposition constants of the 3-d region H (n = 2)."""

    def __init__(self):
        self.q0 = np.array([1.0, 1.0, 1.0]) / 3.0

    def z(self, t):
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
            if abs(znew - z) < 1e-15:
                z = znew
                break
            z = znew
        return z

    def q0t(self, t):
        z = self.z(t)
        return np.array([2.0 * z / 3.0 + t, z, z])

    def qkt(self, k, t):
        return rstar_apply(2, k, self.q0t(t)) if k else self.q0t(t)

    def tau_intersection(self):
        """Where the two curves x1 = 1/(108 x2^2) - x2 and x2 = 1/(108 x1^2) - x1
        bounding Q_J in the 2-face cross: on the diagonal, 216 x^3 = 1."""
        x = (1.0 / 216.0) ** (1.0 / 3.0)
        return np.array([x, x, 0.0])


# ---------------------------------------------------------------------------
# appendix test curves

def gamma_curve(a, t):
    """h along the ray from the origin vertex with direction a, sum(a) = pi/2."""
    a = np.asarray(a, dtype=float)
    if abs(a.sum() - PI / 2) > 1e-9 or np.any(a <= 0):
        raise InputError("need positive a with sum(a) = pi/2")
    pm = PantsMap(len(a) - 1)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any((t <= 0) | (t >= 1)):
        raise DomainError("t must lie in (0, 1)")
    y = t[:, None] * a[None, :]
    out = pm.h(y)
    return out if len(t) > 1 else out[0]


def eta_curve(a, b, t):
    """h along the edge-to-edge segment ((pi/2-b)t, bt, (1-t)a), n = 2."""
    if not (0 < a < PI / 4 and 0 < b < PI / 4):
        raise InputError("need a, b in (0, pi/4)")
    pm = PantsMap(2)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any((t <= 0) | (t >= 1)):
        raise DomainError("t must lie in (0, 1)")
    y = np.stack([(PI / 2 - b) * t, b * t, (1 - t) * a], axis=1)
    out = pm.h(y)
    return out if len(t) > 1 else out[0]
