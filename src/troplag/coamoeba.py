"""Torus-side geometry: coamoebas, their membership tests and vertex symmetries.

The torus is R^{n+1}/(pi Z^{n+1}).  The standard coamoeba is two copies of
the simplex with vertices p_0 = 0 and p_k = (pi/2) e_k glued at vertices;
the minus half is the image of the plus half under y -> -y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .tropical import is_balanced

PI = math.pi
EPS_FACE = 1e-10  # tolerance of Coamoeba.contains on the vertices and faces


# ---------------------------------------------------------------------------
# flat torus

class FlatTorus:
    """R^{d}/(pi Z^{d}) with the flat quotient metric."""

    def __init__(self, dim):
        if dim < 1:
            raise InputError("torus dimension must be >= 1")
        self.dim = dim

    def wrap_centered(self, y):
        """Representative in [-pi/2, pi/2)^d."""
        return np.mod(np.asarray(y, dtype=float) + PI / 2, PI) - PI / 2

    def distance(self, y1, y2):
        d = self.wrap_centered(np.asarray(y1, dtype=float) - np.asarray(y2, dtype=float))
        return np.sqrt(np.sum(d * d, axis=-1))


def reduce_mod_pi(y):
    return np.mod(np.asarray(y, dtype=float), PI)


# ---------------------------------------------------------------------------
# symmetries

def rstar_apply(n, k, x):
    x = np.asarray(x, dtype=float)
    xk = x[..., k - 1].copy()
    out = x - xk[..., None]
    out[..., k - 1] = -xk
    return out


def r_apply(n, k, y):
    """Torus involution exchanging vertices p_0 and p_k, fixing the others.

    y_j -> y_j for j != k and y_k -> pi/2 - sum(y).
    """
    y = np.asarray(y, dtype=float)
    out = y.copy()
    out[..., k - 1] = PI / 2 - y.sum(axis=-1)
    return out


# ---------------------------------------------------------------------------
# the standard coamoeba

class Coamoeba:
    """Standard (n+1)-dimensional Lagrangian coamoeba in R^{n+1}/pi Z^{n+1}.

    Its points are the two closed simplices, glued at the vertices, as
    contains tests them up to eps.
    """

    def __init__(self, n):
        if n < 0:
            raise InputError("n must be >= 0")
        self.n = n
        self.dim = n + 1
        self.torus = FlatTorus(n + 1)
        self.vertices = np.vstack([np.zeros(n + 1)] + [PI / 2 * e for e in np.eye(n + 1)])

    # -- halves ------------------------------------------------------------
    def plus_coords(self, y):
        """Coordinates wrapped to [-pi/4, 3pi/4), which keeps the plus
        simplex away from the wrap cuts; y is in closed C+ iff all are >= 0
        and their sum is <= pi/2."""
        return np.mod(np.asarray(y, dtype=float) + PI / 4, PI) - PI / 4

    def contains(self, y, eps=EPS_FACE):
        """Whether each row y lies in the coamoeba, up to eps: in the plus
        half or the minus half, each closed and widened by eps.  A point
        within eps / 2 of a vertex lies in both widened halves."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        inside = np.zeros(len(y), dtype=bool)
        for w in (self.plus_coords(y), self.plus_coords(-y)):
            inside |= (w >= -eps).all(axis=1) & (w.sum(axis=1) <= PI / 2 + eps)
        return inside

    # -- sampling ----------------------------------------------------------
    def sample_interior(self, m, seed=0, margin=1e-6):
        """Deterministic quasi-random points of the open simplex interior.

        Uses the R_d additive recurrence; `seed` offsets the sequence.
        """
        d = self.n + 1
        g = _rd_generator_gamma(d)
        u = np.empty((0, d))
        block = 1
        while len(u) < m:
            idx = (np.arange(block, block + 8 * m, dtype=float)[:, None]
                   + float(seed) * 0.61803398875)
            cand = np.mod(idx * g[None, :], 1.0)
            cand = cand[cand.sum(axis=1) < 1.0]
            u = np.vstack([u, cand])
            block += 8 * m
        u = u[:m]
        u = np.clip(u, margin, 1 - margin)
        scale = np.minimum(1.0, (1 - margin) / np.maximum(u.sum(axis=1), 1e-300))
        u = u * scale[:, None]
        return (PI / 2) * u


def _rd_generator_gamma(d):
    # generalized golden-ratio sequence generator
    phi = 2.0
    for _ in range(64):
        phi = (1 + phi) ** (1 / (d + 1))
    return np.array([(1 / phi) ** (k + 1) for k in range(d)])


# ---------------------------------------------------------------------------
# coamoebas of subdivision cells

class CellCoamoeba:
    """Coamoeba of a 2-cell e of (P, nu): points with 2(y - k) in e (scaled).

    In torus coordinates the condition reads (2/pi) y in e mod 2 Z^2.
    """

    def __init__(self, cell):
        self.cell = cell  # LatticePolytope
        if cell.dim != 2:
            raise InputError("cell coamoeba needs a 2-cell; an edge's fiber is an EdgeFiber")

    def _candidates(self, y):
        """Translates z + 2k of z = 2y/pi mod 2 (rows y), over every k that
        can put some row in the cell's bounding box, k_0 outer and k_1
        inner, each ascending."""
        z = np.mod(2.0 * y / PI, 2.0)
        ks = [range(math.floor((min(v[i] for v in self.cell.vertices) - 2) / 2),
                    math.ceil(max(v[i] for v in self.cell.vertices) / 2) + 1)
              for i in range(2)]
        for k0 in ks[0]:
            for k1 in ks[1]:
                yield z + 2.0 * np.array([k0, k1])

    def _in_cell(self, q, eps):
        """Rows q (scaled torus lifts) in the cell, up to eps."""
        v = [tuple(float(c) for c in p) for p in self.cell.vertices]
        ok = np.ones(len(q), dtype=bool)
        for a, b in zip(v, v[1:] + v[:1]):
            ok &= (b[0] - a[0]) * (q[:, 1] - a[1]) - (b[1] - a[1]) * (q[:, 0] - a[0]) >= -eps
        return ok

    def contains(self, y, eps=1e-9):
        """Whether y, one point or rows of points at once, lies in the cell
        coamoeba up to eps: some translate of 2y/pi or -2y/pi mod 2 lies in
        the cell."""
        y = np.asarray(y, dtype=float)
        rows = np.atleast_2d(y)
        inside = np.zeros(len(rows), dtype=bool)
        for sign in (1.0, -1.0):
            for q in self._candidates(sign * rows):
                inside |= self._in_cell(q, eps)
        return inside if y.ndim == 2 else bool(inside[0])


# ---------------------------------------------------------------------------
# edge fibers with multiplicity

@dataclass
class EdgeFiber:
    """Fiber circles of the PL lift over a weight-w curve edge.

    w parallel geodesics { y : <u, y> = c + j*pi/w  mod pi }, j = 0..w-1,
    where u is the primitive tangent of the curve edge.
    """

    u: tuple          # primitive integer tangent of the curve edge
    c: float          # base offset of the j = 0 circle
    w: int = 1
    direction: tuple = None  # primitive direction of the circles

    def circles(self):
        d = np.array(self.direction, dtype=float)
        u = np.array(self.u, dtype=float)
        # base point on circle j: solve <u, y> = c + j pi / w
        uu = u @ u
        out = []
        for j in range(self.w):
            cj = self.c + j * PI / self.w
            base = u * (cj / uu)
            out.append((base, d))
        return out

    def points(self, thetas, j=0):
        base, d = self.circles()[j]
        th = np.asarray(thetas, dtype=float)[:, None]
        return reduce_mod_pi(base[None, :] + th * d[None, :])


def edge_fiber_from_dual(curve_edge, dual_face):
    """EdgeFiber of a subdivision-backed curve edge."""
    from .polyhedral import primitive, vsub
    u = curve_edge.direction()
    f0 = dual_face.vertices[0]
    c = (PI / 2) * float(u[0] * f0[0] + u[1] * f0[1])
    a, b = dual_face.vertices[0], dual_face.vertices[-1]
    d = primitive(vsub(b, a)) if a != b else (-u[1], u[0])
    return EdgeFiber(tuple(u), c, curve_edge.weight, tuple(d))


# ---------------------------------------------------------------------------
# covering model for weighted trivalent vertices

class CoveringCoamoeba:
    """Pulled-back coamoeba of a balanced weighted trivalent vertex.

    The span of two weighted directions is a finite-index sublattice; the
    quotient covering of tori has degree m_e = |w1 u1 ^ w2 u2| and the
    standard coamoeba pulls back through it.
    """

    def __init__(self, star):
        if len(star) != 3:
            raise InputError("covering model needs a trivalent vertex")
        if not is_balanced(star):
            raise InputError("weighted vertex is not balanced")
        # columns w1 u1 and w2 u2, of the two legs after u0 in the star's
        # order, as in tropical.vertex_frames
        self.B = np.array([[w * c for c in d] for d, _, w in star[1:]], dtype=int).T
        self.standard = Coamoeba(1)

    def beta(self, y):
        """Covering map to the standard model torus: y' = B^T y."""
        y = np.asarray(y, dtype=float)
        return reduce_mod_pi(y @ self.B.astype(float))

    def contains(self, y, eps=1e-9):
        """Whether beta(y) lies in the standard coamoeba, for one point or
        for rows of points at once."""
        inside = self.standard.contains(self.beta(y), eps)
        return inside if np.ndim(y) == 2 else bool(inside[0])
