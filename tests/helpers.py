"""Oracles and conveniences of the tests that no troplag command needs: the
region H and the cells V of the pants, the constant lifting, a relative
interior point of a dual cell, the outgoing directions at a curve vertex
(from the edges alone, not from TropicalComplex.stars), a mesh of given
pieces and the % formatted text of its export."""

from fractions import Fraction

import numpy as np

from troplag.coamoeba import rstar_apply
from troplag.lift import LagrangianMesh
from troplag.polyhedral import LiftingFunction, primitive, vadd, vsub


def region_slack(pm, x):
    """min over k of the H_k inequality slacks of PantsMap pm at rows x;
    >= 0 means inside the region H."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    cval = (pm.lam / pm.m) ** pm.m
    best = np.full(len(x), -np.inf)
    for k in range(pm.m + 1):
        xk = x if k == 0 else rstar_apply(pm.n, k, x)
        slack = np.minimum(xk.min(axis=1), cval - np.prod(np.clip(xk, 0, None), axis=1))
        best = np.maximum(best, slack)
    return best


def _d_value(j, k, x):
    """Signed slack of the half-space of V_{jk} at rows x."""
    if k == 0:
        return x[:, j - 1]
    if j == 0:
        return -x[:, k - 1]
    return x[:, j - 1] - x[:, k - 1]


def in_V(pm, J, x, k=None, tol=1e-12):
    """Membership of rows x in the cell V_J of PantsMap pm, or in V_{J,k}."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    ks = [k] if k is not None else [q for q in range(pm.m + 1) if q not in J]
    ok = np.ones(len(x), dtype=bool)
    for q in ks:
        for j in J:
            ok &= _d_value(j, q, x) >= -tol
    return ok


def constant_lifting(polytope, c=0):
    return LiftingFunction({p: c for p in polytope.lattice_points})


def dual_sample_point(dc):
    """A relative-interior rational point of the DualCell dc."""
    n = len(dc.verts)
    p = tuple(sum(Fraction(v[i]) for v in dc.verts) / n for i in range(2))
    for r in dc.rays:
        p = vadd(p, tuple(Fraction(x, 2) for x in r))
    return p


def outgoing(e, p):
    """Primitive direction of the segment or ray e leaving its end p."""
    if e.kind == "ray":
        return primitive(e.rays[0])
    a, b = e.verts
    return primitive(vsub(b, a) if p == a else vsub(a, b))


def star_directions(X, p):
    """The outgoing directions of the segments and rays of X at the point
    p, in sorted order."""
    return sorted(outgoing(e, p) for e in X.edges
                  if e.kind != "line" and p in e.verts)


def mesh_of(pieces, X=None, scale=1.0, schedule=None):
    """A LagrangianMesh laid out like the pieces, in order, holding copies
    of their points and frames: a synthetic mesh to export, or a copy of a
    lift to twist (twist rewrites its mesh in place)."""
    mesh = LagrangianMesh(X, [(p.tag, p.owner, len(p.points), p.grid) for p in pieces],
                          scale, schedule)
    for p, q in zip(pieces, mesh.pieces):
        q.points[:] = p.points
        q.frames[:] = p.frames
    return mesh


def copy_mesh(mesh):
    return mesh_of(mesh.pieces, mesh.X, mesh.scale, mesh.schedule)


def percent_export(verts, faces):
    """The mesh.off and mesh.obj bytes of vertex rows (x, y, z) and quads
    through whole-block % formatting: "%.9g %.9g %.9g" per vertex and
    "4 %d %d %d %d" (OFF) or "f %d %d %d %d" (OBJ, indices from 1) per quad."""
    v = np.ravel(verts).tolist()
    f = np.asarray(faces, dtype=np.int64).reshape(-1, 4)
    off = (f"OFF\n{len(v) // 3} {len(f)} 0\n" + "%.9g %.9g %.9g\n" * (len(v) // 3) % tuple(v)
           + "4 %d %d %d %d\n" * len(f) % tuple(f.ravel().tolist()))
    obj = ("v %.9g %.9g %.9g\n" * (len(v) // 3) % tuple(v)
           + "f %d %d %d %d\n" * len(f) % tuple((f + 1).ravel().tolist()))
    return off.encode(), obj.encode()
