"""Command-line surface.

Subcommands: tropical (curve + subdivision from a lifted polytope), pants
(region plots and value grids), lift (mesh generation + verification
report), verify (acceptance suites), toric (boundary classification,
topology, monotonicity).  Exit codes: 0 ok, 1 verification failure,
2 input error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import InputError, NumericError, TroplagError
from .fixtures import fixture_names, load_fixture, load_input

# Largest --grid of `pants` and --resolution of `lift`; memory grows with the
# square of either (a lift of the triangle fixture at 512 peaks near 0.9 GB).
MAX_GRID = 1024
MAX_RESOLUTION = 512
# Largest --n of `pants`: its interior sampler keeps 1/(n+1)! of its
# candidates, so time and memory grow factorially (n = 4 at grid 1024 takes
# about a minute and 1.1 GB).
MAX_N = 4


def _read_json(path):
    """The JSON object in the file at path; InputError if the file is
    missing, not UTF-8, not JSON, not an object or repeats a key in one of
    its objects (json.load would keep the last value silently)."""
    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [k for k, _ in pairs]
            raise InputError(f"{path} repeats the key {max(keys, key=keys.count)!r} in one object")
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=unique_keys)
    except FileNotFoundError:
        raise InputError(f"no such input file: {path}")
    except UnicodeDecodeError:
        raise InputError(f"{path} is not UTF-8 text")
    except ValueError as exc:  # JSONDecodeError, or an int of too many digits
        raise InputError(f"malformed JSON in {path}: {exc}")
    if not isinstance(data, dict):
        raise InputError(f"{path} must hold a JSON object")
    return data


def _load_curve_arg(path, default_zero=False):
    if not os.path.exists(path) and path in fixture_names():
        return load_fixture(path)
    return load_input(_read_json(path), default_zero=default_zero)


def cmd_tropical(args):
    from .svg import draw_curve_and_subdivision
    from .tropical import curve_to_json, is_smooth
    fx = _load_curve_arg(args.input, default_zero=args.default_zero)
    X = fx["curve"]
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "curve.json"), "w") as fh:
        json.dump(curve_to_json(X), fh, indent=2, sort_keys=True)
    draw_curve_and_subdivision(X, os.path.join(args.out, "curve.svg"),
                               command=args.cmdline)
    if args.check_smooth:
        print("smooth:", str(is_smooth(X)).lower())
    print(f"wrote curve.json and curve.svg to {args.out}")
    return 0


def cmd_pants(args):
    from .pants import DecompositionData, PantsMap
    from .svg import draw_region_h
    os.makedirs(args.out, exist_ok=True)
    pm = PantsMap(args.n, args.lam)
    if args.n == 1:
        draw_region_h(args.lam, os.path.join(args.out, "region.svg"),
                      command=args.cmdline)
    if args.section is not None:
        if args.n != 2:
            raise InputError("--section requires n = 2")
        t = args.section
        dd = DecompositionData()
        tri = [dd.qkt(k, t).tolist() for k in (0, 2, 3)]
        with open(os.path.join(args.out, "section.json"), "w") as fh:
            json.dump({"t": t, "z": dd.z(t), "triangle": tri}, fh, indent=2,
                      sort_keys=True)
    res = max(8, args.grid)
    ys = pm.sample_interior(res * res, seed=args.seed)
    F = pm.F(ys)
    h = pm.h(ys)
    eig = pm.hessian_eigen_max(ys)
    cols = ([f"y{i+1}" for i in range(pm.m)] + ["F"] + [f"h{i+1}" for i in range(pm.m)]
            + ["max_eig"])
    np.savetxt(os.path.join(args.out, "grid.csv"), np.column_stack([ys, F, h, eig]),
               fmt="%.12g", delimiter=",", header=",".join(cols), comments="")
    print(f"eigenvalue summary: max over grid = {eig.max():.6g} "
          f"({'all negative' if eig.max() < 0 else 'NOT all negative'})")
    print(f"wrote outputs to {args.out}")
    return 0


def cmd_lift(args):
    from .lift import (GluingSchedule, check_windings, hausdorff_distance, pl_lift,
                       smooth_lift, symplectic_residual, twist)
    from .toric import lift_topology
    fx = _load_curve_arg(args.input)
    X = fx["curve"]
    pl = pl_lift(X)  # InputError for a curve beyond float range
    windings = _parse_twist(args.twist) if args.twist else None
    if windings is not None:
        check_windings(X, windings)  # before the lift, which can take seconds
    if args.pl_only:
        if args.schedule is not None:
            raise InputError("--schedule sets the gluing of the smooth lift; "
                             "it has no effect with --pl-only")
        cloud = pl.sample(args.resolution, windings=windings)
        os.makedirs(args.out, exist_ok=True)
        np.savetxt(os.path.join(args.out, "pl_cloud.csv"), cloud, delimiter=",",
                   header="x1,x2,y1,y2", comments="")
        topo = lift_topology(X)
        rec = {"kind": "pl", "points": int(len(cloud)), "chi": topo.chi,
               "punctures": topo.punctures, "genus": topo.genus}
    else:
        sched = (None if args.schedule is None
                 else GluingSchedule.from_dict(_read_json(args.schedule)))
        mesh = smooth_lift(X, args.scale, sched, resolution=args.resolution)
        sched = mesh.schedule
        if windings is not None:
            twist(mesh, windings)  # in place
        os.makedirs(args.out, exist_ok=True)
        mesh.to_off(os.path.join(args.out, "mesh.off"), projection=args.projection)
        mesh.to_obj(os.path.join(args.out, "mesh.obj"), projection=args.projection)
        with open(os.path.join(args.out, "schedule.json"), "w") as fh:
            fh.write(sched.to_json())
        res = symplectic_residual(mesh)
        points = mesh.points
        del mesh  # its frames and export text are not needed from here on
        # a twisted lift converges to the twisted PL lift, not the plain one,
        # and the PL rays end where the mesh's do, at the schedule's truncation
        dh = hausdorff_distance(points, pl.sample(args.resolution, sched.truncation, windings))
        rec = {"kind": "mesh", "scale": args.scale, "points": int(len(points)),
               "symplectic_residual": res, "hausdorff_to_pl": dh}
    if windings is not None:
        rec["n_sigma"] = int(sum(windings.values()))
    with open(os.path.join(args.out, "report.jsonl"), "w") as fh:
        fh.write(json.dumps(rec, sort_keys=True) + "\n")
    print(f"wrote outputs to {args.out}")
    return 0


def _parse_twist(spec):
    """{edge: winding} of "edge=I,winding=W;...": each part has exactly
    these two fields, and no two parts name the same edge."""
    windings = {}
    for part in spec.split(";"):
        try:
            fields = dict(kv.split("=") for kv in part.split(","))
            edge = int(fields["edge"])
            if part.count(",") != 1 or set(fields) != {"edge", "winding"} or edge in windings:
                raise ValueError
            windings[edge] = int(fields["winding"])
        except (ValueError, KeyError):
            raise InputError(f"malformed --twist part {part!r}: expected "
                             "edge=I,winding=W with integers I and W, each edge once")
    return windings


def cmd_verify(args):
    from .verify import report_lines, run_suite
    records = run_suite(args.suite, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"verify_{args.suite}.jsonl")
    with open(path, "w") as fh:
        for line in report_lines(records):
            fh.write(line + "\n")
    failed = [r for r in records if not r["passed"]]
    for rec in records:
        print(("PASS" if rec["passed"] else "FAIL"), rec["name"])
    print(f"wrote {path}")
    return 1 if failed else 0


def cmd_toric(args):
    from .toric import classify_boundary, delzant_check, lift_topology, monotone_report
    fx = _load_curve_arg(args.input)
    X, poly = fx["curve"], fx["polygon"]
    if poly is None:
        raise InputError("input carries no moment polygon")
    out = {"delzant": delzant_check(poly)}
    hits = classify_boundary(X, poly)
    # a boundary vertex is written like a point, a boundary edge as its index
    out["classification"] = [
        {"point": [str(c) for c in h.point], "edge": h.edge_index,
         "boundary": [h.boundary[0], h.boundary[1] if h.boundary[0] == "edge"
                      else [str(c) for c in h.boundary[1]]],
         "index": h.index, "kind": h.kind} for h in hits]
    topo = lift_topology(X, poly)
    out["topology"] = {"chi": topo.chi, "orientable": topo.orientable,
                       "boundary_circles": topo.boundary_circles,
                       "genus": topo.genus, "crosscaps": topo.crosscaps,
                       "summary": topo.summary()}
    if len(X.vertices) == 1:
        mr = monotone_report(X, poly)
        out["monotone"] = {"pairs": [[r["class"], r["mu"], str(r["omega"])]
                                     for r in mr["pairs"]],
                           "proportional": mr["proportional"], "factor": mr["factor"]}
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "toric_report.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
    print(topo.summary())
    print(f"wrote {path}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="troplag",
                                description="tropical curves and their Lagrangian lifts")
    p.add_argument("--version", action="version", version=f"troplag {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tropical", help="curve and dual subdivision from a lifted polytope")
    t.add_argument("input", help="polytope/curve JSON file or fixture name")
    t.add_argument("--default-zero", action="store_true",
                   help="default missing lifting values to 0")
    t.add_argument("--check-smooth", action="store_true")
    t.add_argument("--out", default="out")
    t.set_defaults(func=cmd_tropical)

    q = sub.add_parser("pants", help="region plots and value grids")
    q.add_argument("--n", type=int, default=1, help=f"in [0, {MAX_N}]")
    q.add_argument("--lam", type=float, default=1.0)
    q.add_argument("--grid", type=int, default=64)
    q.add_argument("--section", type=float, default=None, metavar="T",
                   help="n=2 section parameter t (t >= 1/9)")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", default="out")
    q.set_defaults(func=cmd_pants)

    l = sub.add_parser("lift", help="smooth or PL lift of a curve")
    l.add_argument("input")
    l.add_argument("--scale", type=float, default=1.0)
    l.add_argument("--resolution", type=int, default=128,
                   help="samples per direction, in [8, 512]; even unless --pl-only")
    l.add_argument("--schedule", default=None, help="schedule JSON file")
    l.add_argument("--pl-only", action="store_true")
    l.add_argument("--twist", default=None, metavar="edge=I,winding=W[;...]")
    l.add_argument("--projection", default="xxy",
                   choices=["xxy", "xyy", "x1y", "x2y"])
    l.add_argument("--out", default="out")
    l.set_defaults(func=cmd_lift)

    v = sub.add_parser("verify", help="run acceptance suites")
    v.add_argument("suite", help="suite name or 'all'")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default="out")
    v.set_defaults(func=cmd_verify)

    x = sub.add_parser("toric", help="boundary classification and topology")
    x.add_argument("input", help="curve JSON with a polygon, or fixture name")
    x.add_argument("--out", default="out")
    x.set_defaults(func=cmd_toric)
    return p


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    args.cmdline = "troplag " + " ".join(argv)  # the SVG files' metadata line
    get = vars(args).get
    res = get("resolution", 8)
    for bad, message in [(res < 8, "resolution must be >= 8"),
                         (res > MAX_RESOLUTION, f"resolution must be at most {MAX_RESOLUTION}"),
                         (not 0 <= get("n", 0) <= MAX_N, f"n must lie in [0, {MAX_N}]"),
                         (get("grid", 8) > MAX_GRID, f"grid must be at most {MAX_GRID}"),
                         (not 0 < get("scale", 1.0) <= 1.0, "scale must lie in (0, 1]"),
                         (not 0 <= get("seed", 0) < 2 ** 32, "seed must lie in [0, 2^32)")]:
        if bad:  # the first bound an option breaks, before any work
            print(f"error: {message}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc} "
              f"{json.dumps(exc.diagnostics, sort_keys=True)}", file=sys.stderr)
        return 3
    except (InputError, TroplagError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
