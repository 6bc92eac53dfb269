"""The three benchmark workloads: seeded inputs, one job each, and the
checks that decide whether a job's outputs are correct.

A workload is a set-up step (import the package, write the inputs) and a
job that is timed.  The seed reaches the program only through the input
files it writes (curve, mesh) or as the ``--seed`` argument (verify).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

# Degree of the generated lattice triangle of the curve workload.
DEGREE = 8
# Smooth-lift sampling resolution of the mesh workload (the CLI default).
RESOLUTION = 128
# Mesh size and Hausdorff distance of the untranslated triangle fixture at
# RESOLUTION; the seeded affine term and translation change neither.
MESH_POINTS = 299_228
MESH_HAUSDORFF = 0.84192700555808
HAUSDORFF_RTOL = 1e-9
SUITE_COUNT = 12

NAMES = ("curve", "mesh", "verify")


def seeded_shift(seed):
    """Integer affine term (a, b, c) and lattice translation (tx, ty).

    Adding an affine function to a lifting leaves its regular subdivision
    unchanged and moves the tropical curve rigidly; translating the
    polytope changes neither the subdivision's combinatorics nor the
    curve.  So the seed varies the input bytes, not the amount of work.
    """
    rng = random.Random(seed)
    a, b, c = (rng.randint(-5, 5) for _ in range(3))
    tx, ty = rng.randint(-6, 6), rng.randint(-6, 6)
    return (a, b, c), (tx, ty)


def shifted_polytope(vertices, lifting, seed):
    """Polytope JSON with the seeded affine term and translation applied.

    ``lifting`` maps lattice points (i, j) of the untranslated polytope to
    integer values.
    """
    (a, b, c), (tx, ty) = seeded_shift(seed)
    return {
        "type": "polytope",
        "vertices": [[i + tx, j + ty] for i, j in vertices],
        "lifting": {f"{i + tx},{j + ty}": v + a * i + b * j + c
                    for (i, j), v in sorted(lifting.items())},
    }


def triangle_polytope(seed, degree=DEGREE):
    """Degree-d lattice triangle lifted by i^2 + j^2 + (i+j)^2."""
    lifting = {(i, j): i * i + j * j + (i + j) ** 2
               for i in range(degree + 1) for j in range(degree + 1 - i)}
    return shifted_polytope([(0, 0), (degree, 0), (0, degree)], lifting, seed)


def fixture_polytope(seed):
    """The ``triangle`` fixture polytope, shifted by the seed."""
    from importlib import resources
    ref = resources.files("troplag").joinpath("fixtures/triangle.json")
    with ref.open("r") as fh:
        data = json.load(fh)
    lifting = {tuple(int(x) for x in k.split(",")): v
               for k, v in data["lifting"].items()}
    return shifted_polytope(data["vertices"], lifting, seed)


def setup(name, seed, workdir):
    """Import the program and write the workload's inputs into workdir;
    returns the context its jobs and checks read."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    # every module a job uses, so that no job times an import
    import troplag.cli  # noqa: F401
    import troplag.svg  # noqa: F401
    import troplag.verify  # noqa: F401
    ctx = {"seed": seed}
    if name == "verify":
        return ctx
    data = triangle_polytope(seed) if name == "curve" else fixture_polytope(seed)
    os.makedirs(workdir, exist_ok=True)
    ctx["input"] = os.path.join(workdir, "input.json")
    with open(ctx["input"], "w") as fh:
        json.dump(data, fh, sort_keys=True)
    return ctx


# ---------------------------------------------------------------------------
# jobs: each returns what its check needs; only the job is timed

def run_curve(ctx, out):
    from troplag.lift import default_schedule, pl_lift
    from troplag.polyhedral import load_polytope_json, regular_subdivision
    from troplag.svg import draw_curve_and_subdivision
    from troplag.toric import lift_topology
    from troplag.tropical import is_smooth, tropical_hypersurface
    with open(ctx["input"]) as fh:
        poly, nu = load_polytope_json(json.load(fh))
    X = tropical_hypersurface(regular_subdivision(poly, nu))
    smooth = is_smooth(X)
    sched = default_schedule(X)
    genus = pl_lift(X).genus()
    topo = lift_topology(X)
    svg = os.path.join(out, "curve.svg")
    draw_curve_and_subdivision(X, svg)
    return {"smooth": smooth, "vertices": len(X.vertices), "genus": genus,
            "topology_genus": topo.genus, "scheduled": len(sched.lam), "svg": svg}


def _cli(argv):
    from troplag.cli import main
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = main(argv)
    return code, buf.getvalue()


def run_mesh(ctx, out):
    code, _ = _cli(["lift", ctx["input"], "--resolution", str(RESOLUTION),
                    "--out", out])
    return {"exit": code, "out": out}


def run_verify(ctx, out):
    code, stdout = _cli(["verify", "all", "--seed", str(ctx["seed"]), "--out", out])
    with open(os.path.join(out, "verify_all.jsonl"), "rb") as fh:
        report = fh.read()
    return {"exit": code, "stdout": stdout, "report": report}


JOBS = {"curve": run_curve, "mesh": run_mesh, "verify": run_verify}


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the job was correct

def check_curve(ctx, res):
    d = DEGREE
    problems = []
    if not res["smooth"]:
        problems.append("curve is not smooth")
    if res["vertices"] != d * d:
        problems.append(f"{res['vertices']} vertices, expected {d * d}")
    if res["scheduled"] != res["vertices"]:
        problems.append("schedule does not cover every vertex")
    expect = (d - 1) * (d - 2) // 2
    if res["genus"] != expect or res["topology_genus"] != expect:
        problems.append(f"genus {res['genus']} / lift_topology "
                        f"{res['topology_genus']}, expected {expect}")
    if not os.path.getsize(res["svg"]):
        problems.append("empty SVG")
    return problems


def _off_counts(path):
    """Header vertex and face counts, body line count and quad-face lines
    after the vertex block of an OFF file; None without an OFF header."""
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        header = fh.readline().split()
        lines = fh.read().splitlines()
    if magic != b"OFF" or len(header) != 3:
        return None
    nv, nf = int(header[0]), int(header[1])
    faces = sum(1 for ln in lines[nv:] if ln.startswith(b"4 "))
    return nv, nf, len(lines), faces


def check_mesh(ctx, res):
    if res["exit"] != 0:
        return [f"exit code {res['exit']}"]
    out = res["out"]
    problems = []
    with open(os.path.join(out, "report.jsonl")) as fh:
        recs = [json.loads(line) for line in fh if line.strip()]
    if len(recs) != 1 or recs[0].get("kind") != "mesh":
        return [f"report.jsonl holds {len(recs)} records, expected one mesh record"]
    rec = recs[0]
    if rec["points"] != MESH_POINTS:
        problems.append(f"{rec['points']} mesh points, expected {MESH_POINTS}")
    if not rec["symplectic_residual"] < 1e-6:
        problems.append(f"symplectic residual {rec['symplectic_residual']}")
    if abs(rec["hausdorff_to_pl"] - MESH_HAUSDORFF) > HAUSDORFF_RTOL * MESH_HAUSDORFF:
        problems.append(f"hausdorff_to_pl {rec['hausdorff_to_pl']!r}, "
                        f"expected {MESH_HAUSDORFF!r}")
    counts = _off_counts(os.path.join(out, "mesh.off"))
    if counts is None:
        problems.append("mesh.off has no OFF header")
    else:
        nv, nf, total, faces = counts
        if nv != rec["points"] or total != nv + nf or faces != nf:
            problems.append(f"mesh.off header {nv} {nf} does not match its "
                            f"{total} lines ({faces} faces)")
    return problems


def check_verify(ctx, res):
    if res["exit"] != 0:
        return [f"exit code {res['exit']}"]
    problems = []
    lines = res["stdout"].splitlines()
    passed = [ln for ln in lines if ln.startswith("PASS ")]
    if len(passed) != SUITE_COUNT or any(ln.startswith("FAIL ") for ln in lines):
        problems.append(f"{len(passed)} of {SUITE_COUNT} suites passed")
    recs = [json.loads(line) for line in res["report"].splitlines()]
    if len(recs) != SUITE_COUNT or not all(r["passed"] for r in recs):
        problems.append("verify_all.jsonl does not report every suite passing")
    first = ctx.setdefault("first_report", res["report"])
    if res["report"] != first:
        problems.append("verify_all.jsonl differs from the first job of this seed")
    return problems


CHECKS = {"curve": check_curve, "mesh": check_mesh, "verify": check_verify}
