"""Tests of the benchmark itself: seeded inputs, output checks, spans.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from troplag.polyhedral import load_polytope_json, regular_subdivision  # noqa: E402
from troplag.tropical import is_smooth, tropical_hypersurface  # noqa: E402

SEEDS = (0, 1, 2, 7, 123)


def _combinatorics(data, seed):
    """Subdivision cells moved back by the seeded translation, and the
    curve's vertex count and edge directions with weights."""
    poly, nu = load_polytope_json(data)
    S = regular_subdivision(poly, nu)
    X = tropical_hypersurface(S)
    tx, ty = workloads.seeded_shift(seed)[1]
    cells = sorted(sorted((p[0] - tx, p[1] - ty) for p in c.vertices) for c in S.cells)
    edges = sorted((tuple(e.direction()), e.weight) for e in X.edges)
    return cells, len(X.vertices), edges, is_smooth(X)


def test_generator_is_deterministic_per_seed():
    for seed in SEEDS:
        assert workloads.triangle_polytope(seed) == workloads.triangle_polytope(seed)
        assert workloads.fixture_polytope(seed) == workloads.fixture_polytope(seed)
    inputs = {json.dumps(workloads.triangle_polytope(s), sort_keys=True) for s in SEEDS}
    assert len(inputs) == len(SEEDS)


def test_seed_leaves_curve_and_mesh_combinatorics_unchanged():
    for make in (lambda s: workloads.triangle_polytope(s, degree=4),
                 workloads.fixture_polytope):
        ref = _combinatorics(make(0), 0)
        assert ref[3]
        for seed in SEEDS[1:]:
            assert _combinatorics(make(seed), seed) == ref
    assert _combinatorics(workloads.fixture_polytope(5), 5)[1] == 3


def test_curve_check_passes_real_output_and_flags_corruption(tmp_path):
    ctx = workloads.setup("curve", 3, str(tmp_path / "in"))
    out = tmp_path / "job"
    out.mkdir()
    res = workloads.run_curve(ctx, str(out))
    assert workloads.check_curve(ctx, res) == []
    assert workloads.check_curve(ctx, dict(res, genus=res["genus"] + 1))
    open(res["svg"], "w").close()
    assert workloads.check_curve(ctx, res)


def _fake_mesh_output(out, corrupt):
    """Lift outputs whose OFF header lies when corrupt."""
    rec = {"kind": "mesh", "points": workloads.MESH_POINTS, "scale": 1.0,
           "symplectic_residual": 1e-12, "hausdorff_to_pl": workloads.MESH_HAUSDORFF}
    with open(os.path.join(out, "report.jsonl"), "w") as fh:
        fh.write(json.dumps(rec) + "\n")
    nv = workloads.MESH_POINTS - (1 if corrupt else 0)
    with open(os.path.join(out, "mesh.off"), "w") as fh:
        fh.write(f"OFF\n{workloads.MESH_POINTS} 2 0\n")
        fh.write("0 0 0\n" * nv)
        fh.write("4 0 1 2 3\n" * 2)
    return {"exit": 0, "out": out}


def test_corrupted_output_makes_failed_frac_nonzero(tmp_path):
    for corrupt in (False, True):
        times, walls, failed, attempted, rec = run.closed_loop(
            lambda ctx, out: _fake_mesh_output(out, corrupt), workloads.check_mesh,
            {"seed": 0}, str(tmp_path / f"c{corrupt}"), 1e-9, False)
        assert attempted == len(walls) == 1 and rec is None
        assert failed / attempted == (1.0 if corrupt else 0.0)


def test_sampler_takes_out_its_slices_and_disarms():
    before = signal.getsignal(signal.SIGALRM)
    s = speed.Sampler()
    s.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 4 * speed.INTERVAL_S:
        pass
    t1 = time.perf_counter()
    s.stop()
    inside = s.busy(t0, t1)
    assert len(s.slices) >= 4 and 0 < inside < t1 - t0
    assert inside < sum(dt for _, dt, _ in s.slices)
    assert s.reference_seconds(t0, t1) == (t1 - t0 - inside) * s.speed() > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_verify_check_flags_changed_report_bytes():
    report = b"".join(json.dumps({"name": str(i), "passed": True}).encode() + b"\n"
                      for i in range(workloads.SUITE_COUNT))
    stdout = "".join(f"PASS {i}\n" for i in range(workloads.SUITE_COUNT))
    ctx = {"seed": 0}
    ok = {"exit": 0, "stdout": stdout, "report": report}
    assert workloads.check_verify(ctx, ok) == []
    assert workloads.check_verify(ctx, dict(ok, report=report.replace(b"0", b"9", 1)))
    assert workloads.check_verify(ctx, dict(ok, exit=1))


def test_spans_count_exactly_and_restore_the_program(tmp_path):
    import troplag.polyhedral as polyhedral
    import troplag.verify as verify
    original = (polyhedral.regular_subdivision, dict(verify.SUITES))
    path = tmp_path / "input.json"
    path.write_text(json.dumps(workloads.triangle_polytope(4, degree=4)))
    ctx = {"seed": 4, "input": str(path)}
    rec = spans.Recorder()
    for n in range(2):
        restore = spans.install(rec)
        rec.begin_job(n)
        try:
            workloads.run_curve(ctx, str(tmp_path))
        finally:
            restore()
            rec.end_job()
    assert (polyhedral.regular_subdivision, verify.SUITES) == original
    first, second = (spans.job_metrics(j) for j in rec.jobs)
    assert first["polyhedral.lattice_points"][0] == 15
    assert first["tropical.vertices"][0] == 16
    assert first["polyhedral.regular_subdivision_s"][0] > 0
    counts = {k: v for k, (v, unit) in first.items() if unit != "s"}
    assert counts == {k: v for k, (v, unit) in second.items() if unit != "s"}
    parents = {sid: parent for _, sid, parent, *_ in rec.spans}
    assert all(p is None or p in parents for p in parents.values())
