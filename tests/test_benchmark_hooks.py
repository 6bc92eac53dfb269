"""The benchmark's trace (perfbench/spans.py) wraps troplag functions by
name and counts the lift through them; these tests keep those hooks bound
to a real lift.

    PYTHONPATH=src python3 -m pytest -q tests/test_benchmark_hooks.py
"""

import importlib.util
import os

import troplag.lift
from troplag.cli import main
from troplag.fixtures import load_fixture
from troplag.lift import LagrangianMesh, smooth_lift

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entry_points():
    return (troplag.lift.smooth_lift, troplag.lift.PLLift.sample,
            vars(LagrangianMesh)["to_off"], vars(LagrangianMesh)["to_obj"])


def test_traced_lift_counts_the_mesh_and_its_files(tmp_path):
    spans = _spans_module()
    rec = spans.Recorder()
    untraced = _entry_points()
    restore = spans.install(rec)
    try:
        assert _entry_points() != untraced
        rec.begin_job("mesh")
        assert main(["lift", "triangle", "--resolution", "16", "--out", str(tmp_path)]) == 0
        rec.end_job()
    finally:
        restore()
    assert _entry_points() == untraced
    metrics = {k: v for k, (v, _) in spans.job_metrics(rec.jobs[0]).items()}
    mesh = smooth_lift(load_fixture("triangle")["curve"], 1.0, resolution=16)
    assert metrics["lift.mesh_points"] == len(mesh.points)
    assert metrics["lift.mesh_bytes"] == mesh.points.nbytes + mesh.frames.nbytes
    assert metrics["lift.export_bytes"] == sum(os.path.getsize(tmp_path / name)
                                               for name in ("mesh.off", "mesh.obj"))
    assert metrics["lift.pl_points"] > 0 and metrics["lift.hausdorff_points"] > len(mesh.points)
    assert all(metrics[f"{layer}.errors"] == 0 for layer in spans.LAYERS)
