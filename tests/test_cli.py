import hashlib
import json
import os
import tempfile
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from troplag.cli import _curve_to_json, _load_curve_arg, main
from troplag.fixtures import fixture_names, load_fixture


def run(args):
    return main(args)


def test_tropical_command_writes_outputs(tmp_path, capsys):
    out = tmp_path / "o"
    code = run(["tropical", "triangle", "--check-smooth", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "smooth: true" in captured
    data = json.loads((out / "curve.json").read_text())
    assert len(data["vertices"]) == 3
    svg = (out / "curve.svg").read_text()
    assert svg.startswith("<svg")
    assert "generated by: troplag" in svg  # command embedded as metadata


def test_tropical_from_file_with_default_zero(tmp_path):
    src = tmp_path / "poly.json"
    src.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [0, 1]],
                               "lifting": {"0,0": 0}}))
    out = tmp_path / "o"
    assert run(["tropical", str(src), "--out", str(out)]) == 2
    assert run(["tropical", str(src), "--default-zero", "--out", str(out)]) == 0


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run(["tropical", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert run(["tropical", str(tmp_path / "missing.json"),
                "--out", str(tmp_path / "o")]) == 2
    bad.write_text("[1, 2]")
    assert run(["tropical", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_non_utf8_input_exits_2(tmp_path, capsys):
    src = tmp_path / "bin.json"
    src.write_bytes(b"\xff\xfe" + json.dumps(_two_vertex_curve()).encode())
    assert run(["tropical", str(src), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_and_file_inputs_agree(tmp_path, name):
    # a fixture name and a copy of its file go through the same parser
    ref = resources.files("troplag").joinpath(f"fixtures/{name}.json")
    src = tmp_path / f"{name}.json"
    src.write_bytes(ref.read_bytes())
    from_file = _curve_to_json(_load_curve_arg(str(src))["curve"])
    assert from_file == _curve_to_json(load_fixture(name)["curve"])


SIMPLEX_POLYTOPE = '{"vertices": [[0, 0], [1, 0], [0, 1]], "lifting": %s}'
SIMPLEX_LIFTING = '{"0,0": 0, "1,0": 0, "0,1": %s}'


@pytest.mark.parametrize("text", [
    SIMPLEX_POLYTOPE % (SIMPLEX_LIFTING % '"x"'),                  # ValueError
    SIMPLEX_POLYTOPE % (SIMPLEX_LIFTING % "1e400"),                # OverflowError
    SIMPLEX_POLYTOPE % '{"0,0": 0, "1,0": 0, "0,1": 0, "a,b": 0}',  # ValueError
    SIMPLEX_POLYTOPE % "[1, 2, 3]",                                # AttributeError
    '{"vertices": [[0, 0], [1.5, 0], [0, 1]], "lifting": {}}',     # truncated to (1, 0)
], ids=["value_x", "value_1e400", "key_a_b", "lifting_list", "vertex_1.5"])
def test_malformed_polytope_exits_2(tmp_path, capsys, text):
    src = tmp_path / "poly.json"
    src.write_text(text)
    assert run(["tropical", str(src), "--default-zero", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _two_vertex_curve(**change):
    """A balanced curve: one bounded edge and two rays at each end."""
    data = {"vertices": [[0, 0], [1, 0]], "edges": [[0, 1]],
            "rays": [[0, [0, 1]], [0, [-1, -1]], [1, [0, -1]], [1, [1, 1]]]}
    data.update(change)
    return data


@pytest.mark.parametrize("change", [
    {"edges": [[0, 5]]},                                           # IndexError
    {"weights": ["x", 1, 1, 1, 1]},                                # ValueError
    {"weights": [1.5, 1, 1, 1, 1]},                                # truncated to 1
    {"edges": [[0, -1]]},                                          # read as [0, 1]
    {"rays": [[0, [0, 1]], [0, [-1, -1]], [-1, [0, -1]], [1, [1, 1]]]},  # base -1 read as 1
], ids=["edge_out_of_range", "weight_x", "weight_1.5", "edge_negative", "ray_base_negative"])
def test_malformed_curve_exits_2(tmp_path, capsys, change):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(_two_vertex_curve()))
    bad.write_text(json.dumps(_two_vertex_curve(**change)))
    assert run(["tropical", str(good), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert run(["tropical", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("polygon", [
    [[0, 0], [1]],                                                 # IndexError
    "x",                                                           # ValueError
    [[0, 0], [1, "a"]],                                            # ValueError
    [[0, 0], [1, 0], [0.5, 1]],
    [[0, 0], [1, 0], [2, 0]],
], ids=["short_vertex", "string", "entry_a", "entry_0.5", "collinear"])
def test_malformed_polygon_exits_2(tmp_path, capsys, polygon):
    src = tmp_path / "curve.json"
    src.write_text(json.dumps(_two_vertex_curve(polygon=polygon)))
    assert run(["tropical", str(src), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_pants_command(tmp_path, capsys):
    out = tmp_path / "p"
    code = run(["pants", "--n", "1", "--grid", "10", "--out", str(out)])
    assert code == 0
    csv = (out / "grid.csv").read_text().splitlines()
    assert csv[0] == "y1,y2,F,h1,h2,max_eig"
    assert len(csv) == 101
    assert (out / "region.svg").exists()
    assert "all negative" in capsys.readouterr().out


@pytest.mark.parametrize("option", [["--lam", "nan"], ["--lam", "inf"],
                                    ["--n", "2", "--section", "nan"],
                                    ["--n", "2", "--section", "inf"]])
def test_pants_non_finite_options_exit_2(tmp_path, capsys, option):
    out = tmp_path / "p"
    assert run(["pants", "--grid", "8", *option, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "section.json").exists()


@pytest.mark.parametrize("n", ["1", "2"])
def test_pants_lam_above_the_limit_exits_2(tmp_path, capsys, n):
    out = tmp_path / "p"
    assert run(["pants", "--n", n, "--grid", "8", "--lam", "1e308", "--out", str(out)]) == 2
    assert "at most 1e+100" in capsys.readouterr().err
    assert not (out / "region.svg").exists()
    assert run(["pants", "--n", n, "--grid", "8", "--lam", "1e100", "--out", str(out)]) == 0


def test_pants_section_must_be_a_number(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["pants", "--n", "2", "--section", "abc", "--out", str(tmp_path / "p")])
    assert exc.value.code == 2


def test_pants_section(tmp_path):
    out = tmp_path / "p2"
    code = run(["pants", "--n", "2", "--grid", "8", "--section", "0.2",
                "--out", str(out)])
    assert code == 0
    data = json.loads((out / "section.json").read_text())
    assert data["t"] == 0.2
    assert len(data["triangle"]) == 3
    # the section parameter below 1/9 is a numeric domain error
    assert run(["pants", "--n", "2", "--grid", "8", "--section", "0.05",
                "--out", str(out)]) == 2


def test_lift_command_full(tmp_path):
    out = tmp_path / "L"
    code = run(["lift", "triangle", "--scale", "0.5", "--resolution", "16",
                "--out", str(out)])
    assert code == 0
    rec = json.loads((out / "report.jsonl").read_text().splitlines()[0])
    assert rec["symplectic_residual"] < 1e-6
    assert (out / "mesh.off").exists()
    assert (out / "mesh.obj").exists()
    assert (out / "schedule.json").exists()


# sha256 of `troplag lift triangle --resolution 16`: a change to the
# sampling or the export that moves a byte must update these on purpose
LIFT_RES16_SHA256 = {
    "mesh.off": "ede0522c7e9ec12ee1239f30e0aae4594d96432ec0f91e9e13987de5c29134e5",
    "mesh.obj": "077db845f467e01a51acd3ddd6dff7aca3be33345d4f3e6d055134601f6d58d2",
    "report.jsonl": "cccfd40550d876e9369437f47ab4f00dfdf7454ea43f0f9aeb3be7125051d0d5",
}


def test_lift_output_bytes_are_pinned(tmp_path):
    out = tmp_path / "L"
    assert run(["lift", "triangle", "--resolution", "16", "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in LIFT_RES16_SHA256}
    assert got == LIFT_RES16_SHA256


# sha256 of `troplag verify all --seed 7`: same seed, same bytes, across
# changes too; a change that moves a reported figure must update it on purpose
VERIFY_ALL_SEED7_SHA256 = "203e4ea4112dbc1920c7bfb58a6e45b7ba29c6366850491399afcdad1185a85f"


def test_verify_all_output_bytes_are_pinned(tmp_path):
    out = tmp_path / "V"
    assert run(["verify", "all", "--seed", "7", "--out", str(out)]) == 0
    got = hashlib.sha256((out / "verify_all.jsonl").read_bytes()).hexdigest()
    assert got == VERIFY_ALL_SEED7_SHA256


def test_lift_pl_only_and_twist(tmp_path):
    out1 = tmp_path / "L1"
    assert run(["lift", "triangle", "--pl-only", "--resolution", "12",
                "--out", str(out1)]) == 0
    rec = json.loads((out1 / "report.jsonl").read_text().splitlines()[0])
    assert rec["kind"] == "pl" and rec["chi"] == -3
    out2 = tmp_path / "L2"
    assert run(["lift", "triangle", "--scale", "0.5", "--resolution", "12",
                "--twist", "edge=3,winding=1", "--out", str(out2)]) == 0
    rec = json.loads((out2 / "report.jsonl").read_text().splitlines()[0])
    assert rec["n_sigma"] == 1


def test_lift_validation_exit_codes(tmp_path):
    assert run(["lift", "triangle", "--resolution", "4",
                "--out", str(tmp_path / "x")]) == 2
    assert run(["lift", "triangle", "--scale", "1.5",
                "--out", str(tmp_path / "x")]) == 2
    # non-smooth curve cannot be smoothed
    assert run(["lift", "weight2_segment", "--resolution", "12",
                "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("argv, message", [
    (["lift", "triangle", "--resolution", "513"], "resolution must be at most 512"),
    (["lift", "triangle", "--resolution", "100000000"], "resolution must be at most 512"),
    (["pants", "--grid", "1025"], "grid must be at most 1024"),
    (["pants", "--grid", "100000000"], "grid must be at most 1024"),
])
def test_grid_and_resolution_above_their_limits_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "x"
    assert run(argv + ["--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()  # refused before any work


def test_pl_only_lift_of_a_primitive_segment(tmp_path):
    # a weight-1 line lifts to one cylinder: two punctures, genus 0
    src = tmp_path / "seg.json"
    src.write_text(json.dumps({"type": "polytope", "vertices": [[1, 3], [2, 1]],
                               "lifting": {"1,3": 0, "2,1": 0}}))
    out = tmp_path / "s"
    assert run(["lift", str(src), "--pl-only", "--resolution", "8", "--out", str(out)]) == 0
    rec = json.loads((out / "report.jsonl").read_text())
    assert (rec["chi"], rec["punctures"], rec["genus"]) == (0, 2, 0)


@pytest.mark.parametrize("spec", ["garbage", "edge=99", "edge=x,winding=1"])
def test_lift_malformed_twist_exits_2(tmp_path, capsys, spec):
    assert run(["lift", "triangle", "--resolution", "8", "--twist", spec,
                "--out", str(tmp_path / "x")]) == 2
    assert "--twist" in capsys.readouterr().err


@pytest.fixture(scope="module")
def triangle_schedule():
    from troplag.lift import default_schedule
    return json.loads(default_schedule(load_fixture("triangle")["curve"]).to_json())


def _edit(path, value):
    def apply(d):
        *keys, last = path
        for k in keys:
            d = d[k]
        if value is None:
            del d[last]
        else:
            d[last] = value
    return apply


def _rename_leg(d):
    d["legs"]["zz"] = d["legs"].pop("0,0")


def _add_leg(d):
    d["legs"]["9,0"] = d["legs"]["0,0"]


@pytest.mark.parametrize("change", [
    b"{",                                                          # JSONDecodeError
    b"\xff\xfe{}",                                                 # UnicodeDecodeError
    b"[1]",
    _edit(["lam", "0"], None),                                     # KeyError: 0
    _edit(["lam", "0"], "x"),                                      # ValueError
    _edit(["legs", "0,0", "r"], "x"),                              # TypeError
    _edit(["legs", "0,0", "zz"], 1.0),                             # TypeError
    _edit(["legs", "0,0", "r_bar"], None),
    _rename_leg,                                                   # ValueError
    _add_leg,
    _edit(["legs"], None),
    _edit(["truncation"], float("nan")),                           # ValueError
    _edit(["truncation"], -1),                                     # exit 0
    _edit(["truncation"], 0.01),                                   # exit 0, below r
    _edit(["ball_radius", "1"], 10 ** 400),
], ids=["brace", "non_utf8", "list", "lam_deleted", "lam_x", "leg_r_x", "leg_extra_field",
        "leg_field_deleted", "leg_key_zz", "leg_key_extra", "legs_deleted", "truncation_nan",
        "truncation_negative", "truncation_inside_leg", "ball_radius_huge"])
def test_malformed_schedule_exits_2(tmp_path, capsys, triangle_schedule, change):
    src = tmp_path / "schedule.json"
    if isinstance(change, bytes):
        src.write_bytes(change)
    else:
        data = json.loads(json.dumps(triangle_schedule))
        change(data)
        src.write_text(json.dumps(data))
    assert run(["lift", "triangle", "--resolution", "8", "--schedule", str(src),
                "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_schedule_file_round_trips(tmp_path, triangle_schedule):
    src = tmp_path / "schedule.json"
    src.write_text(json.dumps(triangle_schedule))
    out = tmp_path / "x"
    assert run(["lift", "triangle", "--resolution", "8", "--schedule", str(src),
                "--out", str(out)]) == 0
    assert json.loads((out / "schedule.json").read_text()) == triangle_schedule


def test_numeric_failure_prints_diagnostics(tmp_path, capsys, monkeypatch):
    from troplag.pants import ProjectionPair
    solve = ProjectionPair._solve_scalar
    monkeypatch.setattr(ProjectionPair, "_solve_scalar",
                        lambda self, j, target, wp, tol, max_iter:
                        solve(self, j, target, wp, tol, 1))
    assert run(["lift", "triangle", "--resolution", "8",
                "--out", str(tmp_path / "x")]) == 3
    line = capsys.readouterr().err.strip().splitlines()[-1]
    head = "numeric failure: fiber solve did not converge "
    assert line.startswith(head)
    diag = json.loads(line[len(head):])
    assert list(diag) == sorted(diag)
    assert diag["iterations"] == 1 and diag["unconverged_rows"] >= 1
    assert diag["max_residual"] > 0


def test_verify_command_deterministic(tmp_path):
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    assert run(["verify", "decomposition", "--seed", "7", "--out", str(out1)]) == 0
    assert run(["verify", "decomposition", "--seed", "7", "--out", str(out2)]) == 0
    a = (out1 / "verify_decomposition.jsonl").read_bytes()
    b = (out2 / "verify_decomposition.jsonl").read_bytes()
    assert a == b
    assert run(["verify", "nonsense", "--out", str(tmp_path / "v3")]) == 2


@pytest.mark.parametrize("seed", ["-3", "-1", str(2 ** 32), "18446744073709551615"])
@pytest.mark.parametrize("command", [["verify", "all"], ["pants"]])
def test_seed_outside_the_uint32_range_exits_2(tmp_path, capsys, command, seed):
    assert run(command + ["--seed", seed, "--out", str(tmp_path / "s")]) == 2
    assert "seed must lie in [0, 2^32)" in capsys.readouterr().err


@settings(max_examples=60, deadline=None)
@given(suite=st.sampled_from(["boundary", "appendix", "decomposition"]),
       seed=st.integers(-2 ** 80, 2 ** 80))
@example(suite="boundary", seed=2 ** 32 - 1)
@example(suite="appendix", seed=0)
def test_verify_seed_exit_code_contract(suite, seed):
    # exit 0 (ok) or 2 (input error) for any integer seed, never a traceback
    with tempfile.TemporaryDirectory() as out:
        assert main(["verify", suite, "--seed", str(seed), "--out", out]) in (0, 2)


def test_verify_suites_byte_identical_reports():
    # same seed, same bytes, for every suite cheap enough to run twice here
    from troplag.verify import SUITES, report_lines, run_suite
    for name in SUITES:
        if name == "theorem41":
            continue  # exercised (deterministically) by the acceptance gate
        r1 = report_lines(run_suite(name, seed=7))
        r2 = report_lines(run_suite(name, seed=7))
        assert r1 == r2, name


def test_toric_command(tmp_path, capsys):
    out = tmp_path / "t"
    assert run(["toric", "p2_torus", "--out", str(out)]) == 0
    rep = json.loads((out / "toric_report.json").read_text())
    assert rep["topology"]["chi"] == 0
    assert rep["delzant"] is True
    out2 = tmp_path / "t2"
    assert run(["toric", "nonorientable", "--out", str(out2)]) == 0
    rep = json.loads((out2 / "toric_report.json").read_text())
    assert rep["topology"]["chi"] == -4 and rep["topology"]["orientable"] is False
    out3 = tmp_path / "t3"
    assert run(["toric", "p2_monotone", "--out", str(out3)]) == 0
    rep = json.loads((out3 / "toric_report.json").read_text())
    assert rep["monotone"]["proportional"] is True
    assert rep["monotone"]["factor"] == 2
    # a curve without a polygon is an input error
    assert run(["toric", "standard_line", "--out", str(tmp_path / "t4")]) == 2
