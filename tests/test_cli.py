import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

import troplag
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


@pytest.mark.parametrize("n", ["5", str(10 ** 8), "-1"])
def test_pants_n_outside_its_range_exits_2_within_a_second(tmp_path, capsys, n):
    # the interior sampler keeps 1/(n+1)! of its candidates: n = 10 would
    # not finish, and 10^8 would fail allocating its vertex array
    out = tmp_path / "p"
    t0 = time.perf_counter()
    assert run(["pants", "--n", n, "--out", str(out)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "error: n must lie in [0, 4]" in capsys.readouterr().err
    assert not out.exists()  # refused before any work


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
    "report.jsonl": "c50495cdf2b38cd073c6cd35f8e6829daf5f0ee62cc534c7bca5619dfc9ce484",
}


def test_lift_output_bytes_are_pinned(tmp_path):
    out = tmp_path / "L"
    assert run(["lift", "triangle", "--resolution", "16", "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in LIFT_RES16_SHA256}
    assert got == LIFT_RES16_SHA256


# sha256 of `troplag lift triangle --resolution 48 --projection xyy`: its
# 42,066 vertices and 33,135 faces fill more than one export block of 2^14 rows
LIFT_RES48_XYY_SHA256 = {
    "mesh.off": "d8eaf1bb06899f3a2b3ee250da65f6f4098cc9e70c98159ed0419d2636f6e943",
    "mesh.obj": "78a367bc4d6fb806de4bcd17de7aabba76eb45a7d0b4b88bb93bfeeaa6f5ca2d",
}


def test_lift_output_bytes_past_one_export_block_are_pinned(tmp_path):
    out = tmp_path / "L"
    assert run(["lift", "triangle", "--resolution", "48", "--projection", "xyy",
                "--out", str(out)]) == 0
    assert (out / "mesh.off").read_text().splitlines()[1] == "42066 33135 0"
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in LIFT_RES48_XYY_SHA256}
    assert got == LIFT_RES48_XYY_SHA256


# sha256 of `troplag verify all --seed 7`: same seed, same bytes, across
# changes too; a change that moves a reported figure must update it on purpose
VERIFY_ALL_SEED7_SHA256 = "ad1b61dcb6bba4edc9f467198c9143edf0af91ca3d5d216e64e8b81bfd1b0064"


def test_verify_all_output_bytes_are_pinned(tmp_path):
    out = tmp_path / "V"
    assert run(["verify", "all", "--seed", "7", "--out", str(out)]) == 0
    got = hashlib.sha256((out / "verify_all.jsonl").read_bytes()).hexdigest()
    assert got == VERIFY_ALL_SEED7_SHA256


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of the exact layer's outputs, run in a fresh directory with
# `--out out` so the SVG metadata line is the same on every run:
# curve.json and curve.svg of `troplag tropical NAME` per polytope fixture
TROPICAL_SHA256 = {
    "standard_line": ("5c40d085ddb369ce45bb0558331f1049a0847347ca055e777b91f34dd392b4dc",
                      "6cb038599303ec12cca407cec391eea355d6f36c8b9413b64e83d7cd38dcfee4"),
    "triangle": ("6cce07bac3221f9a2390c75f62978fca89349527166245c411b40c2ecb5c6406",
                 "60ede75862a6f09c62b95dd17881f879f8612f25dccec2a4db3c872cc28a9a21"),
    "weight2_line": ("eff6851c17b2ec03a3f72ebcb5e6ab7e06761f6ece5f9c6680fff35165bd8f54",
                     "28fe03f76da57b2c9877ced519e89b176c46f6ff2159b126dd55570480874cf5"),
    "weight2_segment": ("51ec46ac35424b6df82235648bfa1c6af5f109c19613c07de70095c529a60ce5",
                        "1210af7d25fb7d2a2e97ff0f316bdad084fb16332acf8cca17512e236b42cb7b"),
}
# toric_report.json of `troplag toric NAME` per fixture with a polygon
TORIC_SHA256 = {
    "nonorientable": "4effe6fb8c47736f69a22f6005c4d8f04948125d1937070d7dc2a7d698cf2901",
    "p1p1_monotone": "ed49c76290cec94dd6a34788656450475d09efc38a8787cc4039e40b03a8fbcd",
    "p1p1_torus": "453dea604b0433630b075ca432ce0d7b4590ae5b6c9b972a4bf5ea645883bb78",
    "p2_monotone": "9b81e5897b95ed40cf468b5713eb23e9a19e9c78be942acfc9265c05d60339d1",
    "p2_torus": "9da8b0bcf805ebb6fea92c972fa4e1d1997f8fe5311ebc38635b7b65e060ff8f",
}
# pl_cloud.csv and report.jsonl of `troplag lift NAME --pl-only --resolution
# 16`; weight2_line's vertex fiber is a covering coamoeba
PL_ONLY_RES16_SHA256 = {
    "triangle": ("88200aa35c552d09f332fa002b62f7ce9b1877b5ca7988282b8002c663e9dcf2",
                 "9f098e53c315bf3487589d3b7e9b8c984b58cfd88de6bd37855162ccf11b8e83"),
    "weight2_line": ("a80026ce139ded6a38c9cf9c6ff6e99d08c2a9a5ad622e78fa6cb766c1ba77b2",
                     "2666a30b7369c510ba589d7c4d098f2a0c1bc556b7cf8068ccbe62baa17a8539"),
}


@pytest.mark.parametrize("name", sorted(TROPICAL_SHA256))
def test_tropical_output_bytes_are_pinned(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert run(["tropical", name, "--out", "out"]) == 0
    out = tmp_path / "out"
    assert (_sha256(out / "curve.json"), _sha256(out / "curve.svg")) == TROPICAL_SHA256[name]


@pytest.mark.parametrize("name", sorted(TORIC_SHA256))
def test_toric_output_bytes_are_pinned(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert run(["toric", name, "--out", "out"]) == 0
    assert _sha256(tmp_path / "out" / "toric_report.json") == TORIC_SHA256[name]


def _json_leaves(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for v in value:
            yield from _json_leaves(v)
    else:
        yield value


@pytest.mark.parametrize("name", sorted(TORIC_SHA256))
def test_toric_report_holds_no_python_reprs(tmp_path, name):
    # a boundary vertex is written like a point, a boundary edge as its index
    out = tmp_path / "out"
    assert run(["toric", name, "--out", str(out)]) == 0
    rep = json.loads((out / "toric_report.json").read_text())
    assert not [v for v in _json_leaves(rep) if "Fraction(" in str(v)]
    for hit in rep["classification"]:
        kind, where = hit["boundary"]
        if kind == "vertex":
            assert [str(Fraction(c)) for c in where] == where == hit["point"]
        else:
            assert kind == "edge" and type(where) is int


@pytest.mark.parametrize("name", sorted(PL_ONLY_RES16_SHA256))
def test_pl_only_lift_output_bytes_are_pinned(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert run(["lift", name, "--pl-only", "--resolution", "16", "--out", "out"]) == 0
    out = tmp_path / "out"
    got = (_sha256(out / "pl_cloud.csv"), _sha256(out / "report.jsonl"))
    assert got == PL_ONLY_RES16_SHA256[name]


def test_svg_metadata_is_the_command_that_main_ran(tmp_path, monkeypatch):
    # main(argv) records its own argv, not the process's sys.argv
    monkeypatch.setattr(sys, "argv", ["prog", "--bogus", "args"])
    out = tmp_path / "o"
    assert run(["tropical", "triangle", "--out", str(out)]) == 0
    assert run(["pants", "--grid", "8", "--out", str(out)]) == 0
    curve, region = ((out / name).read_text() for name in ("curve.svg", "region.svg"))
    assert f"<!-- generated by: troplag tropical triangle --out {out} -->" in curve
    assert f"<!-- generated by: troplag pants --grid 8 --out {out} -->" in region


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


def test_twisted_lift_is_measured_against_the_twisted_pl_lift(tmp_path):
    # the twisted smooth family converges to the twisted PL lift, so its
    # distance shrinks with the scale (to the untwisted lift it stays 0.646)
    dist = {}
    for t in ("1", "0.1"):
        out = tmp_path / t
        assert run(["lift", "triangle", "--scale", t, "--resolution", "32",
                    "--twist", "edge=3,winding=1", "--out", str(out)]) == 0
        dist[t] = json.loads((out / "report.jsonl").read_text())["hausdorff_to_pl"]
    assert dist["0.1"] < dist["1"]
    assert dist["0.1"] < 0.3


def test_lift_below_the_smallest_scale_exits_2(tmp_path, capsys):
    out = tmp_path / "x"
    start = time.perf_counter()
    assert run(["lift", "triangle", "--resolution", "16", "--scale", "1e-6",
                "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "--scale 1e-06 is too small" in err and "must exceed 2.24" in err
    assert not out.exists()
    assert run(["lift", "triangle", "--resolution", "16", "--scale", "1e-4",
                "--out", str(out)]) == 0


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


@pytest.mark.parametrize("resolution", ["9", "11", "15"])
def test_odd_resolution_of_the_smooth_lift_exits_2(tmp_path, capsys, resolution):
    out = tmp_path / "x"
    assert run(["lift", "triangle", "--resolution", resolution, "--out", str(out)]) == 2
    assert "error: resolution must be even" in capsys.readouterr().err
    assert not out.exists()


def _refuse_to_sample(*args, **kwargs):
    raise AssertionError("sampled a refused resolution")


@settings(max_examples=60, deadline=None)
@given(resolution=st.one_of(st.integers(-10 ** 30, 7), st.integers(513, 10 ** 30),
                            st.integers(4, 255).map(lambda k: 2 * k + 1),
                            st.just(10 ** 8)))
@example(resolution=7)
@example(resolution=513)
@example(resolution=9)
@example(resolution=511)
def test_resolution_outside_the_even_range_exits_2_before_sampling(resolution):
    # no schedule, smooth piece or PL cloud is computed, and nothing is written
    from unittest import mock
    from troplag import lift
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(lift, "default_schedule", _refuse_to_sample), \
            mock.patch.object(lift, "_pants_vertex_piece", _refuse_to_sample), \
            mock.patch.object(lift, "_pl_cloud", _refuse_to_sample):
        out = os.path.join(tmp, "x")
        start = time.perf_counter()
        assert main(["lift", "triangle", "--resolution", str(resolution),
                     "--out", out]) == 2
        assert time.perf_counter() - start < 2.0
        assert not os.path.exists(out)


def _degree_triangle_file(tmp_path, d):
    path = tmp_path / f"degree{d}.json"
    lifting = {f"{i},{j}": i * i + j * j + (i + j) ** 2
               for i in range(d + 1) for j in range(d + 1 - i)}
    path.write_text(json.dumps({"type": "polytope", "vertices": [[0, 0], [d, 0], [0, d]],
                                "lifting": lifting}))
    return path


@pytest.mark.parametrize("flags", [[], ["--pl-only"]])
def test_sample_bound_refuses_degree_20_at_512_within_a_second(tmp_path, capsys, flags):
    # about 624 M mesh points (270 M PL points) would need some 56 GB
    src = _degree_triangle_file(tmp_path, 20)
    out = tmp_path / "x"
    t0 = time.perf_counter()
    code = run(["lift", str(src), "--resolution", "512", "--out", str(out)] + flags)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "error: the sample would hold up to" in capsys.readouterr().err
    assert not out.exists()  # refused before any sample or output


# Imports the modules every command uses, runs the commands and the calls of
# the benchmark's curve job that need no Hausdorff distance and no smooth
# lift, and prints the scipy and concurrent.futures modules loaded; then a
# smooth lift, which measures a Hausdorff distance, and again.
_SCIPY_FREE_RUNS = """
import json, os, sys
import troplag.cli, troplag.svg, troplag.verify
from troplag.cli import main
out = sys.argv[1]
runs = [["tropical", "triangle"], ["toric", "p2_torus"], ["pants", "--n", "1", "--grid", "8"],
        ["lift", "triangle", "--pl-only", "--resolution", "8"], ["verify", "boundary"]]
for i, argv in enumerate(runs):
    assert main(argv + ["--out", os.path.join(out, str(i))]) == 0, argv
from troplag.lift import default_schedule, pl_lift
from troplag.polyhedral import load_polytope_json, regular_subdivision
from troplag.svg import draw_curve_and_subdivision
from troplag.toric import lift_topology
from troplag.tropical import is_smooth, tropical_hypersurface
with open(sys.argv[2]) as fh:
    X = tropical_hypersurface(regular_subdivision(*load_polytope_json(json.load(fh))))
assert is_smooth(X) and len(default_schedule(X).lam) == 64
pl_lift(X).genus(), lift_topology(X)
draw_curve_and_subdivision(X, os.path.join(out, "curve.svg"))
scipy = lambda: "scipy " + json.dumps([m for m in sys.modules if m.split(".")[0] == "scipy"
                                       or m.startswith("concurrent.futures")])
print(scipy())
assert main(["lift", "triangle", "--resolution", "8", "--out", os.path.join(out, "L")]) == 0
print(scipy())
"""


def test_commands_without_a_hausdorff_distance_do_not_load_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(troplag.__file__)))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE_RUNS, str(tmp_path),
                           str(_degree_triangle_file(tmp_path, 8))],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    before, after = (json.loads(line[len("scipy "):]) for line in proc.stdout.splitlines()
                     if line.startswith("scipy "))
    assert before == []
    assert "scipy.spatial" in after


def test_pl_only_lift_of_the_unit_square(tmp_path):
    # the vertex dual is a square, so its coamoeba is sampled through the
    # cell coamoeba's membership test: one vertex of chi -2 and four ends
    src = tmp_path / "square.json"
    src.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
                               "lifting": {"0,0": 0, "1,0": 0, "1,1": 0, "0,1": 0}}))
    out = tmp_path / "q"
    assert run(["lift", str(src), "--pl-only", "--resolution", "8", "--out", str(out)]) == 0
    rec = json.loads((out / "report.jsonl").read_text())
    assert (rec["points"], rec["chi"], rec["punctures"], rec["genus"]) == (830, -2, 4, 0)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from troplag import *", namespace)
    assert [name for name in troplag.__all__ if name not in namespace] == []


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
    from troplag import lift, pants
    # without the exact n = 1 start, one Newton iteration does not converge
    monkeypatch.setattr(pants, "leg_fiber_root", lambda b, s: b * float("nan"))
    solve = lift.solve_leg_fiber
    monkeypatch.setattr(lift, "solve_leg_fiber",
                        lambda pants, j, target, wp, tol, max_iter:
                        solve(pants, j, target, wp, tol, 1))
    assert run(["lift", "triangle", "--resolution", "8",
                "--out", str(tmp_path / "x")]) == 3
    line = capsys.readouterr().err.strip().splitlines()[-1]
    head = "numeric failure: fiber solve did not converge "
    assert line.startswith(head)
    diag = json.loads(line[len(head):])
    assert list(diag) == sorted(diag)
    assert diag["iterations"] == 1 and diag["unconverged_rows"] >= 1
    assert diag["max_residual"] > 0


def _failing_lift_runs(tmp_path, capsys, code):
    """The last stderr lines of three failing lifts, each checked to exit
    with code and to leave no thread of its collar pool running."""
    lines = set()
    for i in range(3):
        threads = threading.active_count()
        assert run(["lift", "triangle", "--resolution", "64",
                    "--out", str(tmp_path / str(i))]) == code
        assert threading.active_count() == threads
        lines.add(capsys.readouterr().err.strip().splitlines()[-1])
    return lines


def test_collar_non_convergence_is_deterministic_and_leaves_no_thread(
        tmp_path, capsys, monkeypatch):
    from troplag import lift, pants
    # the non-convergence of test_numeric_failure_prints_diagnostics, in
    # blocks of 1000 rows: every block fails, the first in row order is reported
    monkeypatch.setattr(pants, "leg_fiber_root", lambda b, s: b * float("nan"))
    solve = lift.solve_leg_fiber
    monkeypatch.setattr(lift, "solve_leg_fiber",
                        lambda pants, j, target, wp, tol, max_iter:
                        solve(pants, j, target, wp, tol, 1))
    monkeypatch.setattr(lift, "_LIFT_BLOCK", 1000)
    monkeypatch.setattr(lift, "_cpu_count", lambda: 3)  # a pool on any host
    [line] = _failing_lift_runs(tmp_path, capsys, 3)
    assert line.startswith("numeric failure: fiber solve did not converge ")


def test_collar_domain_error_is_deterministic_and_leaves_no_thread(
        tmp_path, capsys, monkeypatch):
    from troplag import lift
    from troplag.errors import DomainError
    X = load_fixture("triangle")["curve"]
    # the first collar row: vertex 0, leg 0, S = r', the first fiber angle
    s0 = lift.default_schedule(X).legs[(0, 0)].r_prime / lift._local_model(X, 0).leg_norm[0]

    def failing(pm, j, target, wp, tol, max_iter):
        # every block fails, naming its first row; the first block fails
        # last, so the one reported is not the first to fail
        if target[0] == s0 and wp[0, 1] == 0.5 * math.pi / 64:
            time.sleep(0.1)
        raise DomainError(f"block from S = {float(target[0])!r}, theta = {float(wp[0, 1])!r}")

    monkeypatch.setattr(lift, "solve_leg_fiber", failing)
    monkeypatch.setattr(lift, "_LIFT_BLOCK", 1000)
    monkeypatch.setattr(lift, "_cpu_count", lambda: 3)  # a pool on any host
    assert _failing_lift_runs(tmp_path, capsys, 2) == {
        f"error: block from S = {s0!r}, theta = {0.5 * math.pi / 64!r}"}


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
