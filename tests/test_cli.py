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
from troplag.cli import MAX_GRID, _load_curve_arg, main
from troplag.fixtures import fixture_names, load_fixture
from troplag.tropical import curve_to_json


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
    from_file = curve_to_json(_load_curve_arg(str(src))["curve"])
    assert from_file == curve_to_json(load_fixture(name)["curve"])


SIMPLEX_POLYTOPE = '{"vertices": [[0, 0], [1, 0], [0, 1]], "lifting": %s}'
SIMPLEX_LIFTING = '{"0,0": 0, "1,0": 0, "0,1": %s}'


@pytest.mark.parametrize("text", [
    SIMPLEX_POLYTOPE % (SIMPLEX_LIFTING % '"x"'),                  # ValueError
    SIMPLEX_POLYTOPE % (SIMPLEX_LIFTING % "1e400"),                # OverflowError
    SIMPLEX_POLYTOPE % '{"0,0": 0, "1,0": 0, "0,1": 0, "a,b": 0}',  # ValueError
    SIMPLEX_POLYTOPE % "[1, 2, 3]",                                # AttributeError
    '{"vertices": [[0, 0], [1.5, 0], [0, 1]], "lifting": {}}',     # truncated to (1, 0)
    SIMPLEX_POLYTOPE % '{"0,0": 0, "1,0": 0, "0,1": 0, " 0,0": 5}',  # a second (0, 0)
    SIMPLEX_POLYTOPE % '{"00,0": 0, "1,0": 0, "0,1": 0}',            # read as (0, 0)
    '{"vertices": [[0], [2]], "lifting": {}}',                     # IndexError
    '{"vertices": [[0, 0, 5], [1, 0, 0], [0, 1, 0]], "lifting": {}}',  # third dropped
], ids=["value_x", "value_1e400", "key_a_b", "lifting_list", "vertex_1.5", "key_space_0_0",
        "key_00_0", "vertex_1_coordinate", "vertex_3_coordinates"])
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
    {"vertices": [[0, 0, 7], [1, 0]]},                             # ValueError in svg.py
    {"vertices": [[0], [1, 0]]},
    {"rays": [[0, [0, 1]], [0, [-1, -1]], [1, [0, -1]], [1, [1, 1, 0]]]},  # kept in curve.json
    {"lines": [[[0, 0], [1, 0]]], "weights": [1] * 6},              # a line beside vertices
    {"vertices": [], "edges": [], "rays": [],
     "lines": [[[0, 0], [1, 0]], [[0, 1], [1, 1]]]},                # lines must be parallel
    {"vertices": [], "edges": [], "rays": [], "lines": [[[0, 0], [0, 0]]]},
], ids=["edge_out_of_range", "weight_x", "weight_1.5", "edge_negative", "ray_base_negative",
        "vertex_3_coordinates", "vertex_1_coordinate", "ray_3_coordinates",
        "line_and_vertices", "lines_not_parallel", "line_direction_zero"])
def test_malformed_curve_exits_2(tmp_path, capsys, change):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(_two_vertex_curve()))
    bad.write_text(json.dumps(_two_vertex_curve(**change)))
    assert run(["tropical", str(good), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert run(["tropical", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["tropical", "toric"])
def test_repeated_curve_vertex_exits_2(tmp_path, capsys, command):
    # three copies of one vertex would count its pants three times:
    # chi = -2, genus 1 in place of chi = 0, genus 0
    curve = {"vertices": [[0, 0]], "rays": [[0, [1, 0]], [0, [0, 1]], [0, [-1, -1]]],
             "polygon": [[-3, -3], [6, -3], [-3, 6]]}
    once, thrice = tmp_path / "once.json", tmp_path / "thrice.json"
    once.write_text(json.dumps(curve))
    thrice.write_text(json.dumps(dict(curve, vertices=[[0, 0]] * 3)))
    assert run([command, str(once), "--out", str(tmp_path / "o")]) == 0
    assert command == "tropical" or capsys.readouterr().out.startswith("chi=0 orientable genus=0")
    capsys.readouterr()
    assert run([command, str(thrice), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: curve vertex (0, 0) is listed twice\n"


_COORDINATES = st.lists(st.integers(-2, 2), max_size=3)


@settings(max_examples=100, deadline=None)
@given(vertices=st.lists(_COORDINATES, max_size=3),
       edges=st.lists(st.lists(st.integers(0, 2), min_size=2, max_size=2), max_size=2),
       rays=st.lists(st.tuples(st.integers(0, 2), _COORDINATES).map(list), max_size=4))
@example(vertices=[[0, 0], [1, 0]], edges=[[0, 1]],
         rays=[[0, [0, 1]], [0, [-1, -1]], [1, [0, -1]], [1, [1, 1]]])
@example(vertices=[[0, 0, 7], [1, 0]], edges=[[0, 1]],
         rays=[[0, [0, 1]], [0, [-1, -1]], [1, [0, -1]], [1, [1, 1]]])
@example(vertices=[[0, 0], [1, 0]], edges=[[0, 1]],
         rays=[[0, [0, 1]], [0, [-1, -1]], [1, [0, -1]], [1, [1, 1, 0]]])
def test_tropical_of_any_curve_object_keeps_the_exit_code_contract(vertices, edges, rays):
    # 0 drawn, 2 input error; never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "curve.json")
        with open(path, "w") as fh:
            json.dump({"vertices": vertices, "edges": edges, "rays": rays}, fh)
        assert main(["tropical", path, "--out", os.path.join(tmp, "o")]) in (0, 2)


# JSON values of every kind: lists and objects of numbers (huge ones too),
# strings, booleans and null
_JSON_LEAF = (st.none() | st.booleans() | st.text(max_size=4)
              | st.integers(-3, 3) | st.integers(-10 ** 400, 10 ** 400)
              | st.floats(allow_nan=True, allow_infinity=True)
              | st.sampled_from([10 ** 400, -10 ** 400, 1e308, -1e308, 10 ** 17, "1/2", "1e17"]))
_JSON = st.recursive(_JSON_LEAF, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=3), inner, max_size=2), max_leaves=8)
_POINT = st.lists(_JSON_LEAF, min_size=2, max_size=2)


@settings(max_examples=150, deadline=None)
@given(vertices=st.lists(_POINT | _JSON, max_size=3) | _JSON,
       edges=st.lists(st.lists(st.integers(0, 2) | _JSON_LEAF, min_size=2, max_size=2)
                      | _JSON, max_size=2) | _JSON,
       rays=st.lists(st.tuples(st.integers(0, 2) | _JSON_LEAF, _POINT | _JSON).map(list),
                     max_size=4) | _JSON,
       weights=st.none() | st.lists(st.integers(1, 2) | _JSON_LEAF, max_size=6) | _JSON)
@example(vertices=[[10 ** 400, 0]], edges=[], rays=[[0, [1, 1]], [0, [-1, 0]], [0, [0, -1]]],
         weights=None)
@example(vertices=[[0, 0], [10 ** 400, 0]], edges=[[0, 1]],
         rays=[[0, [0, 1]], [0, [-1, -1]], [1, [0, -1]], [1, [1, 1]]], weights=None)
@example(vertices=[[0, 0]], edges=[], rays=[[0, [math.inf, 0]]], weights=None)
@example(vertices=[["1e17", 0]], edges=[], rays=[[0, [10 ** 200, 1]], [0, [-1, 0]]],
         weights=None)
def test_tropical_of_any_json_curve_keeps_the_exit_code_contract(vertices, edges, rays,
                                                                 weights):
    # non-list, non-numeric and huge entries anywhere: 0 drawn, 2 input
    # error; never a traceback
    data = {"vertices": vertices, "edges": edges, "rays": rays}
    if weights is not None:
        data["weights"] = weights
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "curve.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        assert main(["tropical", path, "--out", os.path.join(tmp, "o")]) in (0, 2)


def test_json_number_too_long_to_read_exits_2(tmp_path, capsys):
    # json.load refuses an int of more than 4300 digits with a ValueError
    # that is not a JSONDecodeError
    src = tmp_path / "curve.json"
    src.write_text('{"vertices": [[' + "7" * 5000 + ', 0]]}')
    assert run(["tropical", str(src), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: malformed JSON")


_FAR_LIFTING = {"vertices": [[0, 0], [1, 0], [0, 1]],
                "lifting": {"0,0": 0, "1,0": 10 ** 17, "0,1": 0}}


def test_curve_far_from_the_origin_is_drawn_like_the_same_curve_at_it(tmp_path, capsys):
    # the curve of this lifting is the standard line moved to (-1e17, 0),
    # where x1 - x0 of the drawing's bounds rounded to 0 (ZeroDivisionError)
    src = tmp_path / "far.json"
    src.write_text(json.dumps(_FAR_LIFTING))
    assert run(["tropical", str(src), "--out", str(tmp_path / "far")]) == 0
    assert run(["tropical", "standard_line", "--out", str(tmp_path / "std")]) == 0
    far, std = ((tmp_path / d / "curve.svg").read_text().split("\n", 2)[2]
                for d in ("far", "std"))  # past the command line
    assert far == std
    for x in (10 ** 17, 0):  # a direct curve
        src = tmp_path / f"direct{x}.json"
        src.write_text(json.dumps({"vertices": [[x, 0]],
                                   "rays": [[0, [1, 1]], [0, [-1, 0]], [0, [0, -1]]]}))
        assert run(["tropical", str(src), "--out", str(tmp_path / f"direct{x}")]) == 0
    far, near = ((tmp_path / f"direct{x}" / "curve.svg").read_text().split("\n", 2)[2]
                 for x in (10 ** 17, 0))
    assert far == near


def test_curve_too_large_to_draw_exits_2(tmp_path, capsys):
    src = tmp_path / "huge.json"
    src.write_text(json.dumps(_two_vertex_curve(vertices=[[0, 0], [10 ** 400, 0]])))
    assert run(["tropical", str(src), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: the curve or its subdivision is too large to draw\n"


def test_lift_far_from_the_origin_exits_3_with_diagnostics(tmp_path, capsys):
    # its flat cylinders have no length in floats; the lift used to exit 0
    # with a NaN frame read as "symplectic_residual": 0.0
    src = tmp_path / "far.json"
    src.write_text(json.dumps(_FAR_LIFTING))
    assert run(["lift", str(src), "--resolution", "8", "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: a flat cylinder has no length in floats")
    assert '"p0": [-1e+17, 0.0]' in err


def test_missing_lifting_values_message_is_short(tmp_path, capsys):
    src = tmp_path / "poly.json"
    src.write_text(json.dumps({"vertices": [[0, 0], [3000, 0], [0, 1]], "lifting": {"0,0": 0}}))
    assert run(["tropical", str(src), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == ("error: missing lifting values at 3001 lattice points ((0, 1), (1, 0), "
                   "(2, 0), (3, 0), (4, 0), ...); pass --default-zero to default them to 0\n")


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


@settings(max_examples=80, deadline=None)
@given(n=st.integers(-1, 5),
       grid=st.one_of(st.integers(-2, 12), st.integers(MAX_GRID + 1, 10 ** 12)),
       lam=st.one_of(st.none(), st.floats(), st.sampled_from([0.0, 1e-320, 1e100, 1e101])),
       section=st.one_of(st.none(), st.floats(), st.sampled_from([1 / 9, 0.11, 1e300])))
def test_pants_keeps_the_exit_code_contract(n, grid, lam, section):
    # 0 written, 2 input error; never a traceback
    argv = ["pants", "--n", str(n), "--grid", str(grid)]
    argv += [] if lam is None else [f"--lam={lam!r}"]
    argv += [] if section is None else [f"--section={section!r}"]
    with tempfile.TemporaryDirectory() as tmp:
        assert main(argv + ["--out", os.path.join(tmp, "o")]) in (0, 2)


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


# sha256 of `troplag lift triangle --resolution 16 --twist
# "edge=3,winding=1;edge=0,winding=-2"`: the twisted flat pieces, the twisted
# PL cloud behind hausdorff_to_pl, n_sigma and the schedule
LIFT_TWIST_RES16_SHA256 = {
    "mesh.off": "00df5a022369a8859165fef07fd2330eac8aaebb9bc4d617625c378b2ed479a5",
    "mesh.obj": "f2c8f37da376978f06552bcbf0554d2c2e60b653cf60162df1ff91c264b53e8a",
    "report.jsonl": "2304a0fb916a73ed1267952fea2c587359f196e9b7060a1e2811a56f52bc0d78",
    "schedule.json": "aa37eab34fba2b2301d5e82132144cf6ba367bda1cc49e73cd5c13e231283457",
}


def test_twisted_lift_output_bytes_are_pinned(tmp_path):
    out = tmp_path / "L"
    assert run(["lift", "triangle", "--resolution", "16", "--twist",
                "edge=3,winding=1;edge=0,winding=-2", "--out", str(out)]) == 0
    got = {name: _sha256(out / name) for name in LIFT_TWIST_RES16_SHA256}
    assert got == LIFT_TWIST_RES16_SHA256


# sha256 of `troplag verify all --seed 7`: same seed, same bytes, across
# changes too; a change that moves a reported figure must update it on purpose
# (last: theorem41's residual at t = 0.1 went 1.4074176414079225e-10 ->
# 7.603313867218716e-11 when the chart collars' finite differences were
# taken before the translation to the vertex)
VERIFY_ALL_SEED7_SHA256 = "63af28ef2c42b6bc7c34a0adaf8bab531e3b5c559f3767a72d2bb782d5801b45"


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
    "weight2_segment": ("65277f2cbde7a988c4b33a323d8984269ae7de6e5a4b46a35d00919c27eff240",
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
# every output of `troplag pants OPTIONS`: grid.csv, region.svg (n = 1) and
# section.json (--section)
PANTS_SHA256 = {
    "--n 0 --grid 16": {
        "grid.csv": "cbd218ebbbc0fbc0e9b63044ec0e3b515535922b38d8a0c38b370014e11a7dea"},
    "--n 1 --grid 16 --lam 2.5 --seed 3": {
        "grid.csv": "be527e88c2c7adfa1b2d8bb517b553245714bbcde7f0039c4a7680f3ec361b67",
        "region.svg": "104eb2c545f8df32edc1927aac284015d712b1816546838ac2a3683976d0bdeb"},
    "--n 2 --grid 12 --section 0.5": {
        "grid.csv": "24a6e01ef3e61604841c04b6ceece0969207d611dd9ccdfe6e3032799caf5da0",
        "section.json": "94612a87925cadf3f6235cf0703fce6f68145d8d46a9ce3a94a967538c9246c3"},
    "--n 3 --grid 8": {
        "grid.csv": "0f12a53659152f5bf1d77178fe0524c3ffc5b6f53201b10c7193200cc5e49869"},
    "--n 4 --grid 8 --seed 5": {
        "grid.csv": "316e1bb9385825d8fd62cf422b5339a62447332c5fefd1dabac4c2ccf4bd47cf"},
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


@pytest.mark.parametrize("name", sorted(TROPICAL_SHA256))
def test_tropical_of_its_own_curve_json_writes_the_same_bytes(tmp_path, name):
    # curve.json keeps every cell of the curve, lines with their point and
    # both directions, so reading it back gives the same curve
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(["tropical", name, "--out", str(first)]) == 0
    assert run(["tropical", str(first / "curve.json"), "--out", str(second)]) == 0
    assert (second / "curve.json").read_bytes() == (first / "curve.json").read_bytes()


@pytest.mark.parametrize("vertices", [[[0, 0], [10 ** 12, 1], [10 ** 12 + 1, 1]],
                                      [[0, 0], [1, 10 ** 12], [1, 10 ** 12 + 1]]])
def test_thin_unimodular_triangle_runs_within_a_second(tmp_path, capsys, vertices):
    # three lattice points in a bounding box of 2 * 10^12: listing the
    # points must not scan the box
    src = tmp_path / "thin.json"
    src.write_text(json.dumps({"type": "polytope", "vertices": vertices,
                               "lifting": {"0,0": 0, "%d,%d" % tuple(vertices[1]): 1,
                                           "%d,%d" % tuple(vertices[2]): 2}}))
    t0 = time.perf_counter()
    assert run(["tropical", str(src), "--check-smooth", "--out", str(tmp_path / "o")]) == 0
    assert time.perf_counter() - t0 < 1.0
    assert "smooth: true" in capsys.readouterr().out


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


@pytest.mark.parametrize("options", sorted(PANTS_SHA256))
def test_pants_output_bytes_are_pinned(tmp_path, monkeypatch, options):
    monkeypatch.chdir(tmp_path)
    assert run(["pants", *options.split(), "--out", "out"]) == 0
    out = tmp_path / "out"
    assert {p.name: _sha256(p) for p in out.iterdir()} == PANTS_SHA256[options]


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


def test_pl_only_lift_twists_the_cloud(tmp_path, capsys):
    out = {}
    for name, twist in (("plain", []), ("twisted", ["--twist", "edge=3,winding=1"])):
        out[name] = tmp_path / name
        assert run(["lift", "triangle", "--pl-only", "--resolution", "16", *twist,
                    "--out", str(out[name])]) == 0
    plain, twisted = ((out[n] / "pl_cloud.csv").read_bytes() for n in ("plain", "twisted"))
    assert plain != twisted and plain.count(b"\n") == twisted.count(b"\n")
    recs = {n: json.loads((out[n] / "report.jsonl").read_text()) for n in out}
    assert recs["twisted"].pop("n_sigma") == 1
    assert recs["twisted"] == recs["plain"]
    missing = tmp_path / "missing"
    assert run(["lift", "triangle", "--pl-only", "--resolution", "16",
                "--twist", "edge=99,winding=1", "--out", str(missing)]) == 2
    assert "no edge with index 99" in capsys.readouterr().err
    assert not missing.exists()


def test_pl_only_lift_refuses_a_schedule(tmp_path, capsys):
    # a schedule sets the smooth lift's gluing; a PL lift has none to set
    from troplag.lift import default_schedule
    sched = tmp_path / "schedule.json"
    sched.write_text(default_schedule(load_fixture("triangle")["curve"]).to_json())
    for path in (sched, tmp_path / "nonexistent.json"):
        out = tmp_path / "x"
        assert run(["lift", "triangle", "--pl-only", "--resolution", "16",
                    "--schedule", str(path), "--out", str(out)]) == 2
        assert "--schedule" in capsys.readouterr().err
        assert not out.exists()
    assert run(["lift", "triangle", "--resolution", "16", "--schedule", str(sched),
                "--out", str(tmp_path / "smooth")]) == 0


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
            mock.patch.object(lift.PLLift, "sample", _refuse_to_sample):
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


def test_curve_without_vertices_exits_2_from_lift_and_0_from_pl_only(tmp_path, capsys):
    # two parallel lines: nothing to put a pants on, but a PL lift exists
    from unittest import mock
    from troplag import lift
    src = tmp_path / "lines.json"
    src.write_text(json.dumps({"vertices": [[0, 0], [2, 0]],
                               "lifting": {"0,0": 0, "1,0": 0, "2,0": 1}}))
    with mock.patch.object(lift, "default_schedule", _refuse_to_sample):
        assert run(["lift", str(src), "--resolution", "8", "--out", str(tmp_path / "a")]) == 2
    assert "vertex" in capsys.readouterr().err
    assert run(["lift", str(src), "--pl-only", "--resolution", "8",
                "--out", str(tmp_path / "b")]) == 0


@pytest.mark.parametrize("flags", [[], ["--pl-only"]])
@pytest.mark.parametrize("value", [10 ** 400, -10 ** 400, 10 ** 200])
def test_lift_beyond_float_range_exits_2(tmp_path, capsys, flags, value):
    # used to end in an OverflowError traceback with exit 1 (in LocalModel,
    # the default truncation or min_vertex_distance's squares)
    src = tmp_path / "huge.json"
    src.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]],
                               "lifting": {"0,0": 0, "1,0": 0, "0,1": 0, "1,1": value}}))
    out = tmp_path / "o"
    assert run(["lift", str(src), "--resolution", "8", "--out", str(out)] + flags) == 2
    assert capsys.readouterr().err.startswith("error: the curve lies beyond float range")
    assert not out.exists()


@pytest.mark.parametrize("value", [10 ** 101, -10 ** 120, 10 ** 149])
def test_lift_of_a_curve_too_large_for_the_pants_scale_exits_2(tmp_path, capsys, value):
    # its default schedule's pants scale exceeds pants.LAM_MAX: refused by
    # the schedule, naming the curve's size, where PantsMap used to name a
    # bound the user never set ("scale lambda must be at most 1e+100")
    from unittest import mock
    from troplag import lift
    src = tmp_path / "large.json"
    src.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]],
                               "lifting": {"0,0": 0, "1,0": 0, "0,1": 0, "1,1": value}}))
    out = tmp_path / "o"
    with mock.patch.object(lift, "_standard_pants", _refuse_to_sample):
        assert run(["lift", str(src), "--resolution", "8", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: the curve is too large to lift: "
                                              "its vertices lie ")
    assert not out.exists()


def test_schedule_with_a_pants_scale_above_the_limit_exits_2(tmp_path, capsys,
                                                              triangle_schedule):
    from unittest import mock
    from troplag import lift
    src = tmp_path / "schedule.json"
    data = json.loads(json.dumps(triangle_schedule))
    data["lam"]["1"] = 1e101
    src.write_text(json.dumps(data))
    with mock.patch.object(lift, "_standard_pants", _refuse_to_sample):
        assert run(["lift", "triangle", "--resolution", "8", "--schedule", str(src),
                    "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "error: pants scales must be at most 1e+100\n"


@pytest.mark.parametrize("edit, message", [
    # the ray cylinders' squared length overflowed: the lift exited 0 with
    # a RuntimeWarning, zero tangent vectors and hausdorff_to_pl Infinity
    (("truncation", 1.34078079299426e154), "truncation must be positive and at most 1e+150"),
    (("truncation", 1.0000000000000002e150), "truncation must be positive and at most 1e+150"),
    # no boundary point within every leg's r': the pants lay beyond the
    # legs' cuts, and vertex 1 got a pants piece of 0 rows
    (("lam", "1", 1e100), "pants scale at vertex 1 violates the ball bound"),
], ids=["truncation_overflowing", "truncation_above_limit", "pants_beyond_the_legs"])
def test_schedule_beyond_its_bounds_exits_2_before_sampling(tmp_path, capsys,
                                                             triangle_schedule, edit, message):
    from unittest import mock
    from troplag import lift
    src = tmp_path / "schedule.json"
    data = json.loads(json.dumps(triangle_schedule))
    *keys, value = edit
    entry = data
    for k in keys[:-1]:
        entry = entry[k]
    entry[keys[-1]] = value
    src.write_text(json.dumps(data))
    with mock.patch.object(lift, "_standard_pants", _refuse_to_sample):
        assert run(["lift", "triangle", "--resolution", "16", "--schedule", str(src),
                    "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x").exists()


_SMALL_POINTS = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         min_size=1, max_size=5, unique=True)


@settings(max_examples=100, deadline=None)
@given(points=_SMALL_POINTS,
       values=st.lists(st.integers(-4, 4), min_size=16, max_size=16),
       flags=st.sampled_from([[], ["--pl-only"], ["--scale", "0.5"]]),
       huge=st.none() | st.tuples(st.integers(0, 15), st.sampled_from(
           [s * 10 ** e for s in (-1, 1) for e in (100, 153, 154, 200, 308, 400)])))
@example(points=[(0, 0), (1, 0), (0, 1), (1, 1)], values=[0] * 16, flags=["--pl-only"],
         huge=(5, 10 ** 400))
@example(points=[(0, 0), (0, 1)], values=[0] * 16, flags=["--pl-only"],  # a line, no vertex
         huge=(0, -10 ** 400))
def test_lift_of_any_small_polytope_keeps_the_exit_code_contract(points, values, flags, huge):
    # 0 lifted, 2 input error, 3 numeric failure; never a traceback, also
    # with one lifting value whose curve lies beyond float range
    if huge is not None:
        values[huge[0]] = huge[1]
    lifting = {f"{i},{j}": values[4 * i + j] for i in range(4) for j in range(4)}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "poly.json")
        with open(path, "w") as fh:
            json.dump({"vertices": [list(p) for p in points], "lifting": lifting}, fh)
        code = main(["lift", path, "--resolution", "8", "--out", os.path.join(tmp, "o")]
                    + flags)
    assert code in (0, 2, 3)


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


@pytest.mark.parametrize("spec", ["garbage", "edge=99", "edge=x,winding=1",
                                  "edge=0,winding=1;edge=0,winding=2",
                                  "edge=0,winding=1,bogus=7"])
def test_lift_malformed_twist_exits_2(tmp_path, capsys, spec):
    assert run(["lift", "triangle", "--resolution", "8", "--twist", spec,
                "--out", str(tmp_path / "x")]) == 2
    assert "--twist" in capsys.readouterr().err


def test_twist_of_a_missing_edge_exits_2_before_the_lift(tmp_path, capsys):
    from unittest import mock
    from troplag import lift
    with mock.patch.object(lift, "smooth_lift", _refuse_to_sample):
        assert run(["lift", "triangle", "--resolution", "8", "--twist", "edge=99,winding=1",
                    "--out", str(tmp_path / "x")]) == 2
    assert "no edge with index 99" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


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


def _rename(name, key, alias):
    def apply(d):
        d[name][alias] = d[name].pop(key)
    return apply


def _add_leg(d):
    d["legs"]["9,0"] = d["legs"]["0,0"]


def _add_fourth_leg(d):
    d["legs"]["0,3"] = d["legs"]["0,0"]


def _repeat_lam_0(d):
    # the text of d with a first "0" entry in lam, which json.load alone
    # would drop for the second, valid one
    text = json.dumps(d)
    head = '"lam": {"0": '
    assert text.count(head) == 1
    return text.replace(head, head + '2.0, "0": ')


@pytest.mark.parametrize("change", [
    b"{",                                                          # JSONDecodeError
    b"\xff\xfe{}",                                                 # UnicodeDecodeError
    b"[1]",
    _edit(["lam", "0"], None),                                     # KeyError: 0
    _edit(["lam", "0"], "x"),                                      # ValueError
    _edit(["lam", "0"], 0.0),                                      # pants scale 0
    _edit(["legs", "0,0", "r"], "x"),                              # TypeError
    _edit(["legs", "0,0", "zz"], 1.0),                             # TypeError
    _edit(["legs", "0,0", "r_bar"], None),
    _rename("legs", "0,0", "zz"),                                  # ValueError
    _add_leg,
    _edit(["legs"], None),
    _edit(["truncation"], float("nan")),                           # ValueError
    _edit(["truncation"], -1),                                     # exit 0
    _edit(["truncation"], 0.01),                                   # exit 0, below r
    _edit(["ball_radius", "1"], 10 ** 400),
    _edit(["lam", "3"], 0.1),
    _edit(["ball_radius", "2"], None),
    _add_fourth_leg,
    _rename("lam", "0", "00"),
    _rename("ball_radius", "1", " 1"),
    _rename("legs", "0,0", "+0,0"),
    _repeat_lam_0,
], ids=["brace", "non_utf8", "list", "lam_deleted", "lam_x", "lam_zero", "leg_r_x",
        "leg_extra_field",
        "leg_field_deleted", "leg_key_zz", "leg_key_extra", "legs_deleted", "truncation_nan",
        "truncation_negative", "truncation_inside_leg", "ball_radius_huge", "lam_key_extra",
        "ball_radius_missing_vertex", "leg_index_3", "lam_key_00", "ball_radius_key_space_1",
        "leg_key_plus_0_0", "lam_key_repeated"])
def test_malformed_schedule_exits_2(tmp_path, capsys, triangle_schedule, change):
    src = tmp_path / "schedule.json"
    if isinstance(change, bytes):
        src.write_bytes(change)
    else:
        data = json.loads(json.dumps(triangle_schedule))
        src.write_text(change(data) or json.dumps(data))
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


def test_lift_measures_against_a_pl_sample_cut_at_the_schedules_truncation(
        tmp_path, triangle_schedule):
    # the mesh's rays end at the schedule's truncation; a PL sample cut at
    # the curve table's default reported 3.0 here, the gap between the two
    from troplag.lift import GluingSchedule, hausdorff_distance, pl_lift, smooth_lift
    data = dict(triangle_schedule, truncation=6.0)
    src, out = tmp_path / "schedule.json", tmp_path / "x"
    src.write_text(json.dumps(data))
    assert run(["lift", "triangle", "--resolution", "16", "--schedule", str(src),
                "--out", str(out)]) == 0
    got = json.loads((out / "report.jsonl").read_text())["hausdorff_to_pl"]
    X = load_fixture("triangle")["curve"]
    mesh = smooth_lift(X, 1.0, GluingSchedule.from_dict(data), resolution=16)
    assert got == hausdorff_distance(mesh.points, pl_lift(X).sample(16, truncation=6.0))
    assert got < 1.0


_SCHEDULE_KEYS = st.sampled_from([
    "ball_radius", "lam", "legs", "truncation", "r_prime", "r_second", "r_bar", "r", "x",
    "0", "1", "2", "3", "00", " 1", "+0", "-0", "1.0",
    "0,0", "1,2", "2,2", "0,3", "00,0", " 1,1", "+0,1", "0, 2", "0,0,0"])
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 10 ** 400),
              st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_SCHEDULE_KEYS, inner,
                                                                max_size=4),
    max_leaves=12)


def _laid_over(base, edits):
    """base with the entries of edits laid over it, object into object."""
    out = dict(base)
    for k, v in edits.items():
        both = isinstance(v, dict) and isinstance(out.get(k), dict)
        out[k] = _laid_over(out[k], v) if both else v
    return out


@settings(max_examples=50, deadline=None)
@given(edits=st.dictionaries(_SCHEDULE_KEYS, _JSON_VALUES, max_size=4), over_valid=st.booleans())
@example(edits={"truncation": 1.34078079299426e154}, over_valid=True)  # the ray step overflowed
def test_any_schedule_file_keeps_the_exit_code_contract(triangle_schedule, edits, over_valid):
    # any JSON object, alone or laid over a valid schedule: 0 lifted,
    # 2 input error, 3 numeric failure; never a traceback
    data = _laid_over(triangle_schedule, edits) if over_valid else edits
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "schedule.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        code = main(["lift", "triangle", "--resolution", "8", "--schedule", path,
                     "--out", os.path.join(tmp, "o")])
    assert code in (0, 2, 3)


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
    s0 = float(lift.default_schedule(X).cuts[0, 0, 0] / lift._curve_table(X).norms[0, 0])

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
