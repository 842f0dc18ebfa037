"""End-to-end checks of the terminal front end and its exit-code contract."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import polybilliard
from polybilliard import cli, shapes, unfold
from polybilliard.cli import run
from polybilliard.exactgeom import polygon_from_spec

POLYGONS = Path(__file__).resolve().parent.parent / "polygons"
# the directory holding the imported package, from src/ or from an install
PACKAGE_ROOT = str(Path(polybilliard.__file__).resolve().parents[1])
# the inherited environment, able to import the package without an install
CHILD_ENV = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}
# a bare environment: the CLI needs nothing but the package's location
THREAD_ENV = {
    "PATH": "/usr/bin:/bin",
    "PYTHONPATH": PACKAGE_ROOT,
    "POLYBILLIARD_THREADS": "1",
}


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# analyze


def test_analyze_broken_rectangle(capsys):
    code, out, _ = invoke(capsys, "analyze", str(POLYGONS / "broken_rectangle.json"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "g=2, images=4, periods=4, DRPB=yes"
    assert "C1 = 1, C2 = 1" in out
    assert "doubly rational: yes" in out


def test_analyze_parallelogram(capsys):
    code, out, _ = invoke(capsys, "analyze", str(POLYGONS / "parallelogram_2_3.json"))
    assert code == 0
    assert out.splitlines()[0] == "g=2, images=6, periods=4, DRPB=yes"


def test_analyze_irrational_triangle(capsys):
    code, out, _ = invoke(capsys, "analyze", str(POLYGONS / "isosceles_pi5.json"))
    assert code == 0
    assert out.splitlines()[0].endswith("DRPB=no (irrational relations)")
    assert "doubly rational: no" in out


def test_analyze_missing_file(capsys):
    code, _, err = invoke(capsys, "analyze", str(POLYGONS / "no_such.json"))
    assert code == 2
    assert "error:" in err


def test_analyze_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all {")
    assert invoke(capsys, "analyze", str(bad))[0] == 2

    bad.write_text(json.dumps({"sides": [{"angle": "1/2", "length": "1"}]}))
    assert invoke(capsys, "analyze", str(bad))[0] == 2


def test_analyze_boolean_angle_is_input_error(tmp_path, capsys):
    # JSON true is no angle; it once read as 1/1, the angle pi
    spec = tmp_path / "bool.json"
    angles = [True, "1/2", "1/4", "1/4"]
    spec.write_text(json.dumps({"sides": [
        {"angle": a, "length": "1"} if k < 2 else {"angle": a} for k, a in enumerate(angles)
    ]}))
    code, out, err = invoke(capsys, "analyze", str(spec))
    assert (code, out) == (2, "")
    assert "bad angle True" in err


def test_analyze_open_chain_is_closure_error(tmp_path, capsys):
    # angles of a square but mismatched lengths: the chain cannot close
    bad = tmp_path / "open.json"
    bad.write_text(
        json.dumps(
            {
                "sides": [
                    {"angle": "1/2", "length": "1"},
                    {"angle": "1/2", "length": "1"},
                    {"angle": "1/2", "length": "2"},
                    {"angle": "1/2", "length": "1"},
                ]
            }
        )
    )
    code, _, err = invoke(capsys, "analyze", str(bad))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("angles, lengths, message", [
    # opposite sides of a square are parallel: closure cannot fix them
    (["1/2"] * 4, [None, "1", None, "1"], "are parallel"),
    # an L-shape whose notch side would have to be negative
    (["1/2", "1/2", "3/2", "1/2", "1/2", "1/2"], [None, "3", "1", None, "3", "2"],
     "solved length for side 3 is not positive"),
    (["1/2"] * 4, ["1", None, "1", "1"], "exactly 0 or 2 lengths may be omitted, found 1"),
])
def test_analyze_unsolvable_lengths_are_input_errors(tmp_path, capsys, angles, lengths, message):
    sides = [{"angle": a} if v is None else {"angle": a, "length": v}
             for a, v in zip(angles, lengths)]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"sides": sides}))
    code, out, err = invoke(capsys, "analyze", str(spec))
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("length", [
    "1e400",  # past the float range: its float overflowed while checking its sign
    "1e160",  # its square overflowed in the simplicity check's float geometry
])
def test_analyze_length_past_float_range_is_input_error(tmp_path, capsys, length):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"sides": [
        {"angle": "1/2", "length": length}, {"angle": "1/2", "length": "1"},
        {"angle": "1/2"}, {"angle": "1/2"},
    ]}))
    code, out, err = invoke(capsys, "analyze", str(spec))
    assert (code, out) == (2, "")
    assert err == "error: the perimeter is past 1e+150, beyond the float geometry\n"


# --------------------------------------------------------------------------
# unfold


def test_unfold_equilateral(capsys):
    code, out, _ = invoke(capsys, "unfold", str(POLYGONS / "equilateral.json"))
    assert code == 0
    assert out.startswith("EPP C=3 images=6")
    assert "period basis:" in out
    tail = out.split("period basis:")[1]
    assert tail.count("P1:") == 1 and tail.count("P2:") == 1


def test_unfold_to_file(tmp_path, capsys):
    target = tmp_path / "dump.txt"
    code, out, _ = invoke(
        capsys, "unfold", str(POLYGONS / "square.json"), "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("EPP C=2 images=4")


# SHA-256 of the `unfold` and the `analyze` stdout, recorded before the period
# basis was rebuilt on a tree and co-tree; the route changed, the bytes may not.
UNFOLD_ANALYZE_SHA256 = {
    "broken_rectangle.json": ("069919ba214c08af95d04e4ef3d192f65f89fdf87603203d43b4c514c8d527ea",
        "3b9cfe5a14ccfc51025d7e0efd7c1af5870c5320147d573311a6b100d40a6bc0"),
    "broken_rectangle_199_100.json": ("145c169378be0d563251aa7a7ee84cc2399282553e95ce819281d715679c95ea",
        "4e7205dd88e89c5aaa2b02338d820e4b79a85eae971e15e13a43505260a2f59a"),
    "broken_rectangle_3_2.json": ("6fae35dfac299d76cdf08b68436273114d2a8c0d2525914a53819202ba44380f",
        "90a45362114337e7fa568718712d7f867362ba3f7ea1d1d879a800cfd4029293"),
    "equilateral.json": ("d7a4176bc805fbf6aa1fb44d1d9b107821edcbbcbe502eda88d547123d78aa4a",
        "76ea878f2b271da44333d2af6016eaa5f25925faf67c200f999d2e5959612b92"),
    "isosceles_pi5.json": ("da675a596b800503ca8e030dedbd5cbecadbe9da973d6db7351b787c9340acd8",
        "f9223b03604cd29dd479a135455887d9fda69cfe813225227d14c6d28ddc97c4"),
    "parallelogram_2_3.json": ("59a6da127805acab6ae3b9326cd1b49b0f437c0e652c9bacde2dc7fa238a79c5",
        "89117f379f820d324f6ccbf203f29b9cf28d60a3d9e5feb1b7b8d997fd4e7d5c"),
    "rhombus.json": ("adb07513f085fc79b565de6f0100e558291ff61968222050ce7ae35dc7707928",
        "8d9e797412d84e0423deb72767a69a47c59bb59346ed7efff00ca374e045338b"),
    "square.json": ("a6b782d5e2b721a5368bed0de5a5afd8390b57d6b97e4f840a5bb9a110fecf27",
        "50a49572fd3ae500ce38bfe07c7b6e892c5d1444423d2fffd3fd8241c675af0c"),
    "square": ("a6b782d5e2b721a5368bed0de5a5afd8390b57d6b97e4f840a5bb9a110fecf27",
        "50a49572fd3ae500ce38bfe07c7b6e892c5d1444423d2fffd3fd8241c675af0c"),
    "l_shape": ("069919ba214c08af95d04e4ef3d192f65f89fdf87603203d43b4c514c8d527ea",
        "3b9cfe5a14ccfc51025d7e0efd7c1af5870c5320147d573311a6b100d40a6bc0"),
    "parallelogram_pi3": ("59a6da127805acab6ae3b9326cd1b49b0f437c0e652c9bacde2dc7fa238a79c5",
        "89117f379f820d324f6ccbf203f29b9cf28d60a3d9e5feb1b7b8d997fd4e7d5c"),
    "equilateral": ("d7a4176bc805fbf6aa1fb44d1d9b107821edcbbcbe502eda88d547123d78aa4a",
        "76ea878f2b271da44333d2af6016eaa5f25925faf67c200f999d2e5959612b92"),
    "isosceles_pi5": ("da675a596b800503ca8e030dedbd5cbecadbe9da973d6db7351b787c9340acd8",
        "f9223b03604cd29dd479a135455887d9fda69cfe813225227d14c6d28ddc97c4"),
    "broken_parallelogram": ("baa4b1fd861ef9a28b8954a87b8d3bc5463f9f08c7bd0db481db7f3dbcf6641f",
        "83b64e7ad37e1ae5b02df1e23a34896c879e67213baa52605ecffd8e016248d7"),
    "rectangle": ("d759d4b0d99aac3a66c9bc84aa17207630b7fd9c304ce0c237d0aead7a96c863",
        "d7eb7eaab13bc5c2eeabc636505b23ad934997606b388871e8f18dbd48b430e7"),
    # float frames (phi(4N) = 72 and 80 exceed EXACT_DEGREE_LIMIT), recorded
    # before the two frames shared one vector algebra
    "triangle_1_38": ("647012226777f18cfad79d5a9a7a04006807768294ff13ebb41a572bf0e32997",
        "ddb3da3e2be942b2bf3b5d8b012f29f7f2b3375b043ecf62d3dbbbb6e8207782"),
    "triangle_3_44": ("c729da596170a1b4aae84fd331cc0e68d98fa1bfb335509bbdde6b5d79ff03db",
        "d4caa1aeb65d89acf7d7d57f79fb3abe846f7192f0af9b0be842e107bdcd90b4"),
    # the 2000-image, genus-250 pattern, recorded before the basis became the
    # complement of a spanning tree
    "triangle_353_1000": ("92fef204ac591792c7f7457bedc02b9f27cad9cbdf6274a1eba046290a545517",
        "f21860510794d4df9fcf8a1de658c74846afaaec96bf50becbe4993cf46ee671"),
}
def _right_triangle(a: int, n: int):
    """The right triangle with angles (a/n, 1/2, 1/2 - a/n) pi and a unit first side."""
    angles = (Fraction(a, n), Fraction(1, 2), Fraction(1, 2) - Fraction(a, n))
    sides = [{"angle": str(angles[0]), "length": "1"}] + [{"angle": str(x)} for x in angles[1:]]
    return polygon_from_spec({"sides": sides})


SHAPES = {
    "square": shapes.square,
    "l_shape": shapes.l_shape,
    "parallelogram_pi3": shapes.parallelogram_pi3,
    "equilateral": shapes.equilateral,
    "isosceles_pi5": shapes.isosceles_pi5,
    "broken_parallelogram": shapes.broken_parallelogram,
    "rectangle": lambda: shapes.rectangle(3, 2),
    "triangle_1_38": lambda: _right_triangle(1, 38),
    "triangle_3_44": lambda: _right_triangle(3, 44),
    "triangle_353_1000": lambda: _right_triangle(353, 1000),
}


@pytest.mark.parametrize("name", sorted(UNFOLD_ANALYZE_SHA256))
def test_unfold_and_analyze_output_unchanged(name, capsys, monkeypatch):
    path = POLYGONS / name
    if name in SHAPES:
        monkeypatch.setattr(cli, "load_polygon", lambda _path: SHAPES[name]())
    got = []
    for command in ("unfold", "analyze"):
        code, out, _ = invoke(capsys, command, str(path))
        assert code == 0
        got.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(got) == UNFOLD_ANALYZE_SHA256[name]


# --------------------------------------------------------------------------
# quantize


def test_quantize_square(capsys):
    code, out, err = invoke(
        capsys, "quantize", str(POLYGONS / "square.json"), "--e-max", "60"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "level_index,m,n,kind,energy,degeneracy,flag"
    first = lines[1].split(",")
    assert math.isclose(float(first[4]), math.pi**2 / 2, rel_tol=1e-12)
    assert err == ""


def test_quantize_is_deterministic(capsys):
    args = ("quantize", str(POLYGONS / "parallelogram_2_3.json"), "--e-max", "500")
    _, first, _ = invoke(capsys, *args)
    _, second, _ = invoke(capsys, *args)
    assert first == second and first.count("\n") > 1


def test_quantize_irrational_without_cap(capsys):
    code, _, err = invoke(capsys, "quantize", str(POLYGONS / "isosceles_pi5.json"))
    assert code == 3
    assert "--rationalize" in err


def test_quantize_irrational_with_cap(capsys):
    code, out, err = invoke(
        capsys,
        "quantize",
        str(POLYGONS / "isosceles_pi5.json"),
        "--e-max",
        "100000",
        "--rationalize",
        "100",
    )
    assert code == 0
    assert "approximate" in err and "Q=100" in err
    assert out.splitlines()[0] == "level_index,m,n,kind,energy,degeneracy,flag"


# SHA-256 and line count of two rationalized spectra of the golden-ratio
# triangle, recorded while the substituted billiard was still assembled in
# `cmd_quantize` from the parent's basis
RATIONALIZED_SHA256 = {
    "5": ("6527ec039c2a7e0a9204e30401a2e003a111b55e82ec165b2612bd37faeb0a9f", 355),
    "10": ("c84525aea412cac565ec74d7b9a8af2c2b210ee8dbca5bc49a5b3c4689918398", 143),
}


@pytest.mark.parametrize("cap", sorted(RATIONALIZED_SHA256))
def test_quantize_rationalized_spectrum_unchanged(cap, capsys):
    code, out, _ = invoke(
        capsys,
        "quantize",
        str(POLYGONS / "isosceles_pi5.json"),
        "--rationalize",
        cap,
        "--e-max",
        "100000",
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (digest, out.count("\n")) == RATIONALIZED_SHA256[cap]


def test_quantize_unreachable_e_max_is_usage_error(capsys):
    # 2*e_max overflows, so the label range has no finite bound
    code, out, err = invoke(
        capsys, "quantize", str(POLYGONS / "square.json"), "--e-max", "1e308"
    )
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("a, n", [(1, 13000), (3, 2000)])
def test_quantize_momenta_past_float_range_are_usage_errors(a, n, tmp_path, capsys):
    # rationalized with Q = 100, the thin triangles' C1 and C2 run to 196
    # (1/13000) and 85 (3/2000) digits, and the momentum steps' squares
    # overflow a float: once an OverflowError, exit 1, or a NaN determinant
    # that read as "more levels than memory can hold" even at e_max 0.01
    path = tmp_path / "triangle.json"
    angles = (Fraction(a, n), Fraction(1, 2), Fraction(1, 2) - Fraction(a, n))
    sides = [{"angle": str(angles[0]), "length": "1"}] + [{"angle": str(x)} for x in angles[1:]]
    path.write_text(json.dumps({"sides": sides}))
    code, out, err = invoke(
        capsys, "quantize", str(path), "--rationalize", "100", "--e-max", "0.01"
    )
    assert code == 2
    assert out == ""
    assert "the lattice's momenta overflow a float" in err and "memory" not in err


def _overflow_l_shape(path: Path, digits: int = 200) -> str:
    """broken_rectangle_199_100.json with x2 = 2 - 10^-digits: C2 ~ 10^digits."""
    x2 = 2 - Fraction(1, 10**digits)
    lengths = [x2, 1, x2 - 1, 1, 1, 2]
    angles = ["1/2", "1/2", "3/2", "1/2", "1/2", "1/2"]
    sides = [{"angle": a, "length": str(x)} for a, x in zip(angles, lengths)]
    path.write_text(json.dumps({"sides": sides}))
    return str(path)


@pytest.mark.parametrize("digits, argv", [
    (200, ["swf", "{big}", "--grid", "4x4"]),
    (200, ["verify", "{big}", "--spacing", "1/8", "--count", "5"]),
    (200, ["verify", "{big}", "--against", "{small}", "--e-max", "100"]),
    (200, ["verify", "{small}", "--against", "{big}", "--e-max", "100"]),
    (400, ["swf", "{big}", "--grid", "4x4", "--labels", "1,0"]),
    (400, ["verify", "{big}", "--spacing", "1/8", "--count", "5"]),
])
def test_swf_and_verify_momenta_past_float_range_are_usage_errors(digits, argv, tmp_path,
                                                                   capsys, monkeypatch):
    # once exit 1, where quantize exits 2 with this message: an OverflowError
    # from the energy 0.5*|p|^2, or, with C2 past the float range, from the
    # momentum steps themselves
    names = {"big": _overflow_l_shape(tmp_path / "big.json", digits),
             "small": str(POLYGONS / "broken_rectangle.json")}
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke(capsys, *(a.format(**names) for a in argv))
    assert (code, out) == (2, "")
    assert f"the lattice's momenta overflow a float (C1 ~ 1e0, C2 ~ 1e{digits})" in err
    assert sorted(os.listdir(tmp_path)) == ["big.json"]


def test_swf_refuses_the_momentum_not_the_lattice(tmp_path, capsys, monkeypatch):
    # the labels (1, 0) step along P1 only, whose energy is a float
    big = _overflow_l_shape(tmp_path / "big.json")
    monkeypatch.chdir(tmp_path)
    code, out, _ = invoke(capsys, "swf", big, "--grid", "4x4", "--labels", "1,0")
    assert code == 5 and out.startswith("prescription 1/")
    assert sorted(os.listdir(tmp_path)) == ["big.json", "swf.csv", "swf.pgm"]


def test_lattice_consumers_decide_no_channel(tmp_path, capsys, monkeypatch):
    # quantize, swf and verify read only the basis vectors, never a kind: with
    # every channel decision made to fail they print what they print without
    commands = [
        ["quantize", str(POLYGONS / "square.json"), "--e-max", "200"],
        ["swf", str(POLYGONS / "square.json"), "--grid", "20x20",
         "--out-prefix", str(tmp_path / "wave")],
        ["verify", str(POLYGONS / "broken_rectangle_199_100.json"),
         "--against", str(POLYGONS / "broken_rectangle.json"), "--e-max", "50000",
         "--rel-tol", "1/99"],
    ]
    want = [invoke(capsys, *argv) for argv in commands]
    assert all(code == 0 and out for code, out, _ in want)

    def decide(epp, vector):
        raise AssertionError("a channel was decided")

    monkeypatch.setattr(unfold, "channel_exists", decide)
    assert [invoke(capsys, *argv) for argv in commands] == want


@pytest.mark.parametrize("kinds", ["aperiodic,periodic", "quantum"])
def test_quantize_astronomical_e_max_is_usage_error(kinds):
    # finite, but the label ellipse holds about 1e300 labels: no list can hold
    # them.  A child process, so that a hang fails the test instead of the run.
    proc = subprocess.run(
        [sys.executable, "-m", "polybilliard", "quantize", str(POLYGONS / "square.json"),
         "--e-max", "1e300", "--kinds", kinds],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "e_max" in proc.stderr


def test_quantize_with_quantum_kind(capsys):
    code, out, _ = invoke(
        capsys,
        "quantize",
        str(POLYGONS / "square.json"),
        "--e-max",
        "200",
        "--kinds",
        "aperiodic,periodic,quantum",
    )
    assert code == 0
    assert "quantum" in out


def test_quantize_bad_kind_is_usage_error(capsys):
    code, _, _ = invoke(
        capsys, "quantize", str(POLYGONS / "square.json"), "--kinds", "sideways"
    )
    assert code == 2


def test_quantize_to_file(tmp_path, capsys):
    target = tmp_path / "spec.csv"
    code, out, _ = invoke(
        capsys,
        "quantize",
        str(POLYGONS / "square.json"),
        "--e-max",
        "30",
        "--out",
        str(target),
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith("level_index,")


# --------------------------------------------------------------------------
# swf


def test_swf_square_ground(tmp_path, capsys):
    prefix = tmp_path / "wave"
    code, out, _ = invoke(
        capsys,
        "swf",
        str(POLYGONS / "square.json"),
        "--prescription",
        "1",
        "--labels",
        "1,1",
        "--grid",
        "40x40",
        "--out-prefix",
        str(prefix),
    )
    assert code == 0
    assert f"energy: {math.pi**2:.12g}" in out
    assert out.count("PASS") == 2
    csv = (tmp_path / "wave.csv").read_text()
    assert csv.splitlines()[0] == "x,y,re,im,abs2"
    assert len(csv.splitlines()) == 1 + 40 * 40
    pgm = (tmp_path / "wave.pgm").read_bytes()
    assert pgm.startswith(b"P5 40 40 255\n")


def test_swf_files_are_deterministic(tmp_path, capsys):
    args = lambda p: (
        "swf",
        str(POLYGONS / "broken_rectangle_3_2.json"),
        "--labels",
        "1,2",
        "--grid",
        "30x24",
        "--out-prefix",
        str(p),
    )
    assert invoke(capsys, *args(tmp_path / "a"))[0] == 0
    assert invoke(capsys, *args(tmp_path / "b"))[0] == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()


def test_swf_square_files_digest(tmp_path, capsys, monkeypatch):
    # the README quick-tour wave, written under the default prefix
    monkeypatch.chdir(tmp_path)
    code, _, _ = invoke(
        capsys, "swf", str(POLYGONS / "square.json"), "--labels", "1,2", "--grid", "200x200"
    )
    assert code == 0
    digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest("swf.csv") == "0bef2d9f987565eedd4d568ab6ec5b6e7be27c32540bb4d54cd698ccd80e719c"
    assert digest("swf.pgm") == "2697c972feb6698cba011defc108bda5e1578fe3ae83c09d8fe64bb145087312"


def test_swf_prescription_out_of_range(tmp_path, capsys):
    code, _, err = invoke(
        capsys,
        "swf",
        str(POLYGONS / "parallelogram_2_3.json"),
        "--prescription",
        "3",
        "--out-prefix",
        str(tmp_path / "w"),
    )
    assert code == 4
    assert "out of range" in err and "1..2" in err

    code, _, _ = invoke(
        capsys,
        "swf",
        str(POLYGONS / "parallelogram_2_3.json"),
        "--prescription",
        "0",
        "--out-prefix",
        str(tmp_path / "w"),
    )
    assert code == 4


def test_swf_zero_labels_is_input_error(tmp_path, capsys):
    code, _, err = invoke(
        capsys,
        "swf",
        str(POLYGONS / "square.json"),
        "--labels",
        "0,0",
        "--out-prefix",
        str(tmp_path / "w"),
    )
    assert code == 2
    assert "error:" in err


# --------------------------------------------------------------------------
# verify


def test_verify_square_against_fd(capsys):
    code, out, _ = invoke(
        capsys,
        "verify",
        str(POLYGONS / "square.json"),
        "--spacing",
        "1/32",
        "--count",
        "12",
        "--e-max",
        "40",
    )
    assert code == 0
    assert out.startswith("level_index,numerical_e,semiclassical_e,rel_error")
    assert "PASS" in out


def test_verify_absurd_tolerance_fails(capsys):
    code, out, _ = invoke(
        capsys,
        "verify",
        str(POLYGONS / "square.json"),
        "--spacing",
        "1/32",
        "--count",
        "12",
        "--e-max",
        "40",
        "--rel-tol",
        "1e-12",
    )
    assert code == 5
    assert "FAIL" in out


def test_verify_eigensolver_giving_up_exits_5(capsys, monkeypatch):
    # README's exit code 5: the FD eigensolver did not converge.  At 1/72
    # the square has 5041 unknowns, so the sparse ARPACK branch solves it
    import scipy.sparse.linalg

    def give_up(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", give_up)
    code, out, err = invoke(capsys, "verify", str(POLYGONS / "square.json"), "--spacing", "1/72")
    assert (code, out) == (5, "")
    assert "No convergence" in err


def test_verify_skewed_polygon_rejected(capsys):
    code, _, err = invoke(
        capsys, "verify", str(POLYGONS / "parallelogram_2_3.json")
    )
    assert code == 2
    assert "axis-aligned" in err


def test_verify_irrational_polygon(capsys):
    code, _, _ = invoke(capsys, "verify", str(POLYGONS / "isosceles_pi5.json"))
    assert code == 3


def test_verify_closed_form_pair(tmp_path, capsys):
    # the squeezed bay at x2 = 2 - 1/5 against the plain broken rectangle:
    # matched levels coincide exactly and only every fifth level is reached
    deformed = tmp_path / "squeezed.json"
    deformed.write_text(
        json.dumps(
            {
                "sides": [
                    {"angle": "1/2", "length": "9/5"},
                    {"angle": "1/2", "length": "1"},
                    {"angle": "3/2", "length": "4/5"},
                    {"angle": "1/2", "length": "1"},
                    {"angle": "1/2", "length": "1"},
                    {"angle": "1/2", "length": "2"},
                ]
            }
        )
    )
    code, out, _ = invoke(
        capsys,
        "verify",
        str(deformed),
        "--against",
        str(POLYGONS / "broken_rectangle.json"),
        "--e-max",
        "600",
        "--rel-tol",
        "1/4",
    )
    assert code == 0
    summary = next(l for l in out.splitlines() if l.startswith("spectrum match:"))
    max_err = float(summary.split("max_rel_err=")[1].split(",")[0])
    assert max_err < 1e-12
    assert "PASS" in summary


def test_verify_with_study(capsys):
    code, out, _ = invoke(
        capsys,
        "verify",
        str(POLYGONS / "broken_rectangle.json"),
        "--spacing",
        "1/16",
        "--count",
        "8",
        "--e-max",
        "25",
        "--study",
        "1/10,1/20",
        "--study-count",
        "4",
    )
    assert code == 0
    assert "epsilon,eta" in out
    assert "deformation bounds: PASS" in out
    assert "eta strictly decreasing with epsilon: yes" in out


STUDY_ARGV = (
    "verify",
    str(POLYGONS / "broken_rectangle.json"),
    "--spacing",
    "1/16",
    "--count",
    "8",
    "--e-max",
    "25",
    "--study",
    "1/10,1/20",
    "--study-count",
    "4",
)

STUDY_STDOUT = (
    "level_index,numerical_e,semiclassical_e,rel_error\n"
    "2,9.83793643355,9.86960440109,0.00320863595505\n"
    "spectrum match: 1 levels, max_rel_err=3.209e-03, mean_rel_err=3.209e-03, "
    "unmatched=0.875, tol=0.02 PASS\n"
    "epsilon,eta\n"
    "0.1,0.022741255222\n"
    "0.05,0.00101191226477\n"
    "deformation bounds: PASS\n"
    "eta strictly decreasing with epsilon: yes\n"
)


def test_verify_with_study_stdout_is_pinned(capsys):
    code, out, _ = invoke(capsys, *STUDY_ARGV)
    assert code == 0
    assert out == STUDY_STDOUT


@pytest.mark.parametrize(
    "flags",
    [
        ("--study-count", "0"),
        ("--study", "-1/10"),
        ("--study", "1/10,-1/20"),
        # a size the squeeze cannot make: the bay is only 1 wide
        ("--study", "2"),
    ],
)
def test_verify_bad_study_leaves_stdout_empty(capsys, flags):
    code, out, _ = invoke(capsys, *STUDY_ARGV, *flags)
    assert code == 2
    assert out == ""


def test_verify_against_billiard_without_levels(capsys):
    # the unit square's lowest level is pi^2 > 5
    square = str(POLYGONS / "square.json")
    code, out, err = invoke(
        capsys, "verify", square, "--against", square, "--e-max", "5"
    )
    assert code == 2
    assert out == ""
    assert "no closed-form level" in err


@pytest.mark.parametrize("against", [False, True])
def test_verify_astronomical_e_max_is_usage_error(against):
    # the product grid holds about 1e300 labels; it is bounded before any FD
    # solve.  A child process, so that a hang fails the test instead of the run.
    square = str(POLYGONS / "square.json")
    proc = subprocess.run(
        [sys.executable, "-m", "polybilliard", "verify", square, "--e-max", "1e300",
         *(["--against", square] if against else [])],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "e_max" in proc.stderr


def _cap_address_space(limit: int = 3 << 30):
    # a regressed child then stops at MemoryError instead of filling the host
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("command", ["quantize", "verify"])
def test_e_max_past_memory_is_usage_error(command):
    # about 1e17 labels: fewer than a list can index, more than memory holds,
    # whether the bound is physical memory or the child's address-space cap
    square = str(POLYGONS / "square.json")
    extra = ["--against", square] if command == "verify" else []
    proc = subprocess.run(
        [sys.executable, "-m", "polybilliard", command, square, "--e-max", "1e18", *extra],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=60,
        preexec_fn=_cap_address_space if os.name == "posix" else None,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "more levels below it than memory can hold" in proc.stderr


@pytest.mark.parametrize("argv, outputs", [
    (["swf", "square.json", "--grid", "100000x100000"], ["swf.csv", "swf.pgm"]),  # 160 GB of samples
    (["swf", "square.json", "--edge-samples", "10000000000"], ["swf.csv", "swf.pgm"]),  # 160 GB
    (["verify", "square.json", "--spacing", "1/200000", "--out", "match.csv"], ["match.csv"]),  # 320 GB
])
def test_sizes_past_memory_are_usage_errors(tmp_path, argv, outputs):
    # refused up front, past physical memory and past the child's
    # address-space cap alike: nothing printed, no file made or truncated
    (tmp_path / "square.json").write_text((POLYGONS / "square.json").read_text())
    (tmp_path / outputs[0]).write_text("kept\n")
    proc = subprocess.run(
        [sys.executable, "-m", "polybilliard", *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=CHILD_ENV,
        timeout=60,
        preexec_fn=_cap_address_space if os.name == "posix" else None,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "than memory can hold" in proc.stderr
    assert (tmp_path / outputs[0]).read_text() == "kept\n"
    assert not any((tmp_path / name).exists() for name in outputs[1:])


def test_unfolding_past_memory_is_usage_error(tmp_path):
    # triangle 1/10^10 unfolds into 2*10^10 images: refused past physical
    # memory before its frame's unit table is built, not a MemoryError
    spec = tmp_path / "thin.json"
    spec.write_text(json.dumps({"sides": [
        {"angle": "1/10000000000", "length": "1"}, {"angle": "1/2"}, {"angle": "4999999999/10000000000"},
    ]}))
    proc = subprocess.run(
        [sys.executable, "-m", "polybilliard", "analyze", str(spec)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=60,
        preexec_fn=_cap_address_space if os.name == "posix" else None,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "than memory can hold" in proc.stderr


@pytest.mark.skipif(os.name != "posix", reason="address-space limits are POSIX")
def test_unfolding_past_an_address_space_cap_is_usage_error(tmp_path):
    # triangle 1/10^8: its frame's 2*10^8 unit vectors, some 8 GB, can fit
    # physical memory but not a 2 GB address space, where it once died with
    # MemoryError, exit 1; the refusal reads the soft cap too
    spec = tmp_path / "thin.json"
    spec.write_text(json.dumps({"sides": [
        {"angle": "1/100000000", "length": "1"}, {"angle": "1/2"}, {"angle": "49999999/100000000"},
    ]}))
    proc = subprocess.run(
        [sys.executable, "-m", "polybilliard", "analyze", str(spec)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=60,
        preexec_fn=functools.partial(_cap_address_space, 2_000_000 << 10),  # ulimit -v 2000000
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "than memory can hold" in proc.stderr


@pytest.mark.skipif(os.name != "posix", reason="address-space limits are POSIX")
def test_grid_past_an_address_space_cap_is_usage_error():
    # spacing 1/10000 puts 10^8 nodes on the square: at 8 B a node the
    # refusal let it through a 2 GB address space, where building the grid
    # died with MemoryError, exit 1; the refusal counts what rasterize holds
    proc = subprocess.run(
        [sys.executable, "-m", "polybilliard", "verify", str(POLYGONS / "square.json"),
         "--spacing", "1/10000"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=60,
        preexec_fn=functools.partial(_cap_address_space, 2 << 30),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "more grid nodes on the polygon than memory can hold" in proc.stderr


@pytest.mark.skipif(os.name != "posix", reason="address-space limits are POSIX")
def test_fd_operator_past_an_address_space_cap_is_usage_error():
    # spacing 1/2500 puts 6.25*10^6 nodes on the square: the raster fits a
    # 1.5 GB address space, but building the FD operator from it died with
    # MemoryError, exit 1; the builder counts what it takes before it builds
    proc = subprocess.run(
        [sys.executable, "-m", "polybilliard", "verify", str(POLYGONS / "square.json"),
         "--spacing", "1/2500"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=60,
        preexec_fn=functools.partial(_cap_address_space, 1_500_000 << 10),  # ulimit -v 1500000
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "builds an FD operator larger than memory can hold" in proc.stderr


@pytest.mark.skipif(os.name != "posix", reason="address-space limits are POSIX")
def test_lu_factor_past_an_address_space_cap_is_usage_error():
    # spacing 1/1500 puts 2.25*10^6 unknowns on the square: the raster and
    # the FD operator fit a 1.5 GB address space, but SuperLU's factor of it
    # does not, and its failed allocation was a RuntimeError traceback, exit 1
    proc = subprocess.run(
        [sys.executable, "-m", "polybilliard", "verify", str(POLYGONS / "square.json"),
         "--spacing", "1/1500"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=60,
        preexec_fn=functools.partial(_cap_address_space, 1_500_000 << 10),  # ulimit -v 1500000
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "sparse LU factor larger than memory can hold" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_neumann_study_is_refused(capsys):
    # the study solves Dirichlet walls whatever --bc says
    code, out, err = invoke(capsys, *STUDY_ARGV, "--bc", "neumann")
    assert code == 2
    assert out == ""
    assert "Dirichlet walls only" in err


def test_verify_without_levels_skips_the_solver(capsys, monkeypatch):
    def never(*_args, **_kwargs):
        raise AssertionError("the solver ran although no level is in range")

    monkeypatch.setattr(cli, "rasterize", never)
    monkeypatch.setattr(cli, "fd_eigenvalues", never)
    # the unit square's lowest level is pi^2 > 1
    code, out, err = invoke(
        capsys, "verify", str(POLYGONS / "square.json"), "--e-max", "1", "--count", "30"
    )
    assert code == 2
    assert out == ""
    assert "no closed-form level below the numerical reach" in err


# --------------------------------------------------------------------------
# rationalize


def test_rationalize_sqrt_two(capsys):
    code, out, err = invoke(capsys, "rationalize", "1.4142135623730951")
    assert code == 0
    assert out.splitlines()[0] == "99/70"
    assert "denominator cap 100" in err


def test_rationalize_fraction_input(capsys):
    code, out, _ = invoke(
        capsys, "rationalize", "99/70", "--max-denominator", "100"
    )
    assert code == 0
    assert out.splitlines()[0] == "99/70"


def test_rationalize_small_cap(capsys):
    code, out, _ = invoke(
        capsys, "rationalize", "1.4142135623730951", "--max-denominator", "5"
    )
    assert code == 0
    assert out.splitlines()[0] == "7/5"


@pytest.mark.parametrize(
    "argv",
    [
        ("quantize", "square.json", "--e-max", "inf"),
        ("quantize", "square.json", "--max-ratio", "nan"),
        ("verify", "square.json", "--e-max", "inf"),
        ("swf", "square.json", "--tol", "nan"),
        ("swf", "square.json", "--tol", "0"),
        ("swf", "square.json", "--tol", "-1"),
        ("verify", "square.json", "--rel-tol", "-1"),
        ("verify", "square.json", "--rel-tol", "0"),
        ("verify", "square.json", "--rel-tol", "-0.5"),
        ("verify", "square.json", "--rel-tol", "-1/99"),
        ("verify", "square.json", "--spacing", "-1/64"),
        ("swf", "square.json", "--edge-samples", "0"),
        ("quantize", "square.json", "--max-ratio", "-1"),
        ("quantize", "square.json", "--rationalize", "-3"),
        ("quantize", "square.json", "--rationalize", "1"),
        ("verify", "square.json", "--count", "0"),
        ("rationalize", "1.5", "--max-denominator", "1"),
        ("rationalize", "inf"),
        ("rationalize", "1e400"),
        ("rationalize", "nan"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_non_finite_value_is_usage_error(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # swf writes its files to the working directory
    command, *rest = argv
    if command != "rationalize":
        rest[0] = str(POLYGONS / rest[0])
    code, out, err = invoke(capsys, command, *rest)
    assert code == 2
    assert out == ""
    assert "error" in err
    assert repr(argv[-1]) in err  # the message names the refused value
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [("-1/2",), ("--", "-1/2")], ids=" ".join)
def test_rationalize_negative_fraction(argv, capsys):
    code, out, _ = invoke(capsys, "rationalize", *argv)
    assert code == 0
    assert out == "-1/2\n"


def test_rationalize_garbage(capsys):
    assert invoke(capsys, "rationalize", "not-a-number")[0] == 2


# --------------------------------------------------------------------------
# process-level behaviour


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "polybilliard", "--help"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    for name in ("analyze", "unfold", "quantize", "swf", "verify", "rationalize"):
        assert name in proc.stdout


def test_missing_subcommand_is_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "polybilliard"], capture_output=True, text=True, env=CHILD_ENV
    )
    assert proc.returncode == 2


def test_exit_codes_from_subprocess(tmp_path):
    base = [sys.executable, "-m", "polybilliard"]
    ok = subprocess.run(
        base + ["analyze", str(POLYGONS / "square.json")], capture_output=True, env=CHILD_ENV
    )
    assert ok.returncode == 0
    drpb = subprocess.run(
        base + ["quantize", str(POLYGONS / "isosceles_pi5.json")],
        capture_output=True,
        env=CHILD_ENV,
    )
    assert drpb.returncode == 3


def test_quantize_bytes_identical_across_processes():
    cmd = [
        sys.executable,
        "-m",
        "polybilliard",
        "quantize",
        str(POLYGONS / "broken_rectangle.json"),
        "--e-max",
        "120",
    ]
    first = subprocess.run(cmd, capture_output=True, env=CHILD_ENV).stdout
    second = subprocess.run(cmd, capture_output=True, env=CHILD_ENV).stdout
    assert first == second and first.startswith(b"level_index,")


def test_thread_env_var_accepted(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "polybilliard", "analyze", str(POLYGONS / "square.json")],
        capture_output=True,
        env=THREAD_ENV,
    )
    assert proc.returncode == 0


# Records OPENBLAS_NUM_THREADS as it stands when numpy is first imported,
# then runs a command that needs numpy.
_THREAD_PROBE = """
import os, sys

seen = []

def hook(event, args):
    if event == "import" and args[0] == "numpy" and not seen:
        seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.addaudithook(hook)
from polybilliard import cli

code = cli.run(["verify", sys.argv[1], "--spacing", "1/16", "--count", "5"])
print(code, seen)
"""


def test_thread_cap_set_before_numpy_loads():
    proc = subprocess.run(
        [sys.executable, "-c", _THREAD_PROBE, str(POLYGONS / "square.json")],
        capture_output=True,
        text=True,
        env=THREAD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 ['1']"


# Runs every command that needs no numerics in one interpreter, its output
# discarded, then reports the exit codes and whether numpy got loaded.
_NO_NUMPY_PROBE = """
import contextlib, io, sys
from polybilliard import cli

polygons = sys.argv[1]
commands = (
    ["analyze", polygons + "/broken_rectangle.json"],
    ["unfold", polygons + "/equilateral.json"],
    ["quantize", polygons + "/square.json", "--kinds", "aperiodic,periodic,quantum"],
    ["rationalize", "1.4142135623730951"],
)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.run(argv) for argv in commands]
print(codes, "numpy" in sys.modules)
"""


def test_commands_without_numerics_never_load_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_PROBE, str(POLYGONS)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] False"


# `verify --against` compares two closed-form spectra and solves nothing, so
# it must not pay scipy's import.
_NO_SCIPY_PROBE = """
import contextlib, io, sys
from polybilliard import cli

polygons = sys.argv[1]
argv = ["verify", polygons + "/broken_rectangle_3_2.json",
        "--against", polygons + "/broken_rectangle.json", "--e-max", "200"]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(argv)
print(code, "numpy" in sys.modules, "scipy" in sys.modules)
"""


def test_verify_against_never_loads_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_PROBE, str(POLYGONS)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 True False"
