import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from curvedq.cli import UsageError, build_parser, emit, run
from curvedq.torus import TorusProblem

GOLDEN = Path(__file__).parent / "golden"


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_magic_subcommand(capsys):
    code, out, _ = _run(capsys, ["magic", "--nu", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"nu": 1, "laplacian": 0.5, "hermitian": 0.4472}


def test_magic_rejects_nu_zero(capsys):
    code, out, err = _run(capsys, ["magic", "--nu", "0"])
    assert code == 1
    assert out == ""
    assert "nu" in err


def test_spectrum_json_roundtrip_and_determinism(capsys):
    argv = ["spectrum", "--alpha", "1/3", "--nu", "0", "--formulation", "hermitian", "--states", "3"]
    code, first, _ = _run(capsys, argv)
    assert code == 0
    payload = json.loads(first)
    assert payload["alpha"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert payload["formulation"] == "hermitian"
    assert payload["states"][0]["beta"] == 0.0
    assert payload["states"][0]["parity"] == "even"
    assert payload["states"][0]["coeffs"][0] == pytest.approx(0.4078, abs=1e-4)
    code, second, _ = _run(capsys, argv)
    assert first == second


def test_spectrum_reports_alpha_to_twelve_significant_digits(capsys):
    for text, reported in (("1e-13", 1e-13), ("1/30", 0.0333333333333), ("1/3", 0.333333333333)):
        code, out, _ = _run(capsys, ["spectrum", "--alpha", text, "--states", "1"])
        assert code == 0
        assert json.loads(out)["alpha"] == reported, text


def test_spectrum_csv_header(capsys):
    code, out, _ = _run(capsys, ["spectrum", "--alpha", "0.4", "--states", "2", "--format", "csv"])
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith("beta,parity,c0,c1,")


def _listed_states(out, fmt):
    """(beta, parity) of each state a spectrum output lists."""
    if fmt == "json":
        return [(s["beta"], s["parity"]) for s in json.loads(out)["states"]]
    return [(float(line.split(",")[0]), line.split(",")[1]) for line in out.splitlines()[1:]]


def test_spectrum_lists_every_degenerate_pair_odd_first(capsys):
    argv = ["spectrum", "--alpha", "0.9", "--formulation", "hermitian"]
    for fmt in ("json", "csv"):
        code, out, _ = _run(capsys, argv + ["--format", fmt])
        assert code == 0
        states = _listed_states(out, fmt)
        assert [beta for beta, _ in states] == [0.0, 1.0, 1.0, 4.0, 4.0, 9.0, 9.0, 16.0], fmt
        assert [parity for _, parity in states[1:]] == ["odd", "even"] * 3 + ["odd"], fmt


def test_spectrum_golden_file(capsys):
    argv = ["spectrum", "--alpha", "0.9", "--formulation", "hermitian", "--format", "csv"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert out == (GOLDEN / "spectrum_hermitian_0_9.csv").read_text(encoding="utf-8")


def test_spectrum_alpha_out_of_range(capsys):
    code, out, err = _run(capsys, ["spectrum", "--alpha", "2"])
    assert code == 1
    assert out == ""
    assert "alpha" in err


def test_spectrum_rejects_states_below_one(tmp_path, capsys):
    for states in ("0", "-1"):
        code, out, err = _run(capsys, ["spectrum", "--alpha", "0.5", "--states", states])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--states" in err and err.count("\n") == 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"states": 0}), encoding="utf-8")
    code, out, err = _run(capsys, ["spectrum", "--alpha", "0.5", "--config", str(cfg)])
    assert (code, out) == (1, "")
    assert "--states" in err


def test_negative_digits_rejected(tmp_path, capsys):
    for argv in (
        ["spectrum", "--alpha", "0.5", "--digits", "-2"],
        ["compare", "--alpha", "1/2", "--digits", "-1"],
        ["magic", "--nu", "1", "--digits", "-1"],
        ["curvature", "--torus", "3", "1", "--digits", "-1"],
    ):
        code, out, err = _run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--digits" in err and err.count("\n") == 1
    cfg = tmp_path / "cfg.json"
    for digits in (-2, "4", 4.0):
        cfg.write_text(json.dumps({"digits": digits}), encoding="utf-8")
        code, out, err = _run(capsys, ["magic", "--nu", "1", "--config", str(cfg)])
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "--digits" in err
    assert _run(capsys, ["magic", "--nu", "1", "--digits", "0"])[0] == 0


def test_curvature_rejects_points_below_one(capsys):
    for points in ("0", "-3"):
        code, out, err = _run(capsys, ["curvature", "--torus", "3", "1", "--points", points])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--points" in err and err.count("\n") == 1
    code, out, _ = _run(capsys, ["curvature", "--torus", "3", "1", "--points", "1"])
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_check_refuses_vacuous_samples_bad_seed_and_alpha(capsys):
    for argv, flag in (
        (["check", "--samples", "0"], "--samples"),
        (["check", "--samples", "-5"], "--samples"),
        (["check", "--seed", "-1"], "--seed"),
        (["check", "--alpha", "0"], "--alpha"),
        (["check", "--alpha", "1"], "--alpha"),
        (["check", "--alpha", "2"], "--alpha"),
        (["check", "--alpha=-1/2"], "--alpha"),
    ):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error:") and flag in err and err.count("\n") == 1, argv


def test_config_values_of_the_wrong_type_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for settings, argv, flag in (
        ({"samples": "x"}, ["check"], "--samples"),
        ({"seed": 1.5}, ["check"], "--seed"),
        ({"alpha": "1/2"}, ["check"], "--alpha"),
        ({"nmax": "30"}, ["spectrum", "--alpha", "0.5"], "--nmax"),
        ({"nquad": 128.0}, ["spectrum", "--alpha", "0.5"], "--nquad"),
        ({"nmax": "30"}, ["compare", "--alpha", "1/2"], "--nmax"),
        ({"q": "0.1"}, ["curvature", "--torus", "3", "1"], "--q"),
        ({"wmin": "0.1", "wmax": 1.0}, ["curvature", "--torus", "3", "1"], "--wmin"),
        ({"wmin": 0.1, "wmax": [1.0]}, ["curvature", "--torus", "3", "1"], "--wmax"),
        ({"formulation": "dirac"}, ["spectrum", "--alpha", "0.5"], "--formulation"),
        ({"points": 2.0}, ["curvature", "--torus", "3", "1"], "--points"),
        ({"states": "2"}, ["spectrum", "--alpha", "0.5"], "--states"),
        ({"nu": 1.5}, ["spectrum", "--alpha", "0.5"], "--nu"),
        ({"q": float("nan")}, ["curvature", "--torus", "3", "1"], "--q"),
        ({"wmin": 0.0, "wmax": float("inf")}, ["curvature", "--torus", "3", "1"], "--wmax"),
    ):
        cfg.write_text(json.dumps(settings), encoding="utf-8")
        code, out, err = _run(capsys, argv + ["--config", str(cfg)])
        assert (code, out) == (1, ""), settings
        assert err.startswith("error:") and flag in err and err.count("\n") == 1, settings
    cfg.write_text(json.dumps({"q": 0, "wmin": 0, "wmax": 1}), encoding="utf-8")
    code, out, _ = _run(capsys, ["curvature", "--torus", "3", "1", "--points", "2", "--config", str(cfg)])
    assert code == 0 and len(out.strip().splitlines()) == 3


def test_config_that_is_not_a_readable_json_object_exits_1(tmp_path, capsys):
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]", encoding="utf-8")
    for path, message in (
        (listed, "config must be a JSON object, got list"),
        (tmp_path / "missing.json", "cannot read config"),
    ):
        code, out, err = _run(capsys, ["magic", "--nu", "1", "--config", str(path)])
        assert (code, out) == (1, ""), path
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


def test_config_format_outside_the_choices_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for fmt in ("xml", "table", ["json"]):
        cfg.write_text(json.dumps({"format": fmt}), encoding="utf-8")
        for argv in (
            ["spectrum", "--alpha", "0.5"],
            ["magic", "--nu", "1"],
            ["check", "--samples", "1"],
            ["curvature", "--torus", "3", "1", "--points", "2"],
            ["compare", "--alpha", "1/2", "--nmax", "2", "--nquad", "16"],
        ):
            if fmt == "table" and argv[0] in ("curvature", "compare"):
                continue  # a valid choice there
            code, out, err = _run(capsys, argv + ["--config", str(cfg)])
            assert (code, out) == (1, ""), (fmt, argv)
            assert err.startswith("error:") and "--format" in err and err.count("\n") == 1, (fmt, argv)
    cfg.write_text(json.dumps({"format": "csv"}), encoding="utf-8")
    code, out, _ = _run(capsys, ["spectrum", "--alpha", "0.5", "--states", "1", "--config", str(cfg)])
    assert code == 0 and out.startswith("beta,parity,")


def test_config_booleans_refused_as_numbers(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for settings, argv, flag in (
        ({"samples": True}, ["check"], "--samples"),
        ({"seed": False}, ["check", "--samples", "1"], "--seed"),
        ({"digits": True}, ["magic", "--nu", "1"], "--digits"),
        ({"alpha": True}, ["check", "--samples", "1"], "--alpha"),
        ({"q": True}, ["curvature", "--torus", "3", "1"], "--q"),
        ({"wmin": False, "wmax": 1.0}, ["curvature", "--torus", "3", "1"], "--wmin"),
        ({"nu": True}, ["spectrum", "--alpha", "0.5"], "nu"),
    ):
        cfg.write_text(json.dumps(settings), encoding="utf-8")
        code, out, err = _run(capsys, argv + ["--config", str(cfg)])
        assert (code, out) == (1, ""), settings
        assert err.startswith("error:") and flag in err and err.count("\n") == 1, settings


def _python(*args):
    """A fresh interpreter with the checkout's src/ on the path, so stderr shows
    everything a user sees, warnings included."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_cli_import_leaves_scipy_unloaded():
    proc = _python("-c", "import curvedq.cli, sys; print('scipy' in sys.modules)")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


def test_tiny_alpha_spectrum_writes_nothing_to_stderr():
    # R = 1/alpha = 1e300: a2**2 would overflow, so the frame and c0 never form it
    proc = _python("-m", "curvedq.cli", "spectrum", "--alpha", "1e-300", "--nu", "2", "--states", "1")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["states"][0]["beta"] == -0.25


def test_infinite_major_radius_refused():
    # 1/1e-320 overflows to inf, which passes 0 < a < R
    for argv in (["spectrum", "--alpha", "1e-320"], ["check", "--alpha", "1e-320", "--samples", "1"]):
        proc = _python("-m", "curvedq.cli", *argv)
        assert (proc.returncode, proc.stdout) == (1, ""), argv
        assert proc.stderr.startswith("error:") and "finite" in proc.stderr, argv
        assert proc.stderr.count("\n") == 1, argv


def test_usage_errors_exit_2(capsys):
    assert _run(capsys, [])[0] == 2
    assert _run(capsys, ["bogus"])[0] == 2
    assert _run(capsys, ["spectrum"])[0] == 2  # --alpha required
    assert _run(capsys, ["spectrum", "--alpha", "0.5", "--formulation", "dirac"])[0] == 2
    assert _run(capsys, ["compare", "--alpha", "abc"])[0] == 2
    assert _run(capsys, ["check", "--digits", "3"])[0] == 2


def test_numbers_past_the_float_range_are_usage_errors(capsys):
    for argv in (
        ["compare", "--alpha", "1e400"],
        ["curvature", "--torus", "3", "1", "--wmin", "0", "--wmax", "1e400"],
        ["spectrum", "--alpha=-1e400"],
    ):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert "not a finite number or fraction: '" in err and "Traceback" not in err, argv


def test_nquad_default_follows_nmax(tmp_path, capsys):
    def n_quad(argv):
        code, out, _ = _run(capsys, ["spectrum", "--alpha", "0.5", "--states", "1"] + argv)
        assert code == 0, argv
        return json.loads(out)["n_quad"]

    assert n_quad([]) == 128
    assert n_quad(["--nmax", "30"]) == 128
    assert n_quad(["--nmax", "48"]) == 200
    assert n_quad(["--nmax", "48", "--nquad", "256"]) == 256
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nmax": 40}), encoding="utf-8")
    assert n_quad(["--config", str(cfg)]) == 168
    assert _run(capsys, ["compare", "--alpha", "1/2", "--nmax", "40"])[0] == 0
    code, out, err = _run(capsys, ["spectrum", "--alpha", "0.5", "--nmax", "48", "--nquad", "128"])
    assert (code, out) == (1, "")
    assert "n_quad must be >= 4*n_max + 8 = 200" in err


def test_library_n_quad_default_matches_cli(capsys):
    for n_max, expected in ((24, 128), (30, 128), (48, 200)):
        code, out, _ = _run(capsys, ["spectrum", "--alpha", "0.5", "--states", "1", "--nmax", str(n_max)])
        assert code == 0
        assert TorusProblem(0.5, 0, "laplacian", n_max=n_max).n_quad == json.loads(out)["n_quad"] == expected


def test_help_exits_zero(capsys):
    assert _run(capsys, ["--help"])[0] == 0


def test_curvature_torus_csv(capsys):
    code, out, _ = _run(capsys, ["curvature", "--torus", "3", "1", "--points", "4", "--digits", "6"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "w,Z,k1,k2,h,k,V_C,F"
    assert len(lines) == 5
    first = [float(x) for x in lines[1].split(",")]
    assert first == pytest.approx([0.0, 1.0, 1.0, 0.25, 0.625, 0.25, -9.0 / 128.0, 1.0], abs=1e-6)


def test_curvature_shape_logs_canonical_form(capsys):
    code, out, err = _run(
        capsys,
        ["curvature", "--shape", "sqrt(4 - rho^2)", "--wmin", "0.2", "--wmax", "1.8", "--points", "3"],
    )
    assert code == 0
    assert "shape: sqrt(4.0-rho^2.0)" in err
    rows = out.strip().splitlines()[1:]
    for row in rows:
        vals = dict(zip("w Z k1 k2 h k V_C F".split(), (float(x) for x in row.split(","))))
        assert vals["k1"] == pytest.approx(0.5, abs=1e-4)
        assert vals["V_C"] == pytest.approx(0.0, abs=1e-12)


def test_curvature_shape_file(tmp_path, capsys):
    path = tmp_path / "shape.txt"
    path.write_text("0.75*rho\n", encoding="utf-8")
    code, out, _ = _run(
        capsys,
        ["curvature", "--shape-file", str(path), "--wmin", "1.0", "--wmax", "2.0", "--points", "2"],
    )
    assert code == 0
    row = [float(x) for x in out.strip().splitlines()[1].split(",")]
    assert row[2] == pytest.approx(0.0, abs=1e-15)  # k1 of a cone
    assert row[3] == pytest.approx(-0.75 / math.sqrt(1.5625), rel=1e-10)


def test_curvature_requires_a_surface(capsys):
    code, _, err = _run(capsys, ["curvature", "--wmin", "0", "--wmax", "1"])
    assert code == 2
    assert "usage" in err.lower()


def test_curvature_refuses_a_half_given_or_missing_range(capsys):
    for argv, message in (
        (["--torus", "3", "1", "--wmin", "0.1"], "give both --wmin and --wmax, or neither"),
        (["--shape", "rho"], "--wmin and --wmax are required for a shape-function surface"),
    ):
        code, out, err = _run(capsys, ["curvature"] + argv)
        assert (code, out) == (2, ""), argv
        assert f"usage error: {message}" in err, argv


def test_curvature_focal_error_exit_1(capsys):
    code, _, err = _run(capsys, ["curvature", "--torus", "3", "1", "--q", "-1"])
    assert code == 1
    assert "focal" in err


def test_curvature_non_finite_literal_exit_1(capsys):
    code, out, err = _run(capsys, ["curvature", "--shape=1e400+rho^2", "--wmin", "0.2", "--wmax", "1"])
    assert code == 1 and out == ""
    assert err == "error: syntax error at offset 0: expected a finite number; found '1e400'\n"


def test_curvature_golden_files(capsys):
    for tag, shape, wmin, wmax in (
        ("cubic", "0.1+0.2*rho+-0.3*rho^2+0.4*rho^3", "0.2", "1.8"),
        ("hemisphere", "sqrt(4-rho^2)", "0", "1.9"),
    ):
        argv = ["curvature", f"--shape={shape}", "--wmin", wmin, "--wmax", wmax, "--points", "50"]
        code, out, _ = _run(capsys, argv + ["--format", "csv", "--digits", "12"])
        assert code == 0
        assert out == (GOLDEN / f"curvature_{tag}.csv").read_text(encoding="utf-8")


def test_compare_golden_files(capsys):
    for tag, alpha in (("1_3", "1/3"), ("1_2", "1/2"), ("2_3", "2/3")):
        code, out, _ = _run(capsys, ["compare", "--alpha", alpha])
        assert code == 0
        assert out == (GOLDEN / f"compare_{tag}.txt").read_text(encoding="utf-8")


def test_compare_header_keeps_four_significant_digits_of_alpha(capsys):
    fast = ["--nmax", "2", "--nquad", "16"]
    for argv, want in (
        (["--alpha", "0.3", "--digits", "0"], "alpha = 0.3 (0.3000)"),
        (["--alpha", "1/2", "--digits", "0"], "alpha = 1/2 (0.5000)"),
        (["--alpha", "1/3", "--digits", "6"], "alpha = 1/3 (0.333333)"),
        (["--alpha", "0.00123456"], "alpha = 0.00123456 (0.001235)"),
        (["--alpha", "1e-300"], "alpha = 1e-300 (0." + "0" * 299 + "1000)"),
    ):
        code, out, _ = _run(capsys, ["compare"] + argv + fast)
        assert code == 0, argv
        assert out.splitlines()[0] == want


def test_compare_csv(capsys):
    code, out, _ = _run(capsys, ["compare", "--alpha", "1/2", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "formulation,beta,nu,parity,basis,b1,b2,b3"
    assert len(lines) == 7
    assert lines[1].startswith("laplacian,-0.3512,0,even,cos")


def test_output_file(tmp_path, capsys):
    target = tmp_path / "magic.json"
    code, out, _ = _run(capsys, ["magic", "--nu", "2", "-o", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["laplacian"] == 0.25


def test_output_path_that_cannot_be_opened_exits_1(tmp_path, capsys):
    for target in (tmp_path, tmp_path / "missing" / "magic.json"):
        code, out, err = _run(capsys, ["magic", "--nu", "2", "-o", str(target)])
        assert code == 1 and out == "", target
        assert err.startswith("error:") and err.count("\n") == 1 and str(target) in err, err
    assert not (tmp_path / "missing").exists()


def test_config_file_defaults_and_flag_priority(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"states": 2, "digits": 6}), encoding="utf-8")
    code, out, _ = _run(capsys, ["spectrum", "--alpha", "0.5", "--config", str(cfg)])
    assert code == 0
    assert len(json.loads(out)["states"]) == 2
    code, out, _ = _run(
        capsys, ["spectrum", "--alpha", "0.5", "--config", str(cfg), "--states", "1"]
    )
    assert len(json.loads(out)["states"]) == 1
    cfg.write_text(json.dumps({"nmax": 10, "states": 1}), encoding="utf-8")
    code, out, _ = _run(capsys, ["spectrum", "--alpha", "0.5", "--config", str(cfg)])
    assert code == 0 and json.loads(out)["n_max"] == 10
    code, out, _ = _run(capsys, ["spectrum", "--alpha", "0.5", "--config", str(cfg), "--nmax", "12"])
    assert code == 0 and json.loads(out)["n_max"] == 12
    cfg.write_text(json.dumps({"format": "csv", "states": 1}), encoding="utf-8")
    code, out, _ = _run(capsys, ["spectrum", "--alpha", "0.5", "--config", str(cfg)])
    assert code == 0 and out.startswith("beta,parity,")
    code, out, _ = _run(capsys, ["spectrum", "--alpha", "0.5", "--config", str(cfg), "--format", "json"])
    assert code == 0 and len(json.loads(out)["states"]) == 1
    torus = ["curvature", "--torus", "3", "1", "--points", "1", "--format", "json"]
    cfg.write_text(json.dumps({"q": 0.1}), encoding="utf-8")
    code, out, _ = _run(capsys, torus + ["--config", str(cfg)])
    assert code == 0 and json.loads(out)["q"] == 0.1
    code, out, _ = _run(capsys, torus + ["--config", str(cfg), "--q", "0.2"])
    assert code == 0 and json.loads(out)["q"] == 0.2


def test_config_keys_that_are_not_settings_ignored(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    target = tmp_path / "never.txt"
    for settings, argv in (
        ({"torus": [5, 1]}, ["curvature", "--torus", "3", "1", "--points", "2"]),
        ({"shape": "rho"}, ["curvature", "--torus", "3", "1", "--points", "2"]),
        ({"output": str(target)}, ["magic", "--nu", "1"]),
        ({"alpha": 0.3}, ["spectrum", "--alpha", "0.5", "--states", "1"]),
        ({"bogus": [1]}, ["compare", "--alpha", "1/2", "--nmax", "2", "--nquad", "16"]),
        ({"digits": "x"}, ["check", "--samples", "1"]),
    ):
        cfg.write_text(json.dumps(settings), encoding="utf-8")
        plain = _run(capsys, argv)
        assert plain[0] == 0
        assert _run(capsys, argv + ["--config", str(cfg)]) == plain, settings
    assert not target.exists()
    cfg.write_text(json.dumps({"alpha": 0.5}), encoding="utf-8")
    assert _run(capsys, ["spectrum", "--config", str(cfg)])[0] == 2  # --alpha required


def test_check_subcommand(capsys):
    code, out, _ = _run(capsys, ["check", "--samples", "8", "--seed", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["cancellation"]["max_limit_residual"] <= 1e-12
    assert payload["cancellation"]["max_full_q_residual"] <= 1e-12
    herm = payload["hermiticity"]
    assert herm["constructed_momentum_max_residual"] <= 1e-10
    assert herm["naive_momentum_residual"] >= 0.1
    assert herm["ordering_selfadjointness_defect"]["sandwich"] <= 1e-9
    assert herm["ordering_selfadjointness_defect"]["left"] >= 1e-2


def test_check_ordering_defects_are_exact(capsys):
    # (c2 weight)' is taken from the frame, so the self-adjoint ordering reads rounding only
    code, out, _ = _run(capsys, ["check", "--samples", "1"])
    assert code == 0
    defect = json.loads(out)["hermiticity"]["ordering_selfadjointness_defect"]
    assert defect["sandwich"] <= 1e-14
    assert defect["left"] == 1.371533


def test_emit_determinism():
    payload = {"b": 1, "a": [1.5, 2.25]}
    assert emit(payload, "json") == emit(payload, "json")
    table = (["x", "y"], [[1.0, -2.345678], [3.0, 4.0]])
    assert emit(table, "csv", 3) == emit(table, "csv", 3)
    assert emit(table, "csv", 3) == "x,y\n1.000,-2.346\n3.000,4.000\n"


def test_emit_refuses_an_unknown_format_before_reading_the_payload():
    for payload in ({"a": 1}, (["x"], [[1.0]])):
        with pytest.raises(UsageError, match="unknown format 'xml'"):
            emit(payload, "xml")


def test_emit_negative_zero_normalized():
    assert emit((["v"], [[-1e-9]]), "csv", 4) == "v\n0.0000\n"
    assert emit((["v"], [[-1e-9], [-0.0], [-0.6], [0.4]]), "csv", 0) == "v\n0\n0\n-1\n0\n"
    assert emit((["v"], [[-1e-9]]), "table", 0) == "v\n0\n"


def test_digits_zero_prints_no_negative_zero(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"digits": 0}), encoding="utf-8")
    curvature = ["curvature", "--shape=rho^2", "--wmin", "0", "--wmax", "1", "--points", "3", "--digits", "0"]
    for argv in (
        curvature + ["--format", "csv"],
        curvature + ["--format", "table"],
        ["compare", "--alpha", "1/2", "--config", str(cfg)],
        ["compare", "--alpha", "1/2", "--config", str(cfg), "--format", "csv"],
    ):
        code, out, _ = _run(capsys, argv)
        assert code == 0, argv
        cells = out.replace(",", " ").split()
        assert "0" in cells and "-0" not in cells, (argv, out)


def test_parser_builds():
    parser = build_parser()
    ns = parser.parse_args(["spectrum", "--alpha", "1/3"])
    assert ns.alpha == pytest.approx(1.0 / 3.0)
