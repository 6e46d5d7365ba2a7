"""End-to-end checks of the qfisher command line front end.

Everything drives cli.main() in-process except the entry-point checks: one
test confirms that ``[project.scripts]`` in pyproject.toml maps ``qfisher`` to
a callable and runs ``python -m qfisher --version`` as a separate process, so
it needs no installed package; another runs the installed ``qfisher`` wrapper
the same way and is skipped where no such executable is on PATH. Exit code
contract: 0 bounds hold, 2 a bound is violated, 64 configuration error,
1 crash.
"""

import argparse
import contextlib
import dataclasses
import importlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import qfisher
from qfisher import cli, zoo
from qfisher.cli import COMMANDS, build_parser, main
from qfisher.densities import tsallis_entropy
from qfisher.grid import GridDensity, GridSpec
from qfisher.version import __version__

SUMMARY_KEYS = {
    "tool_version",
    "subcommand",
    "config_echo",
    "tolerances",
    "results",
    "exit_status",
    "warnings",
}


def _summary(out_dir, name):
    with open(out_dir / name) as fh:
        return json.load(fh)


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def _assert_prints_version(cmd, env=None):
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"qfisher {__version__}"


def test_console_script_installed():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["qfisher"]
    assert target == "qfisher.cli:entry"
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr))

    _assert_prints_version([sys.executable, "-m", "qfisher", "--version"], env=_child_env())


def _child_env() -> dict:
    """Environment in which a child process imports the same qfisher as this test,
    however pytest was started."""
    package_root = str(Path(qfisher.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_warnings_print_one_line_each_and_are_listed_in_the_summary(tmp_path):
    # a Laplace box of half-width 12 leaves boundary density 3.1e-6, which warns
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "qfisher", "fisher", "--family", "laplace", "--half-width",
         "12", "--grid-points", "2048", "--out-dir", str(out)],
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert ".py:" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert lines and all(line.startswith("warning: BoundaryMassWarning: ") for line in lines)
    listed = _summary(out, "fisher_summary.json")["warnings"]
    assert [w["category"] for w in listed] == ["BoundaryMassWarning"] * len(lines)
    assert [f"warning: {w['category']}: {w['message']}" for w in listed] == lines
    assert all(w["count"] >= 1 for w in listed)


@pytest.mark.skipif(shutil.which("qfisher") is None, reason="qfisher console script not installed")
def test_installed_console_script_wrapper():
    _assert_prints_version(["qfisher", "--version"])


def test_missing_subcommand_is_config_error(capsys):
    assert main([]) == 64


def test_unknown_flag_is_config_error(capsys):
    assert main(["fisher", "--no-such-flag", "1"]) == 64


def _parse_output(run, argv):
    """(exit code, stdout, stderr) of one call of `run` on argv: the code it
    exits with or, if it returns, what it returns."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# per subcommand: a value its parser refuses (a bad choice where it has one)
BAD_VALUE = {
    "divergence": ["--beta", "x"],
    "fisher": ["--family", "nope"],
    "qcr-check": ["--density", "nope"],
    "minimize": ["--init", "nope"],
    "debruijn": ["--points", "1.5"],
    "uncertainty": ["--psi", "nope"],
}


@pytest.mark.parametrize("subcommand", sorted(COMMANDS))
def test_one_subcommand_parser_reads_like_the_full_parser(subcommand):
    # main, given one subcommand's argv, prints what the full parser prints
    # and maps argparse's usage-error exit 2 to 64
    full = build_parser()
    for argv in ([subcommand, "--help"], [subcommand, "--bogus"],
                 [subcommand, *BAD_VALUE[subcommand]]):
        expected = _parse_output(full.parse_args, argv)
        assert expected[0] in (0, 2) and expected[1] + expected[2]
        code, out, err = _parse_output(main, argv)
        assert (out, err) == expected[1:]
        assert code == (64 if expected[0] else 0)


def test_parser_is_built_once_per_process(tmp_path, monkeypatch):
    assert build_parser() is build_parser()
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    argv = ["divergence", "--grid-points", "64", "--out-dir", str(tmp_path / "out")]
    build_parser.cache_clear()
    assert main(argv) == 0
    assert built  # the first call builds the parser and its subparsers
    built.clear()
    assert main(argv) == 0
    assert built == []


@pytest.mark.parametrize("argv", [
    ["fisher", "--grid", "1025", "--half", "10"],
    ["minimize", "--dens", "x.json", "--it", "3"],
], ids=["fisher", "minimize"])
def test_abbreviated_flags_are_refused(tmp_path, capsys, argv):
    # each key has one flag; a prefix of it is no second spelling
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 64
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert not out.exists()


def test_top_level_help_and_version_are_unchanged(capsys):
    assert main(["--help"]) == 0
    listing = capsys.readouterr().out
    assert all(name in listing for name in COMMANDS)
    assert listing == build_parser().format_help()
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"qfisher {__version__}\n"


@pytest.mark.parametrize("subcommand", sorted(COMMANDS))
def test_every_default_config_passes_strict(tmp_path, subcommand):
    # --strict turns every hygiene warning into an error (exit 1)
    assert main([subcommand, "--strict", "--out-dir", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("subcommand,module,name,key", [
    ("fisher", "fisher", "LIMIT_CAUCHY_TOL", "limit_cauchy_tol"),
    ("qcr-check", "cramer_rao", "FIELD_FIT_TOL", "saturation_rel"),
    ("uncertainty", "cramer_rao", "SATURATION_REL_TOL", "saturation_rel"),
])
def test_summary_tolerance_is_the_constant_applied(tmp_path, monkeypatch, subcommand, module,
                                                   name, key):
    mod = importlib.import_module(f"qfisher.{module}")
    out = tmp_path / "default"
    assert main([subcommand, "--out-dir", str(out)]) == 0
    summary_name = f"{subcommand.replace('-', '_')}_summary.json"
    assert _summary(out, summary_name)["tolerances"][key] == getattr(mod, name)
    # the summary follows the constant the library reads, not a copy of it
    monkeypatch.setattr(mod, name, 0.02)
    out = tmp_path / "patched"
    assert main([subcommand, "--out-dir", str(out)]) == 0
    assert _summary(out, summary_name)["tolerances"][key] == 0.02


def test_fisher_box_is_sized_per_family(tmp_path):
    boxes = {}
    for name, family, extra in [("gauss", "gauss", []), ("laplace", "laplace", []),
                                ("laplace12", "laplace", ["--half-width", "12"])]:
        out = tmp_path / name
        assert main(["fisher", "--family", family, *extra, "--out-dir", str(out)]) == 0
        summary = _summary(out, "fisher_summary.json")
        echo = summary["config_echo"]
        boxes[name] = (echo["half_width"], echo["grid_points"], summary["results"]["value"])
    assert boxes["gauss"][:2] == (12.0, 2048)
    assert boxes["laplace"][:2] == (24.0, 4096)
    # a flag sets its own key only; the other keeps the family's size
    assert boxes["laplace12"][:2] == (12.0, 4096)
    # the smoothed kink (eps = 0.005) keeps I just under the Laplace value 1
    assert boxes["laplace"][2] == pytest.approx(0.99075, abs=1e-5)


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta": 2.0, "betaa": 3.0}))
    out = tmp_path / "out"
    rc = main(["divergence", "--config", str(cfg), "--out-dir", str(out)])
    assert rc == 64
    assert "betaa" in capsys.readouterr().err
    assert not out.exists()  # rejected before any artifact is written


def test_malformed_json_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    out = tmp_path / "out"
    assert main(["divergence", "--config", str(cfg), "--out-dir", str(out)]) == 64
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_config_subcommand_mismatch_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "fisher"}))
    assert main(["qcr-check", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 64


def test_type_errors_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    for bad in ({"grid_points": 2.5}, {"grid_points": True}, {"beta": "two"}):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        assert main(["divergence", "--config", str(cfg), "--out-dir", str(out)]) == 64
    assert not out.exists()


def test_domain_errors_rejected_before_output(tmp_path, capsys):
    out = tmp_path / "out"
    # conjugate exponent undefined at alpha <= 1
    assert main(["qcr-check", "--alpha", "0.5", "--out-dir", str(out)]) == 64
    # q-Gaussian shape parameters outside the admissible set
    assert main(["fisher", "--family", "qgauss", "--alpha", "0.5", "--out-dir", str(out)]) == 64
    # one schema rule of each kind: positive count, bound to exceed, count >= 0
    for argv, key in ((["divergence", "--grid-points", "0"], "grid_points"),
                      (["fisher", "--beta", "1"], "beta"),
                      (["debruijn", "--snap-every", "-1"], "snap_every")):
        capsys.readouterr()
        assert main(argv + ["--out-dir", str(out)]) == 64
        assert f"key '{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["fisher", "--family", "qgauss", "--alpha", "0.5"], ["alpha"]),
        # a compact-support family has infinite chi^beta to its shifts
        (["fisher", "--family", "qgauss", "--q", "1.5"], ["q"]),
        (["qcr-check", "--gamma", "-1"], ["gamma"]),
        # the schema rule on q stands in front of the minimizer's own check
        (["minimize", "--q", "0"], ["q"]),
        (["uncertainty", "--gamma", "1"], ["gamma"]),
        (["uncertainty", "--q", "0.4"], ["q", "beta"]),
        # k(1-q) = 49: the saturating psi's scale 1e-9^(-k(1-q)) overflows
        (["uncertainty", "--psi", "qgauss", "--q", "0.51"], ["q", "beta"]),
    ],
    ids=["fisher", "fisher-compact", "qcr-check", "minimize", "uncertainty",
         "uncertainty-joint", "uncertainty-saturating-overflow"],
)
def test_parameter_errors_name_their_config_keys(tmp_path, capsys, argv, keys):
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("config error: key")
    assert re.findall(r"'(\w+)'", err) == keys
    assert not out.exists()


def test_qcr_check_builds_the_qgauss_params_once(tmp_path, monkeypatch):
    built = []
    post_init = qfisher.QGaussianParams.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(qfisher.QGaussianParams, "__post_init__", counted)
    assert main(["qcr-check", "--density", "qgauss", "--out-dir", str(tmp_path / "out")]) == 0
    assert len(built) == 1


@pytest.mark.parametrize("strict, rc", [("false", 64), (False, 0), (True, 1)])
def test_config_file_strict_must_be_boolean(tmp_path, capsys, strict, rc):
    cfg = tmp_path / "cfg.json"
    # a Laplace box of half-width 12 leaves boundary density 3.1e-6, which warns
    cfg.write_text(json.dumps({"strict": strict, "half_width": 12.0, "grid_points": 2048}))
    out = tmp_path / "out"
    assert main(["fisher", "--family", "laplace", "--config", str(cfg),
                 "--out-dir", str(out)]) == rc
    err = capsys.readouterr().err
    if rc == 64:
        assert "key 'strict'" in err
        assert not out.exists()
    elif rc == 0:  # main records the warning, prints it and lists it in the summary
        assert "warning: BoundaryMassWarning: boundary density" in err
        listed = _summary(out, "fisher_summary.json")["warnings"]
        assert any(w["category"] == "BoundaryMassWarning" for w in listed)
    else:  # like --strict: the boundary warning becomes an error
        assert "boundary" in err


@pytest.mark.parametrize(
    "argv, config, key",
    [
        (["divergence"], '{"grid_points": Infinity}', "grid_points"),
        (["divergence"], '{"beta": NaN}', "beta"),
        (["divergence"], '{"beta": 1' + "0" * 400 + "}", "beta"),
        (["minimize", "--tol", "inf"], None, "tol"),
        (["debruijn", "--t-final", "inf"], None, "t_final"),
    ],
    ids=["config-inf-int", "config-nan", "config-int-past-float", "flag-inf-tol",
         "flag-inf-t-final"],
)
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, argv, config, key):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 64
    assert f"key '{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["divergence", "--grid-points", "1", "--factor", "1"],
        ["fisher", "--grid-points", "1"],
        ["qcr-check", "--grid-points", "1"],
        ["minimize", "--grid-points", "1"],
        ["uncertainty", "--grid-points", "1"],
        ["debruijn", "--points", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_single_point_grid_is_config_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 64
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand, key", [("fisher", "family"), ("qcr-check", "density"),
                        ("minimize", "init"), ("uncertainty", "psi")]
)
def test_config_file_choice_rejected(tmp_path, capsys, subcommand, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: "bogus"}))
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out-dir", str(out)]) == 64
    assert f"key '{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("q, half", [("0.8", "2"), ("1.5", "0.5")])
def test_qcr_check_box_too_small_is_typed_refusal(tmp_path, capsys, q, half):
    out = tmp_path / "out"
    assert main(["qcr-check", "--q", q, "--half-width", half, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid half-extent")
    assert not out.exists()


def _box_density_file(tmp_path, values):
    """A density on [-10, 10] at 513 points, as a `--density-file`."""
    grid = GridSpec.line(-10.0, 10.0, 513)
    path = tmp_path / "density.json"
    GridDensity.from_values(grid, values(grid.axes()[0]), check_boundary=False).save_json(path)
    return path


FILE_FLAGS = {"qcr-check": ["--density", "file", "--density-file"],
              "minimize": ["--init", "file", "--density-file"],
              "uncertainty": ["--psi", "file", "--psi-file"]}
MALFORMED_DENSITY_FILES = {
    "json-array": [0.0, 1.0, 0.0],
    "non-numeric-lo": {"lo": ["a"], "hi": [1.0], "points": [5], "values": [0, 1, 1, 1, 0]},
    "scalar-lo-hi": {"lo": -1.0, "hi": 1.0, "points": [5], "values": [0, 1, 1, 1, 0]},
    "fractional-points": {"lo": [-1.0], "hi": [1.0], "points": [3.5], "values": [0, 1, 0]},
}


@pytest.mark.parametrize("content", MALFORMED_DENSITY_FILES.values(), ids=MALFORMED_DENSITY_FILES)
@pytest.mark.parametrize("subcommand", FILE_FLAGS)
def test_malformed_density_files_are_config_errors(tmp_path, capsys, subcommand, content):
    # the first three crashed with a TypeError (exit 1), and 3.5 points ran on
    # a grid cut to 3 points (exit 0)
    path = tmp_path / "density.json"
    path.write_text(json.dumps(content))
    out = tmp_path / "out"
    assert main([subcommand, *FILE_FLAGS[subcommand], str(path), "--out-dir", str(out)]) == 64
    assert capsys.readouterr().err.startswith(f"config error: could not parse density file {path}: ")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["qcr-check", "--config", "{missing}"], "config file not found: {missing}"),
    (["fisher", "--config", "{array}"], "config file must hold a flat JSON object"),
    (["qcr-check", "--density", "file"], "key 'density_file' must name a file when density = file"),
    (["minimize", "--init", "file"], "key 'density_file' must name a file when init = file"),
    (["uncertainty", "--psi", "file"], "key 'psi_file' must name a file when psi = file"),
    (["qcr-check", "--density", "file", "--density-file", "{missing}"],
     "key 'density_file' names a file that is not found: {missing}"),
    (["uncertainty", "--psi", "file", "--psi-file", "{missing}"],
     "key 'psi_file' names a file that is not found: {missing}"),
    (["divergence", "--grid-points", "100", "--factor", "3"],
     "keys 'grid_points' and 'factor' must make grid_points a multiple of factor, got 100 and 3"),
    (["debruijn", "--t-burn", "0.3", "--t-final", "0.2"],
     "keys 't_burn' and 't_final' must satisfy 0 <= t_burn < t_final, got 0.3 and 0.2"),
], ids=["missing-config", "array-config", "density-no-path", "init-no-path", "psi-no-path",
        "missing-density-file", "missing-psi-file", "factor", "t-burn"])
def test_config_errors_exit_64_before_any_output(tmp_path, capsys, argv, message):
    paths = {"missing": tmp_path / "missing.json", "array": tmp_path / "array.json"}
    paths["array"].write_text("[1, 2]")
    out = tmp_path / "out"
    assert main([a.format(**paths) for a in argv] + ["--out-dir", str(out)]) == 64
    assert capsys.readouterr().err == f"config error: {message.format(**paths)}\n"
    assert not out.exists()


@pytest.mark.parametrize("points, factor, status, message", [
    (4, 4, 64, "config error: keys 'grid_points' and 'factor' must leave at least 2 coarse "
               "points, got 4 and 4"),
    (16, 8, 1, "error: coarse-graining by factor 8 moves the trapezoid mass -5.000e-01 from 1"),
    (40, 8, 1, "error: coarse-graining by factor 8 moves the trapezoid mass -1.709e-06 from 1"),
    (96, 32, 1, "error: coarse-graining by factor 32 moves the trapezoid mass -3.116e-02 from 1"),
])
def test_divergence_on_too_few_coarse_points_is_refused(tmp_path, capsys, points, factor,
                                                         status, message):
    # each exited 1 with an internal ValueError: a one-point coarse axis, or
    # a coarse trapezoid mass that the unnormalized constructor refused
    out = tmp_path / "out"
    argv = ["divergence", "--grid-points", str(points), "--factor", str(factor)]
    assert main(argv + ["--out-dir", str(out)]) == status
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("values", [np.ones_like, lambda x: np.exp(-0.02 * x * x)],
                         ids=["flat", "wide-gaussian"])
def test_qcr_check_mass_at_the_box_ends_is_too_coarse_not_a_violation(tmp_path, capsys, values):
    # the P1 product pays nothing for the cut at the box ends: lhs 0 and
    # 0.9302, which used to exit 2 although the inequality holds
    path = _box_density_file(tmp_path, values)
    argv = ["qcr-check", "--density", "file", "--density-file", str(path)]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("error: boundary density") and "--half-width" in err[0]
    assert not (tmp_path / "out").exists()
    params = cli._resolve_config(build_parser().parse_args(argv), cli.SCHEMAS["qcr-check"])
    with pytest.raises(qfisher.errors.GridTooCoarse), pytest.warns(qfisher.errors.TruncationWarning):
        cli.cmd_qcr_check(params)


def test_box_end_refusal_names_the_remedy_that_fits_the_input():
    # a generated input is rebuilt on a wider box by --half-width; a file
    # brings its own grid, which that flag does not change
    values = np.ones(9)
    with pytest.raises(qfisher.errors.GridTooCoarse) as built:
        cli._bound_status(-1.0, values, 1e-10, "density", from_file=False)
    assert str(built.value) == (
        "boundary density 1.000e+00 exceeds 1e-10 x max, so the product misses the cut at "
        "the box ends; rerun on a wider box (--half-width)")
    with pytest.raises(qfisher.errors.GridTooCoarse) as loaded:
        cli._bound_status(-1.0, values, 1e-10, "density", from_file=True)
    assert str(loaded.value).endswith(
        "the file's own grid cuts it there (--half-width does not apply to a file); "
        "save it on a wider box")


@pytest.mark.parametrize("argv", [["qcr-check", "--density", "file", "--density-file"],
                                  ["uncertainty", "--psi", "file", "--psi-file"]],
                         ids=["qcr-check", "uncertainty"])
def test_file_inputs_cut_at_the_box_ends_are_told_to_widen_the_file(tmp_path, capsys, argv):
    path = _box_density_file(tmp_path, np.ones_like)
    assert main(argv + [str(path), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: boundary ")
    assert "the file's own grid cuts it there" in err and "rerun on a wider box" not in err


def test_qcr_check_resolved_tails_still_pass(tmp_path):
    # exp(-x^2/18) carries mass 4e-3 x max at the box ends, with a margin >= 0
    path = _box_density_file(tmp_path, lambda x: np.exp(-x * x / 18.0))
    out = tmp_path / "out"
    assert main(["qcr-check", "--density", "file", "--density-file", str(path),
                 "--out-dir", str(out)]) == 0


def test_qcr_check_violation_on_a_compact_input_still_exits_2(tmp_path, monkeypatch):
    # a q-Gaussian vanishing at the box ends, whose check is made to fail
    def low(*args):
        return dataclasses.replace(qfisher.q_cr_check(*args), lhs=0.5, margin=-0.5)

    monkeypatch.setattr(cli, "q_cr_check", low)
    out = tmp_path / "out"
    assert main(["qcr-check", "--out-dir", str(out)]) == 2
    assert _summary(out, "qcr_check_summary.json")["results"]["margin"] == -0.5


def test_uncertainty_flat_psi_is_too_coarse_not_a_violation(tmp_path, capsys):
    # lhs 0: the transform of the flat nodes is a spike at frequency 0, while
    # the cut at the box ends makes the continuum product infinite
    path = _box_density_file(tmp_path, np.ones_like)
    out = tmp_path / "out"
    assert main(["uncertainty", "--psi", "file", "--psi-file", str(path),
                 "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: boundary |psi|")
    assert not out.exists()


def test_uncertainty_violation_on_a_compact_input_still_exits_2(tmp_path, monkeypatch):
    # a compact-support q-Gaussian psi, whose check is made to fail
    def low(*args):
        return dataclasses.replace(check(*args), lhs=0.5, margin=-0.5)

    check = cli.uncertainty.uncertainty_check
    monkeypatch.setattr(cli.uncertainty, "uncertainty_check", low)
    out = tmp_path / "out"
    assert main(["uncertainty", "--psi", "qgauss", "--q", "1.2", "--out-dir", str(out)]) == 2
    assert _summary(out, "uncertainty_summary.json")["results"]["margin"] == -0.5


@pytest.mark.parametrize("amplitude", [1e-3, 1e-4])
def test_uncertainty_nyquist_ripple_is_too_coarse(tmp_path, capsys, amplitude):
    # |psi| = exp(-x^2/2), clean at the box ends, times a (-1)^i ripple
    grid = GridSpec.line(-8.0, 8.0, 1024)
    (x,) = grid.axes()
    psi = np.exp(-x * x / 2.0) * (1.0 + amplitude * (-1.0) ** np.arange(x.size))
    path = tmp_path / "psi.json"
    GridDensity.from_values(grid, psi**2).save_json(path)
    out = tmp_path / "out"
    assert main(["uncertainty", "--psi", "file", "--psi-file", str(path),
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: transform L2 norm") and "Nyquist" in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["fisher", "minimize"])
def test_line_only_subcommands_take_no_p(tmp_path, capsys, subcommand):
    # both run on a line, where ||x||_p = |x| for every p
    out = tmp_path / "out"
    assert main([subcommand, "--p", "3", "--out-dir", str(out)]) == 64
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 3.0}))
    capsys.readouterr()
    assert main([subcommand, "--config", str(cfg), "--out-dir", str(out)]) == 64
    assert "unknown config keys: p" in capsys.readouterr().err
    assert not out.exists()


def test_qcr_check_p_changes_the_bound_on_a_2d_density_file(tmp_path):
    qp = qfisher.QGaussianParams(q=1.5, alpha=2.0, gamma=1.0, dims=2)
    half = qfisher.suggested_half_extent(qp)
    path = tmp_path / "density.json"
    qfisher.make_q_gaussian(qp, GridSpec.box(-half, half, 81, 2)).save_json(path)
    lhs = {}
    for p in ("2", "3"):
        out = tmp_path / f"out-p{p}"
        main(["qcr-check", "--density", "file", "--density-file", str(path), "--p", p,
              "--out-dir", str(out)])
        lhs[p] = _summary(out, "qcr_check_summary.json")["results"]["lhs"]
    # the q-Gaussian is built on the 2-norm, so p = 2 sits at the bound 2 and
    # p = 3 above it
    assert lhs["2"] == pytest.approx(2.0, abs=5e-3)
    assert lhs["3"] - lhs["2"] > 2e-2


def test_flag_overrides_config_overrides_default(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"subcommand": "qcr-check", "q": 1.5, "density": "mixture",
                    "grid_points": 513, "half_width": 10.0})
    )
    out = tmp_path / "out"
    rc = main(["qcr-check", "--config", str(cfg), "--q", "1.2", "--out-dir", str(out)])
    assert rc == 0
    echo = _summary(out, "qcr_check_summary.json")["config_echo"]
    assert echo["q"] == 1.2  # flag beats config
    assert echo["grid_points"] == 513  # config beats default
    assert echo["alpha"] == 2.0  # untouched default
    assert echo["out_dir"] == str(out)


def test_divergence_summary_contract(tmp_path):
    out = tmp_path / "out"
    rc = main(["divergence", "--grid-points", "256", "--factor", "4", "--seed", "3",
               "--out-dir", str(out)])
    assert rc == 0
    s = _summary(out, "divergence_summary.json")
    assert set(s) == SUMMARY_KEYS
    assert s["tool_version"] == __version__
    assert s["subcommand"] == "divergence"
    assert s["exit_status"] == 0
    assert s["results"]["monotonicity_margin"] >= -1e-9
    assert s["results"]["value"] >= s["results"]["coarse_value"] - 1e-9


# every subcommand at a small config, with every output file it can write
SMALL_RUNS = {
    "divergence": ["--grid-points", "256", "--seed", "11"],
    "fisher": ["--family", "qgauss", "--q", "0.8", "--grid-points", "512"],
    "qcr-check": ["--density", "mixture", "--grid-points", "513"],
    "minimize": ["--grid-points", "129"],
    "debruijn": ["--points", "256", "--t-final", "0.04", "--t-burn", "0.01", "--n-checks", "2",
                 "--snap-every", "1"],
    "uncertainty": ["--psi", "qgauss", "--q", "1.2", "--grid-points", "513"],
}


def _output_files(out) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_seeded_runs_are_byte_identical(tmp_path):
    for name, flags in SMALL_RUNS.items():
        out = tmp_path / name
        argv = [name, *flags, "--out-dir", str(out)]
        assert main(argv) == 0, name
        first = _output_files(out)
        assert main(argv) == 0, name
        assert _output_files(out) == first, name


@pytest.mark.parametrize("name, flags", [
    ("minimize", SMALL_RUNS["minimize"]),
    ("debruijn", [*SMALL_RUNS["debruijn"][:-1], "2"]),
    ("qcr-check", SMALL_RUNS["qcr-check"]),
], ids=["minimize", "debruijn-snap-every-2", "qcr-check"])
def test_reruns_over_longer_stale_files_leave_the_bytes_of_a_fresh_run(tmp_path, monkeypatch,
                                                                       name, flags):
    # outputs are rewritten in place and trimmed, never truncated to zero
    # first; one directory throughout, since the summary echoes --out-dir
    out = tmp_path / "out"
    argv = [name, *flags, "--out-dir", str(out)]
    assert main(argv) == 0
    expected = _output_files(out)
    shutil.rmtree(out)
    out.mkdir()
    for file, data in expected.items():
        (out / file).write_bytes(b"stale\n" * (len(data) // 5 + 10))
    opened = {}
    real_open = os.open

    def recording_open(file, flag, *args, **kwargs):
        opened.setdefault(Path(file).name, []).append(flag)
        return real_open(file, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    for _ in range(2):
        assert main(argv) == 0
        assert _output_files(out) == expected
    # every output, the summary included, goes through the one writer
    assert sorted(opened) == sorted(expected)
    assert not any(f & os.O_TRUNC for flags in opened.values() for f in flags)


@pytest.mark.parametrize("subcommand", ["minimize", "debruijn"])
def test_csv_files_have_lf_line_ends(tmp_path, subcommand):
    out = tmp_path / "out"
    assert main([subcommand, *SMALL_RUNS[subcommand], "--out-dir", str(out)]) == 0
    tables = {name: data for name, data in _output_files(out).items() if name.endswith(".csv")}
    assert tables
    for name, data in tables.items():
        assert b"\r" not in data and data.endswith(b"\n"), name


# the files beside the summary that each SMALL_RUNS config writes
OUTPUT_FILES = {
    "divergence": [],
    "fisher": [],
    "qcr-check": [],
    "minimize": ["minimize_final_density.json", "minimize_trace.csv"],
    "debruijn": ["debruijn_series.csv", "debruijn_snapshot_000.json",
                 "debruijn_snapshot_001.json"],
    "uncertainty": [],
}


def test_each_subcommand_writes_exactly_its_files(tmp_path):
    for name, flags in SMALL_RUNS.items():
        out = tmp_path / name
        assert main([name, *flags, "--out-dir", str(out)]) == 0, name
        summary = name.replace("-", "_") + "_summary.json"
        assert sorted(p.name for p in out.iterdir()) == sorted([summary, *OUTPUT_FILES[name]])


def test_qcr_check_default_saturates(tmp_path):
    out = tmp_path / "out"
    assert main(["qcr-check", "--out-dir", str(out)]) == 0
    s = _summary(out, "qcr_check_summary.json")
    assert s["config_echo"]["q"] == 1.5 and s["config_echo"]["alpha"] == 2.0
    assert s["results"]["saturated"] is True
    assert abs(s["results"]["margin"]) < 1e-5
    assert s["results"]["lhs"] == pytest.approx(s["results"]["rhs"], rel=1e-4)


def test_fisher_gaussian_defaults(tmp_path):
    out = tmp_path / "out"
    assert main(["fisher", "--grid-points", "1025", "--half-width", "10",
                 "--out-dir", str(out)]) == 0
    res = _summary(out, "fisher_summary.json")["results"]
    assert res["value"] == pytest.approx(1.0, rel=1e-6)
    assert res["family_value"] == pytest.approx(1.0, rel=1e-6)
    assert res["limit_check"]["converged"] is True
    assert res["limit_check"]["limit"] == pytest.approx(1.0, rel=1e-6)
    assert res["matrix"][0][0] == pytest.approx(1.0, rel=1e-6)


def test_minimize_writes_trace_and_density(tmp_path):
    out = tmp_path / "out"
    rc = main(["minimize", "--grid-points", "257", "--iters", "2000", "--tol", "1e-3",
               "--out-dir", str(out)])
    assert rc == 0
    s = _summary(out, "minimize_summary.json")
    assert s["results"]["converged"] is True
    assert 1.0 - 1e-6 <= s["results"]["final_objective"] <= 1.0 + 1e-2

    trace = (out / "minimize_trace.csv").read_text().splitlines()
    assert trace[0] == "iter,objective"
    assert len(trace) - 1 == s["results"]["n_iters"] + 1  # trace includes iter 0
    assert (out / "minimize_final_density.json").is_file()
    # every objective evaluation is the start's, an accepted step's or a
    # rejected line-search trial's
    c = s["results"]["counters"]
    assert set(c) == {"evaluations", "rejected_trials"}
    assert c["evaluations"] > 1 + s["results"]["n_iters"] > 1
    assert c["evaluations"] <= 1 + s["results"]["n_iters"] + c["rejected_trials"]


@pytest.mark.parametrize("flags, converged", [
    (["--q", "1.0"], True),
    (["--grid-points", "1025"], True),
    # a tolerance below the 257-point discretization floor: a reported stall
    # above the bound, not a violation
    (["--grid-points", "257", "--tol", "1e-12", "--iters", "6000"], False),
], ids=["q1.0", "n1025", "n257-tol1e-12"])
def test_minimize_ends_above_the_bound(tmp_path, flags, converged):
    out = tmp_path / "out"
    assert main(["minimize", *flags, "--out-dir", str(out)]) == 0
    r = _summary(out, "minimize_summary.json")["results"]
    assert r["converged"] is converged
    assert r["stalled"] is not converged
    assert 1.0 <= r["final_objective"] <= 1.0 + 1e-3


@pytest.mark.parametrize("flags, reason", [
    ([], "tol"),
    (["--tol", "1e-12", "--iters", "6000"], "stall"),
    (["--iters", "3"], "max_iters"),
])
def test_minimize_summary_says_why_it_stopped(tmp_path, flags, reason):
    out = tmp_path / "out"
    assert main(["minimize", "--grid-points", "257", *flags, "--out-dir", str(out)]) == 0
    r = _summary(out, "minimize_summary.json")["results"]
    assert r["stop_reason"] == reason
    assert r["converged"] is (reason == "tol") and r["stalled"] is (reason == "stall")
    assert 0 <= r["dilations"] <= r["n_iters"]
    if reason == "max_iters":
        assert r["n_iters"] == 3


@pytest.mark.parametrize("points", ["2", "3"])
def test_minimize_on_a_grid_with_no_room_is_a_typed_error(tmp_path, capsys, points):
    # the descent holds both end nodes at 0: two points leave no mass, and
    # three leave one node at the origin, whose alpha-moment no fit can match
    rc = main(["minimize", "--grid-points", points, "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_debruijn_conserves_mass_with_boundary_mass(tmp_path):
    # the start carries mass at the box ends; the end nodes' half-width
    # control volumes keep the trapezoid mass exact along the flow
    out = tmp_path / "out"
    rc = main(["debruijn", "--m", "1.5", "--beta", "1.5", "--points", "255", "--half-width", "4",
               "--sigma0", "0.8", "--t-final", "0.05", "--n-checks", "2", "--out-dir", str(out)])
    assert rc == 0


def test_debruijn_fine_grid_passes(tmp_path):
    out = tmp_path / "out"
    rc = main(["debruijn", "--points", "1024", "--sigma0", "0.3", "--half-width", "3",
               "--t-final", "0.05", "--n-checks", "3", "--t-burn", "0.01",
               "--out-dir", str(out)])
    assert rc == 0
    s = _summary(out, "debruijn_summary.json")
    assert s["results"]["worst_rel_err"] <= 2e-2
    lines = (out / "debruijn_series.csv").read_text().splitlines()
    assert lines[0] == "t,S_q,M_q,I_bq,lhs,rhs,rel_err,excluded_mass"
    assert len(lines) == 1 + 3


def test_debruijn_summary_counts_the_solver_work(tmp_path):
    argv = ["debruijn", "--points", "512", "--t-final", "0.05", "--n-checks", "3",
            "--t-burn", "0.01"]
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(argv + ["--out-dir", str(out)]) == 0
        runs.append((_summary(out, "debruijn_summary.json")["results"],
                     (out / "debruijn_series.csv").read_text()))
    assert runs[0] == runs[1]
    c = runs[0][0]["counters"]
    assert set(c) == {"rhs_evals", "super_steps", "explicit_fallbacks",
                      "dt_explicit_min", "dt_explicit_max"}
    # a super step takes at least 3 evaluations, each identity check one
    assert c["super_steps"] > 0 and c["explicit_fallbacks"] == 0
    assert c["rhs_evals"] >= 3 * c["super_steps"] + 3
    assert 0.0 < c["dt_explicit_min"] <= c["dt_explicit_max"]


def test_debruijn_snapshots_are_the_measured_states(tmp_path):
    out = tmp_path / "out"
    assert main(["debruijn", "--points", "512", "--t-final", "0.1", "--m", "1.5",
                 "--beta", "2.5", "--snap-every", "2", "--out-dir", str(out)]) == 0
    snaps = [f"debruijn_snapshot_{i:03d}.json" for i in (0, 2, 4, 6)]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        snaps + ["debruijn_series.csv", "debruijn_summary.json"])
    q = _summary(out, "debruijn_summary.json")["results"]["q"]
    rows = (out / "debruijn_series.csv").read_text().splitlines()[1:]
    for idx, name in zip((0, 2, 4, 6), snaps):
        # the snapshot is the state whose entropy the series row reports
        density = GridDensity.load_json(out / name)
        assert repr(float(tsallis_entropy(density, q))) == rows[idx].split(",")[1]


def test_debruijn_coarse_grid_reports_violation(tmp_path):
    # 48 points cannot resolve the porous-medium edge; the identity check
    # fails loudly with exit 2 instead of papering over it
    out = tmp_path / "out"
    rc = main(["debruijn", "--points", "48", "--m", "2.0", "--sigma0", "0.3",
               "--half-width", "3", "--t-final", "0.05", "--n-checks", "3",
               "--t-burn", "0.01", "--out-dir", str(out)])
    assert rc == 2
    s = _summary(out, "debruijn_summary.json")
    assert s["exit_status"] == 2
    assert s["results"]["worst_rel_err"] > 2e-2


def test_debruijn_beta_below_2_on_flat_faces_is_an_error(tmp_path, capsys):
    # the default start has flat faces, where |D|^(beta-2) leaves no usable
    # step; the run stops at once instead of crawling in vanishing steps
    # (m = 2 keeps the entropy order q = 1 positive at beta = 1.5)
    rc = main(["debruijn", "--m", "2", "--beta", "1.5", "--points", "256", "--t-final", "0.05",
               "--n-checks", "2", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error:")] == err[:1]
    assert "beta < 2" in err[0]


@pytest.mark.parametrize("beta, q", [("1.2", "-3"), ("1.5", "0")])
def test_debruijn_nonpositive_entropy_order_is_config_error(tmp_path, capsys, beta, q):
    # q = m + 1 - 1/(beta - 1) <= 0 has no Tsallis entropy to check; refused
    # before any evolution (q = -3 used to run on past a minute, q = 0 to crash)
    out = tmp_path / "out"
    start = time.perf_counter()
    rc = main(["debruijn", "--beta", beta, "--points", "255", "--sigma0", "1.0",
               "--t-final", "0.05", "--n-checks", "2", "--out-dir", str(out)])
    assert time.perf_counter() - start < 2.0
    assert rc == 64
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("config error: keys 'm' and 'beta'")
    assert f"(q = {q})" in err[0]
    # refused before the start is built, so none of its hygiene warnings print
    assert not any(line.startswith("warning:") for line in err)
    assert not out.exists()


def test_debruijn_fast_diffusion_on_zero_tails_is_an_error(tmp_path, capsys):
    # m < 1 has no stable step where the Gaussian start underflows to 0
    rc = main(["debruijn", "--m", "0.9", "--points", "256", "--t-final", "0.05",
               "--n-checks", "2", "--t-burn", "0", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("seed", [76, 139, 1294, 2766])
def test_divergence_random_seeds_pass_strict(tmp_path, seed):
    # seeds whose random densities once left boundary mass above the threshold
    assert main(["divergence", "--seed", str(seed), "--strict",
                 "--out-dir", str(tmp_path / "out")]) == 0


def test_uncertainty_saturating_profile(tmp_path):
    out = tmp_path / "out"
    assert main(["uncertainty", "--psi", "qgauss", "--q", "1.2",
                 "--out-dir", str(out)]) == 0
    s = _summary(out, "uncertainty_summary.json")
    assert s["results"]["saturated"] is True
    assert abs(s["results"]["margin"]) <= 1e-6 * s["results"]["rhs"]


def test_strict_escalates_hygiene_warnings(tmp_path, capsys):
    # sigma 1.9 on the default box leaves just enough boundary mass to warn
    args = ["uncertainty", "--sigma", "1.9"]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--strict", "--out-dir", str(tmp_path / "b")]) == 1
    assert "boundary" in capsys.readouterr().err


def test_summary_exit_status_matches_return_code(tmp_path):
    out = tmp_path / "out"
    rc = main(["uncertainty", "--out-dir", str(out)])
    assert rc == 0
    assert _summary(out, "uncertainty_summary.json")["exit_status"] == rc


def _file_start(grid):
    return zoo.mixture_density(grid, (-0.8, 1.4), (0.5, 0.9), (0.7, 0.3))


# each named input of qcr-check and minimize, as its handler builds it on the
# [-10, 10] box (qcr-check's box when --half-width is left at 0)
NAMED_INPUTS = {
    ("qcr-check", "gauss"): lambda grid: zoo.gaussian_density(grid, 0.0, 1.0),
    ("qcr-check", "uniform"): lambda grid: zoo.smoothed_uniform(grid, -10.0 / 3.0, 10.0 / 3.0,
                                                                edge=0.25),
    ("qcr-check", "mixture"): lambda grid: zoo.mixture_density(grid, (-1.2, 1.1), (0.7, 0.45),
                                                               (0.6, 0.4)),
    ("qcr-check", "file"): _file_start,
    ("minimize", "mixture"): lambda grid: zoo.mixture_density(grid, (-1.2, 1.1), (0.7, 0.45),
                                                              (0.6, 0.4)),
    ("minimize", "uniform"): lambda grid: zoo.smoothed_uniform(grid, -10.0 / 3.0, 10.0 / 3.0,
                                                               edge=0.05),
    ("minimize", "gauss"): lambda grid: zoo.gaussian_density(grid, 0.0, 1.0),
    ("minimize", "file"): _file_start,
}
NAMED_KEY = {"qcr-check": "density", "minimize": "init"}


def _library_results(subcommand, g):
    """The summary results of `subcommand` on the density g, from the library."""
    if subcommand == "qcr-check":
        return dataclasses.asdict(qfisher.q_cr_check(g, qfisher.HolderPair.from_alpha(2.0), 1.5))
    res = qfisher.minimize_q_fisher(g, qfisher.MinimizationConfig(q=1.5, alpha=2.0,
                                                                  max_iters=5000, tol=1e-3))
    fitted = qfisher.fit_q_gaussian(res.argmin, 1.5, 2.0)
    c = res.counters
    return {"final_objective": res.objective, "converged": res.converged,
            "stalled": res.stalled, "n_iters": res.n_iters, "stop_reason": res.stop_reason,
            "l1_to_fitted_q_gaussian": qfisher.l1_distance(res.argmin, fitted),
            "counters": {"evaluations": c.evaluations, "rejected_trials": c.rejected_trials},
            "dilations": c.dilations}


@pytest.mark.parametrize("subcommand, kind", list(NAMED_INPUTS),
                         ids=[f"{s}-{k}" for s, k in NAMED_INPUTS])
def test_named_inputs_are_the_library_densities(tmp_path, subcommand, kind):
    grid = GridSpec.line(-10.0, 10.0, 257)
    g = NAMED_INPUTS[subcommand, kind](grid)
    argv = [subcommand, f"--{NAMED_KEY[subcommand]}", kind, "--grid-points", "257"]
    if kind == "file":
        g.save_json(tmp_path / "start.json")
        argv += ["--density-file", str(tmp_path / "start.json")]
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 0
    results = _summary(out, subcommand.replace("-", "_") + "_summary.json")["results"]
    assert results == json.loads(json.dumps(_library_results(subcommand, g)))


@pytest.mark.parametrize("subcommand", ["qcr-check", "minimize"])
def test_file_input_on_a_single_point_grid_is_config_error(tmp_path, capsys, subcommand):
    # the grid is checked before the file is read, as for every other input
    _file_start(GridSpec.line(-10.0, 10.0, 257)).save_json(tmp_path / "start.json")
    out = tmp_path / "out"
    argv = [subcommand, f"--{NAMED_KEY[subcommand]}", "file", "--density-file",
            str(tmp_path / "start.json"), "--grid-points", "1", "--out-dir", str(out)]
    assert main(argv) == 64
    assert "invalid grid" in capsys.readouterr().err
    assert not out.exists()
