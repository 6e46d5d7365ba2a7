"""End-to-end checks of the qfisher command line front end.

Everything drives cli.main() in-process except the entry-point checks: one
test confirms that ``[project.scripts]`` in pyproject.toml maps ``qfisher`` to
a callable and runs ``python -m qfisher --version`` as a separate process, so
it needs no installed package; another runs the installed ``qfisher`` wrapper
the same way and is skipped where no such executable is on PATH. Exit code
contract: 0 bounds hold, 2 a bound is violated, 64 configuration error,
1 crash.
"""

import contextlib
import importlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import qfisher
from qfisher.cli import COMMANDS, build_parser, main
from qfisher.densities import tsallis_entropy
from qfisher.errors import BoundaryMassWarning
from qfisher.grid import GridDensity
from qfisher.version import __version__

SUMMARY_KEYS = {
    "tool_version",
    "subcommand",
    "config_echo",
    "tolerances",
    "results",
    "exit_status",
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

    # the child must import the same qfisher as this test, however pytest was started
    package_root = str(Path(qfisher.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    _assert_prints_version([sys.executable, "-m", "qfisher", "--version"], env=env)


@pytest.mark.skipif(shutil.which("qfisher") is None, reason="qfisher console script not installed")
def test_installed_console_script_wrapper():
    _assert_prints_version(["qfisher", "--version"])


def test_missing_subcommand_is_config_error(capsys):
    assert main([]) == 64


def test_unknown_flag_is_config_error(capsys):
    assert main(["fisher", "--no-such-flag", "1"]) == 64


def _parse_output(parse, argv):
    """(exit code, stdout, stderr) of one argparse run over argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parse(argv)
            code = None
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
    full = build_parser()
    for argv in ([subcommand, "--help"], [subcommand, "--bogus"],
                 [subcommand, *BAD_VALUE[subcommand]]):
        expected = _parse_output(full.parse_args, argv)
        assert expected[0] in (0, 2) and expected[1] + expected[2]
        assert _parse_output(build_parser(subcommand).parse_args, argv) == expected
        # main builds the one-subcommand parser and maps usage errors to 64
        code, out, err = _parse_output(main, argv)
        assert (out, err) == expected[1:]


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


@pytest.mark.filterwarnings("ignore::qfisher.errors.BoundaryMassWarning")
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
    assert boxes["laplace"][2] == pytest.approx(0.98838, abs=1e-5)


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
        (["qcr-check", "--gamma", "-1"], ["gamma"]),
        # the schema rule on p stands in front of the minimizer's own check
        (["minimize", "--p", "1"], ["p"]),
        (["uncertainty", "--gamma", "1"], ["gamma"]),
        (["uncertainty", "--q", "0.4"], ["q", "beta"]),
    ],
    ids=["fisher", "qcr-check", "minimize", "uncertainty", "uncertainty-joint"],
)
def test_parameter_errors_name_their_config_keys(tmp_path, capsys, argv, keys):
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("config error: key")
    assert re.findall(r"'(\w+)'", err) == keys
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::qfisher.errors.BoundaryMassWarning")
@pytest.mark.parametrize("strict, rc", [("false", 64), (False, 0), (True, 1)])
def test_config_file_strict_must_be_boolean(tmp_path, capsys, strict, rc):
    cfg = tmp_path / "cfg.json"
    # a Laplace box of half-width 12 leaves boundary density 3.1e-6, which warns
    cfg.write_text(json.dumps({"strict": strict, "half_width": 12.0, "grid_points": 2048}))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["fisher", "--family", "laplace", "--config", str(cfg),
                     "--out-dir", str(out)]) == rc
    err = capsys.readouterr().err
    if rc == 64:
        assert "key 'strict'" in err
        assert not out.exists()
    elif rc == 0:
        assert any(issubclass(w.category, BoundaryMassWarning) for w in caught)
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


def test_fisher_grid_points_spells_grid(tmp_path):
    out = tmp_path / "out"
    summaries = []
    for flag in ("--grid-points", "--grid"):
        assert main(["fisher", flag, "1025", "--out-dir", str(out)]) == 0
        summaries.append((out / "fisher_summary.json").read_bytes())
    assert summaries[0] == summaries[1]


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


def test_seeded_runs_are_byte_identical(tmp_path):
    out = tmp_path / "out"
    argv = ["divergence", "--grid-points", "256", "--seed", "11", "--out-dir", str(out)]
    assert main(argv) == 0
    first = (out / "divergence_summary.json").read_bytes()
    assert main(argv) == 0
    assert (out / "divergence_summary.json").read_bytes() == first


def test_qcr_check_default_saturates(tmp_path):
    out = tmp_path / "out"
    assert main(["qcr-check", "--out-dir", str(out)]) == 0
    s = _summary(out, "qcr_check_summary.json")
    assert s["results"]["saturated"] is True
    assert abs(s["results"]["margin"]) < 1e-5

    lines = (out / "qcr_check_detail.csv").read_text().splitlines()
    assert lines[0] == "q,alpha,lhs,rhs,margin,saturated"
    q, alpha, lhs, rhs, margin, saturated = lines[1].split(",")
    assert float(q) == 1.5 and float(alpha) == 2.0
    assert saturated == "true"
    assert float(lhs) == pytest.approx(float(rhs), rel=1e-4)


def test_fisher_gaussian_defaults(tmp_path):
    out = tmp_path / "out"
    assert main(["fisher", "--grid", "1025", "--half-width", "10",
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
    assert (out / "minimize_final_density.csv").is_file()


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
    # a super step takes at least 3 evaluations, and so does each identity check
    assert c["super_steps"] > 0 and c["explicit_fallbacks"] == 0
    assert c["rhs_evals"] >= 3 * c["super_steps"] + 3 * 3
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


def test_uncertainty_saturating_profile(tmp_path):
    out = tmp_path / "out"
    assert main(["uncertainty", "--psi", "qgauss", "--q", "1.2",
                 "--out-dir", str(out)]) == 0
    s = _summary(out, "uncertainty_summary.json")
    assert s["results"]["saturated"] is True
    assert abs(s["results"]["margin"]) <= 1e-6 * s["results"]["rhs"]


@pytest.mark.filterwarnings("ignore::qfisher.errors.BoundaryMassWarning")
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
