"""Command line front end.

Six subcommands (divergence, fisher, qcr-check, minimize, debruijn,
uncertainty) share a flat configuration model: defaults < JSON config file
< explicit flags.  Each subcommand's flags are built from its SCHEMAS
entry: key `grid_points` is flag `--grid-points`, and a key with a choices
tuple gets the same choices on the flag and in the config file.  `fisher`
also accepts `--grid` for `--grid-points`; `debruijn` sizes its grid with
`--points`.  Unknown config keys are rejected and every parameter is
validated before any output file is created, so a bad config never leaves
partial artifacts behind.

Exit codes: 0 all checked inequalities hold, 2 a bound is violated (a
finding, not a crash), 64 configuration error, 1 crash.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import densities, diffusion, minimizer, uncertainty, zoo
from .cramer_rao import q_cr_check
from .divergences import chi_beta_g
from .errors import ConfigError, NonConvergent, QFisherError
from .fisher import (
    chi2_limit_check,
    fisher_matrix,
    gaussian_location_family,
    generalized_fisher,
    laplace_location_family,
    q_fisher,
    q_gaussian_location_family,
)
from .grid import GridDensity, GridSpec, HolderPair
from .version import __version__

EXIT_OK = 0
EXIT_CRASH = 1
EXIT_BOUND_VIOLATED = 2
EXIT_CONFIG = 64

MARGIN_TOL = 1e-6
DPI_MARGIN_TOL = 1e-9
DEBRUIJN_REL_ERR_TOL = 2e-2

GLOBAL_KEYS = {"out_dir", "seed", "strict"}

# key -> (python type, default[, choices]); None default means "required
# unless unused".  Each key is also the flag --key with "_" spelled "-".
SCHEMAS = {
    "divergence": {
        "beta": (float, 2.0),
        "grid_points": (int, 512),
        "half_width": (float, 8.0),
        "factor": (int, 2),
    },
    "fisher": {
        "beta": (float, 2.0),
        "q": (float, 1.0),
        "p": (float, 2.0),
        "family": (str, "gauss", ("gauss", "laplace", "qgauss")),
        "grid_points": (int, 2048),
        "half_width": (float, 12.0),
        "sigma": (float, 1.0),
        "eps": (float, 0.005),
        "alpha": (float, 2.0),
        "gamma": (float, 1.0),
    },
    "qcr-check": {
        "q": (float, 1.5),
        "alpha": (float, 2.0),
        "p": (float, 2.0),
        "density": (str, "qgauss", ("qgauss", "gauss", "uniform", "mixture", "file")),
        "density_file": (str, None),
        "grid_points": (int, 4096),
        "half_width": (float, 0.0),  # 0 = pick automatically
        "gamma": (float, 1.0),
    },
    "minimize": {
        "q": (float, 1.5),
        "alpha": (float, 2.0),
        "p": (float, 2.0),
        "init": (str, "mixture", ("mixture", "uniform", "gauss", "file")),
        "density_file": (str, None),
        "iters": (int, 5000),
        "tol": (float, 1e-3),
        "grid_points": (int, 513),
        "half_width": (float, 10.0),
    },
    "debruijn": {
        "m": (float, 1.0),
        "beta": (float, 2.0),
        "t_final": (float, 0.2),
        "points": (int, 2048),
        "snap_every": (int, 0),
        "sigma0": (float, 0.05),
        "half_width": (float, 3.0),
        "n_checks": (int, 8),
        "t_burn": (float, 0.02),
    },
    "uncertainty": {
        "q": (float, 1.0),
        "beta": (float, 2.0),
        "gamma": (float, 2.0),
        "theta": (float, 2.0),
        "psi": (str, "gauss", ("gauss", "qgauss", "file")),
        "psi_file": (str, None),
        "grid_points": (int, 2049),
        "half_width": (float, 12.0),
        "sigma": (float, 1.0),
    },
}


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a flat JSON object")
    return raw


def _coerce(key: str, value, typ):
    if typ is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"key '{key}' must be a number, got {value!r}")
        return float(value)
    if typ is int:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"key '{key}' must be an integer, got {value!r}")
        if float(value) != int(value):
            raise ConfigError(f"key '{key}' must be an integer, got {value!r}")
        return int(value)
    if typ is str:
        if not isinstance(value, str):
            raise ConfigError(f"key '{key}' must be a string, got {value!r}")
        return value
    raise AssertionError(f"unhandled type for {key}")


def _resolve_config(ns: argparse.Namespace, schema: dict) -> tuple[dict, dict]:
    """Merge defaults, config file, and flags; returns (params, globals)."""
    file_cfg = _load_config_file(ns.config) if ns.config else {}
    allowed = set(schema) | GLOBAL_KEYS | {"subcommand"}
    unknown = sorted(set(file_cfg) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if "subcommand" in file_cfg and file_cfg["subcommand"] != ns.subcommand:
        raise ConfigError(
            f"config file targets '{file_cfg['subcommand']}' but '{ns.subcommand}' was invoked"
        )

    params = {}
    for key, (typ, default, *choices) in schema.items():
        flag_val = getattr(ns, key, None)
        if flag_val is not None:
            params[key] = _coerce(key, flag_val, typ)
        elif key in file_cfg:
            params[key] = _coerce(key, file_cfg[key], typ)
        else:
            params[key] = default
        if choices and params[key] not in choices[0]:
            raise ConfigError(
                f"key '{key}' must be one of {sorted(choices[0])}, got '{params[key]}'"
            )

    glob = {
        "out_dir": ns.out_dir
        if ns.out_dir is not None
        else _coerce("out_dir", file_cfg.get("out_dir", "qfisher-out"), str),
        "seed": ns.seed
        if ns.seed is not None
        else _coerce("seed", file_cfg.get("seed", 0), int),
        "strict": bool(ns.strict or file_cfg.get("strict", False)),
    }
    return params, glob


def _require_positive(params: dict, keys: list[str]):
    for key in keys:
        if not params[key] > 0:
            raise ConfigError(f"key '{key}' must be positive, got {params[key]}")


def _line_grid(half_width: float, points: int) -> GridSpec:
    """Line grid on [-half_width, half_width]; one the grid refuses is a config error."""
    try:
        return GridSpec.line(-half_width, half_width, points)
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc


def _load_density(path_str: str | None, what: str) -> GridDensity:
    if not path_str:
        raise ConfigError(f"{what} requires a density_file/psi_file path")
    path = Path(path_str)
    if not path.is_file():
        raise ConfigError(f"{what} file not found: {path}")
    try:
        return GridDensity.load_json(path)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise ConfigError(f"could not parse density file {path}: {exc}") from exc


def _format_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    rows = sorted(rows)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(c) for c in row) + "\n")


def _write_summary(path: Path, subcommand: str, params: dict, glob: dict,
                   tolerances: dict, results: dict, exit_status: int) -> None:
    payload = {
        "tool_version": __version__,
        "subcommand": subcommand,
        "config_echo": {**params, **glob},
        "tolerances": tolerances,
        "results": results,
        "exit_status": exit_status,
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _bound_results(report) -> dict:
    """Summary results of a BoundReport."""
    return {
        "lhs": report.lhs,
        "rhs": report.rhs,
        "margin": report.margin,
        "saturated": bool(report.saturated),
        "diagnostics": {k: float(v) for k, v in report.diagnostics.items()},
    }


def _out_dir(glob: dict) -> Path:
    out = Path(glob["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------- subcommands


def cmd_divergence(params: dict, glob: dict) -> int:
    _require_positive(params, ["grid_points", "half_width", "factor"])
    if not params["beta"] > 1.0:
        raise ConfigError("beta must exceed 1")
    if params["grid_points"] % params["factor"] != 0:
        raise ConfigError("grid_points must be divisible by factor")

    grid = _line_grid(params["half_width"], params["grid_points"])
    f1, f2, g = zoo.random_triple(grid, glob["seed"])
    fine = chi_beta_g(f1, f2, g, params["beta"])
    factor = params["factor"]
    coarse = chi_beta_g(
        densities.coarse_grain(f1, factor),
        densities.coarse_grain(f2, factor),
        densities.coarse_grain(g, factor),
        params["beta"],
    )
    margin = fine.value - coarse.value
    status = EXIT_OK if margin >= -DPI_MARGIN_TOL else EXIT_BOUND_VIOLATED

    out = _out_dir(glob)
    _write_summary(
        out / "divergence_summary.json",
        "divergence",
        params,
        glob,
        {"monotonicity_margin": DPI_MARGIN_TOL},
        {
            "beta": params["beta"],
            "value": fine.value,
            "coarse_value": coarse.value,
            "monotonicity_margin": margin,
        },
        status,
    )
    return status


def cmd_fisher(params: dict, glob: dict) -> int:
    _require_positive(params, ["grid_points", "half_width", "sigma", "eps", "gamma", "q"])
    if not params["beta"] > 1.0:
        raise ConfigError("beta must exceed 1")
    if not params["p"] > 1.0:
        raise ConfigError("p must exceed 1")
    if params["family"] == "qgauss":
        try:
            densities.QGaussianParams(params["q"], params["alpha"], params["gamma"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    grid = _line_grid(params["half_width"], params["grid_points"])
    if params["family"] == "gauss":
        fam = gaussian_location_family(grid, params["sigma"])
    elif params["family"] == "laplace":
        fam = laplace_location_family(grid, params["eps"])
    else:
        fam = q_gaussian_location_family(grid, params["q"], params["alpha"], params["gamma"])
    g = fam.at(0.0)

    family_value = generalized_fisher(fam, g, 0.0, params["beta"], params["p"])
    q_value = q_fisher(g, params["beta"], params["q"], params["p"])
    matrix = fisher_matrix(fam, g, 0.0).entries.tolist()

    limit_check = None
    if params["beta"] == 2.0:
        try:
            rep = chi2_limit_check(fam, g, 0.0, beta=2.0)
            limit_check = {
                "limit": rep.limit,
                "converged": bool(rep.converged),
                "ratios": [list(map(float, r)) for r in rep.ratios],
            }
        except NonConvergent as exc:
            limit_check = {"converged": False, "error": str(exc)}

    out = _out_dir(glob)
    _write_summary(
        out / "fisher_summary.json",
        "fisher",
        params,
        glob,
        {"limit_cauchy_tol": 1e-2},
        {
            "value": q_value,
            "family_value": family_value,
            "limit_check": limit_check,
            "matrix": matrix,
        },
        EXIT_OK,
    )
    return EXIT_OK


def _qcr_density(params: dict, glob: dict) -> GridDensity:
    kind = params["density"]
    n = params["grid_points"]
    half = params["half_width"]
    if kind == "qgauss":
        p = densities.QGaussianParams(params["q"], params["alpha"], params["gamma"])
        if half <= 0.0:
            half = densities.suggested_half_extent(p)
        return densities.make_q_gaussian(p, _line_grid(half, n))
    if half <= 0.0:
        half = 10.0
    grid = _line_grid(half, n)
    if kind == "gauss":
        return zoo.gaussian_density(grid, 0.0, 1.0)
    if kind == "uniform":
        return zoo.smoothed_uniform(grid, -half / 3.0, half / 3.0, edge=half / 40.0)
    if kind == "mixture":
        return zoo.mixture_density(grid, (-1.2, 1.1), (0.7, 0.45), (0.6, 0.4))
    return _load_density(params["density_file"], "density = file")


def cmd_qcr_check(params: dict, glob: dict) -> int:
    _require_positive(params, ["q", "grid_points"])
    if not params["alpha"] > 1.0:
        raise ConfigError("alpha must exceed 1 (its conjugate beta must be finite)")
    if not params["p"] > 1.0:
        raise ConfigError("p must exceed 1")
    pair = HolderPair.from_alpha(params["alpha"])
    if params["density"] == "qgauss":
        try:
            densities.QGaussianParams(params["q"], params["alpha"], params["gamma"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    # builds or loads before touching out_dir, so bad inputs leave no files
    g = _qcr_density(params, glob)
    report = q_cr_check(g, pair, params["q"], params["p"])
    status = EXIT_OK if report.margin >= -MARGIN_TOL else EXIT_BOUND_VIOLATED

    out = _out_dir(glob)
    _write_csv(
        out / "qcr_check_detail.csv",
        ["q", "alpha", "lhs", "rhs", "margin", "saturated"],
        [(params["q"], params["alpha"], report.lhs, report.rhs, report.margin, report.saturated)],
    )
    _write_summary(
        out / "qcr_check_summary.json",
        "qcr-check",
        params,
        glob,
        {"margin": MARGIN_TOL, "saturation_rel": 1e-2},
        _bound_results(report),
        status,
    )
    return status


def cmd_minimize(params: dict, glob: dict) -> int:
    _require_positive(params, ["q", "grid_points", "iters", "tol", "half_width"])
    if not params["alpha"] > 1.0:
        raise ConfigError("alpha must exceed 1")
    if not params["p"] > 1.0:
        raise ConfigError("p must exceed 1")
    try:
        cfg = minimizer.MinimizationConfig(
            q=params["q"],
            alpha=params["alpha"],
            norm_p=params["p"],
            max_iters=params["iters"],
            tol=params["tol"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    grid = _line_grid(params["half_width"], params["grid_points"])
    if params["init"] == "mixture":
        start = zoo.mixture_density(grid, (-1.2, 1.1), (0.7, 0.45), (0.6, 0.4))
    elif params["init"] == "uniform":
        start = zoo.smoothed_uniform(grid, -params["half_width"] / 3.0, params["half_width"] / 3.0)
    elif params["init"] == "gauss":
        start = zoo.gaussian_density(grid, 0.0, 1.0)
    else:
        start = _load_density(params["density_file"], "init = file")

    result = minimizer.minimize_q_fisher(start, cfg)
    final_obj = result.objective
    # the product is bounded below by the dimension; undershoot means a bug
    status = EXIT_OK if final_obj >= grid.dims - MARGIN_TOL else EXIT_BOUND_VIOLATED

    fitted = densities.fit_q_gaussian(result.argmin, params["q"], params["alpha"], params["p"])
    l1 = densities.l1_distance(result.argmin, fitted)

    out = _out_dir(glob)
    _write_csv(
        out / "minimize_trace.csv",
        ["iter", "objective"],
        [(i, v) for i, v in enumerate(result.objective_trace)],
    )
    result.argmin.save_json(out / "minimize_final_density.json")
    result.argmin.save_csv(out / "minimize_final_density.csv")
    _write_summary(
        out / "minimize_summary.json",
        "minimize",
        params,
        glob,
        {"bound_margin": MARGIN_TOL},
        {
            "final_objective": final_obj,
            "converged": bool(result.converged),
            "stalled": bool(result.stalled),
            "n_iters": result.n_iters,
            "l1_to_fitted_q_gaussian": l1,
        },
        status,
    )
    return status


def cmd_debruijn(params: dict, glob: dict) -> int:
    _require_positive(params, ["m", "t_final", "points", "sigma0", "half_width", "n_checks"])
    if not params["beta"] > 1.0:
        raise ConfigError("beta must exceed 1")
    if params["snap_every"] < 0:
        raise ConfigError("snap_every must be >= 0")
    if not 0.0 <= params["t_burn"] < params["t_final"]:
        raise ConfigError("t_burn must lie in [0, t_final)")

    grid = _line_grid(params["half_width"], params["points"])
    state = diffusion.DiffusionState(
        density=zoo.gaussian_density(grid, 0.0, params["sigma0"]),
        t=0.0,
        m_exp=params["m"],
        beta=params["beta"],
    )
    q_order = state.q
    reports = diffusion.debruijn_series(
        state, params["t_final"], params["n_checks"], t_burn=params["t_burn"]
    )

    out = _out_dir(glob)
    rows = [
        (r.t_mid, r.entropy, r.m_q, r.i_beta_q, r.lhs, r.rhs, r.rel_err) for r in reports
    ]
    _write_csv(out / "debruijn_series.csv", ["t", "S_q", "M_q", "I_bq", "lhs", "rhs", "rel_err"], rows)

    if params["snap_every"] > 0:
        snap_state = state
        for idx, r in enumerate(reports):
            snap_state = diffusion.evolve(snap_state, r.t_mid)
            if idx % params["snap_every"] == 0:
                snap_state.density.save_json(out / f"debruijn_snapshot_{idx:03d}.json")

    worst = max(r.rel_err for r in reports)
    status = EXIT_OK if worst <= DEBRUIJN_REL_ERR_TOL else EXIT_BOUND_VIOLATED
    _write_summary(
        out / "debruijn_summary.json",
        "debruijn",
        params,
        glob,
        {"rel_err": DEBRUIJN_REL_ERR_TOL},
        {
            "q": q_order,
            "worst_rel_err": worst,
            "n_checks": len(reports),
        },
        status,
    )
    return status


def cmd_uncertainty(params: dict, glob: dict) -> int:
    _require_positive(params, ["grid_points", "half_width", "sigma"])
    try:
        up = uncertainty.UncertaintyParams(
            q=params["q"],
            beta=params["beta"],
            gamma_exp=params["gamma"],
            theta_exp=params["theta"],
            dims=1,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    loaded = None
    if params["psi"] == "file":
        loaded = _load_density(params["psi_file"], "psi = file")

    grid = _line_grid(params["half_width"], params["grid_points"])
    if params["psi"] == "gauss":
        dens = zoo.gaussian_density(grid, 0.0, params["sigma"])
        psi = uncertainty.WaveFunction.from_values(grid, np.sqrt(dens.values))
    elif params["psi"] == "qgauss":
        psi = uncertainty.saturating_wavefunction(grid, up)
    else:
        psi = uncertainty.WaveFunction.from_values(loaded.grid, np.sqrt(loaded.values))

    report = uncertainty.uncertainty_check(psi, up)
    status = EXIT_OK if report.margin >= -MARGIN_TOL else EXIT_BOUND_VIOLATED

    out = _out_dir(glob)
    _write_summary(
        out / "uncertainty_summary.json",
        "uncertainty",
        params,
        glob,
        {"margin": MARGIN_TOL, "saturation_rel": 1e-2},
        _bound_results(report),
        status,
    )
    return status


# subcommand -> (handler, help line)
COMMANDS = {
    "divergence": (cmd_divergence, "modified chi^beta divergence and its coarse-graining margin"),
    "fisher": (cmd_fisher, "generalized Fisher information of a named family"),
    "qcr-check": (cmd_qcr_check, "moment-information product against the dimension bound"),
    "minimize": (cmd_minimize, "descend the product functional to its q-Gaussian minimum"),
    "debruijn": (cmd_debruijn, "entropy production along the nonlinear diffusion flow"),
    "uncertainty": (cmd_uncertainty, "escort-moment Fourier uncertainty product"),
}

# further spellings of a schema flag: subcommand -> {key: option strings}
FLAG_ALIASES = {"fisher": {"grid_points": ("--grid",)}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfisher",
        description="Generalized Fisher information, Cramer-Rao bounds, and their saturation checks.",
    )
    parser.add_argument("--version", action="version", version=f"qfisher {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_line) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
        sp.add_argument("--config", help="flat JSON config file; flags override it")
        sp.add_argument("--out-dir", dest="out_dir", help="output directory (default qfisher-out)")
        sp.add_argument("--seed", type=int, help="seed for randomized inputs (default 0)")
        sp.add_argument("--strict", action="store_true", default=None,
                        help="escalate numerical-hygiene warnings to errors")
        aliases = FLAG_ALIASES.get(name, {})
        for key, (typ, _, *choices) in SCHEMAS[name].items():
            flag = "--" + key.replace("_", "-")
            sp.add_argument(flag, *aliases.get(key, ()), dest=key, type=typ,
                            choices=choices[0] if choices else None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code means "bound violated"
        # here, so remap parse failures to the config-error status
        code = exc.code if exc.code is not None else 0
        return EXIT_CONFIG if code != 0 else 0
    try:
        params, glob = _resolve_config(ns, SCHEMAS[ns.subcommand])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        with warnings.catch_warnings():
            if glob["strict"]:
                warnings.simplefilter("error", UserWarning)
            return COMMANDS[ns.subcommand][0](params, glob)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QFisherError, UserWarning) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CRASH
    except Exception as exc:  # crash, not a finding
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CRASH


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
