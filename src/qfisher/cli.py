"""Command line front end.

Six subcommands (divergence, fisher, qcr-check, minimize, debruijn,
uncertainty) share a flat configuration model: defaults < JSON config file
< explicit flags.  Every key a subcommand takes, the global `out_dir`,
`seed` and `strict` included, is one SCHEMAS entry holding its type, its
default and its value rule; the flags, the config-file checks and the
summary's config echo are all built from it.  Key `grid_points` is flag
`--grid-points`, a `bool` key is an on-switch, a choices rule gives the
same choices on the flag and in the file, and a bound rule is checked the
same way from either.  `debruijn` sizes its grid with `--points`.  Unknown
config keys are rejected and every parameter is validated before any output
file is created, so a bad config never leaves partial artifacts behind.  Each
handler returns its status, tolerances and results, and `main` writes the
`<subcommand>_summary.json` from them, with the warnings the run raised
(each also printed to stderr as one `warning: <Category>: <message>` line).

Exit codes: 0 all checked inequalities hold, 2 a bound is violated (a
finding, not a crash), 64 configuration error, 1 crash.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

from . import cramer_rao, densities, diffusion, fisher, minimizer, uncertainty, zoo
from .cramer_rao import q_cr_check
from .divergences import chi_beta_g
from .errors import ConfigError, GridTooCoarse, NonConvergent, ParameterError, QFisherError
from .fisher import (
    chi2_limit_check,
    fisher_matrix,
    gaussian_location_family,
    generalized_fisher,
    laplace_location_family,
    q_fisher,
    q_gaussian_location_family,
)
from .grid import (BOUNDARY_REL_TOL, GridDensity, GridSpec, HolderPair, boundary_abs_max, write_csv,
                   write_text)
from .version import __version__

EXIT_OK = 0
EXIT_CRASH = 1
EXIT_BOUND_VIOLATED = 2
EXIT_CONFIG = 64

MARGIN_TOL = 1e-6
DPI_MARGIN_TOL = 1e-9
DEBRUIJN_REL_ERR_TOL = 2e-2

# key -> (python type, default[, rule]); None default means "required
# unless unused", or for fisher's box keys "sized for the family".  The rule
# is a choices tuple or a lower bound the value must exceed.  Each key is also
# the flag --key with "_" spelled "-"; a bool key's flag switches it on.
# COMMON_SCHEMA holds the keys of every subcommand.
COMMON_SCHEMA = {
    "out_dir": (str, "qfisher-out"),
    "seed": (int, 0),
    "strict": (bool, False),
}
FLAG_HELP = {
    "out_dir": "output directory (default qfisher-out)",
    "seed": "seed for randomized inputs (default 0)",
    "strict": "escalate numerical-hygiene warnings to errors",
}
SUBCOMMAND_SCHEMAS = {
    "divergence": {
        "beta": (float, 2.0, 1.0),
        "grid_points": (int, 512, 0),
        "half_width": (float, 8.0, 0.0),
        "factor": (int, 2, 0),
    },
    "fisher": {
        "beta": (float, 2.0, 1.0),
        "q": (float, 1.0, 0.0),
        "family": (str, "gauss", ("gauss", "laplace", "qgauss")),
        "grid_points": (int, None, 0),  # None = FISHER_BOX[family]
        "half_width": (float, None, 0.0),
        "sigma": (float, 1.0, 0.0),
        "eps": (float, 0.005, 0.0),
        "alpha": (float, 2.0),
        "gamma": (float, 1.0, 0.0),
    },
    "qcr-check": {
        "q": (float, 1.5, 0.0),
        "alpha": (float, 2.0, 1.0),  # its conjugate beta must be finite
        "p": (float, 2.0, 1.0),
        "density": (str, "qgauss", ("qgauss", "gauss", "uniform", "mixture", "file")),
        "density_file": (str, None),
        "grid_points": (int, 4096, 0),
        "half_width": (float, 0.0),  # <= 0 = pick automatically
        "gamma": (float, 1.0),
    },
    "minimize": {
        "q": (float, 1.5, 0.0),
        "alpha": (float, 2.0, 1.0),
        "init": (str, "mixture", ("mixture", "uniform", "gauss", "file")),
        "density_file": (str, None),
        "iters": (int, 5000, 0),
        "tol": (float, 1e-3, 0.0),
        "grid_points": (int, 513, 0),
        "half_width": (float, 10.0, 0.0),
    },
    "debruijn": {
        "m": (float, 1.0, 0.0),
        "beta": (float, 2.0, 1.0),
        "t_final": (float, 0.2, 0.0),
        "points": (int, 2048, 0),
        "snap_every": (int, 0, -1),  # 0 = no snapshots
        "sigma0": (float, 0.05, 0.0),
        "half_width": (float, 3.0, 0.0),
        "n_checks": (int, 8, 0),
        "t_burn": (float, 0.02),
    },
    "uncertainty": {
        "q": (float, 1.0),
        "beta": (float, 2.0),
        "gamma": (float, 2.0),
        "theta": (float, 2.0),
        "psi": (str, "gauss", ("gauss", "qgauss", "file")),
        "psi_file": (str, None),
        "grid_points": (int, 2049, 0),
        "half_width": (float, 12.0, 0.0),
        "sigma": (float, 1.0, 0.0),
    },
}
SCHEMAS = {name: {**COMMON_SCHEMA, **keys} for name, keys in SUBCOMMAND_SCHEMAS.items()}
# fisher's box when no flag or file sets it: the Laplace tail exp(-|x|) only
# falls under the 1e-10 x max boundary rule past ln(1e10) ~ 23.1, and 4096
# points keep the spacing of the 12.0 / 2048 box the other families use
FISHER_BOX = {
    "gauss": {"half_width": 12.0, "grid_points": 2048},
    "laplace": {"half_width": 24.0, "grid_points": 4096},
    "qgauss": {"half_width": 12.0, "grid_points": 2048},
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


_TYPE_NAMES = {float: "a finite number", int: "an integer", str: "a string", bool: "true or false"}


def _coerce(key: str, value, typ):
    """`value` as a `typ`; NaN, +-inf and bools given for numbers are config errors."""
    if typ in (str, bool):
        ok = isinstance(value, typ)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        ok = False
    elif isinstance(value, int):
        # a JSON integer can be too large for a float, i.e. infinite as one
        ok = typ is int or abs(value) <= sys.float_info.max
    else:
        ok = math.isfinite(value) and (typ is float or value.is_integer())
    if not ok:
        raise ConfigError(f"key '{key}' must be {_TYPE_NAMES[typ]}, got {value!r}")
    return typ(value)


def _check_rule(key: str, value, rule) -> None:
    if isinstance(rule, tuple):
        if value not in rule:
            raise ConfigError(f"key '{key}' must be one of {sorted(rule)}, got '{value}'")
    elif not value > rule:
        # an integer exceeds n exactly when it is >= n + 1
        need = f"be >= {rule + 1}" if isinstance(value, int) else f"exceed {rule}"
        raise ConfigError(f"key '{key}' must {need}, got {value}")


def _resolve_config(ns: argparse.Namespace, schema: dict) -> dict:
    """Merge defaults, config file, and flags, checking each key's type and rule."""
    file_cfg = _load_config_file(ns.config) if ns.config else {}
    unknown = sorted(set(file_cfg) - set(schema) - {"subcommand"})
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if "subcommand" in file_cfg and file_cfg["subcommand"] != ns.subcommand:
        raise ConfigError(
            f"config file targets '{file_cfg['subcommand']}' but '{ns.subcommand}' was invoked"
        )

    params = {}
    for key, (typ, default, *rule) in schema.items():
        flag_val = getattr(ns, key, None)
        if flag_val is not None:
            params[key] = _coerce(key, flag_val, typ)
        elif key in file_cfg:
            params[key] = _coerce(key, file_cfg[key], typ)
        else:
            params[key] = default
        if rule and params[key] is not None:
            _check_rule(key, params[key], rule[0])
    return params


def _key_error(exc: ParameterError, params: dict, keys: dict | None = None) -> ConfigError:
    """The config error for a broken parameter rule, naming the config keys
    (`keys` maps library parameter names to them; without it the names are
    the keys)."""
    named = [keys[name] for name in exc.names] if keys else list(exc.names)
    which = " and ".join(f"'{key}'" for key in named)
    got = " and ".join(str(params[key]) for key in named)
    noun = "key" if len(named) == 1 else "keys"
    return ConfigError(f"{noun} {which} {exc.rule}, got {got}")


def _build(cls, params: dict, **keys: str):
    """`cls` with each field set from its config key; a rule it breaks names those keys."""
    try:
        return cls(**{name: params[key] for name, key in keys.items()})
    except ParameterError as exc:
        raise _key_error(exc, params, keys) from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _line_grid(half_width: float, points: int) -> GridSpec:
    """Line grid on [-half_width, half_width]; one the grid refuses is a config error."""
    try:
        return GridSpec.line(-half_width, half_width, points)
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc


def _load_density(params: dict, key: str, choice: str) -> GridDensity:
    """The density in the file that config key `key` names for `choice` = file."""
    if not params[key]:
        raise ConfigError(f"key '{key}' must name a file when {choice} = file")
    path = Path(params[key])
    if not path.is_file():
        raise ConfigError(f"key '{key}' names a file that is not found: {path}")
    try:
        return GridDensity.load_json(path)
    except (ValueError, KeyError, TypeError) as exc:  # json.JSONDecodeError is a ValueError
        raise ConfigError(f"could not parse density file {path}: {exc}") from exc


def _write_summary(subcommand: str, params: dict, tolerances: dict, results: dict,
                   exit_status: int, warned: list[dict]) -> None:
    payload = {
        "tool_version": __version__,
        "subcommand": subcommand,
        "config_echo": params,
        "tolerances": tolerances,
        "results": results,
        "exit_status": exit_status,
        "warnings": warned,
    }
    path = _out_dir(params) / f"{subcommand.replace('-', '_')}_summary.json"
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _out_dir(params: dict) -> Path:
    out = Path(params["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _bound_status(margin: float, values, rel_tol: float, what: str, from_file: bool) -> int:
    """EXIT_OK if the margin holds to MARGIN_TOL, else EXIT_BOUND_VIOLATED; but
    GridTooCoarse if it fails on `values` above `rel_tol` x max at the box ends,
    whose cut makes the continuum product infinite, not violated.  An input
    read `from_file` brings its own grid, which --half-width does not change."""
    if margin >= -MARGIN_TOL:
        return EXIT_OK
    edge = boundary_abs_max(values)
    if edge > rel_tol * float(np.abs(values).max()):
        remedy = ("the file's own grid cuts it there (--half-width does not apply to a "
                  "file); save it on a wider box" if from_file
                  else "rerun on a wider box (--half-width)")
        raise GridTooCoarse(
            f"boundary {what} {edge:.3e} exceeds {rel_tol:.0e} x max, so the "
            f"product misses the cut at the box ends; {remedy}"
        )
    return EXIT_BOUND_VIOLATED


# ---------------------------------------------------------------- subcommands
# Each handler gets the resolved params (schema rules already checked) and
# returns (exit status, tolerances, results) for the summary.


def cmd_divergence(params: dict) -> tuple[int, dict, dict]:
    keys = ("grid_points", "factor")
    if params["grid_points"] % params["factor"] != 0:
        raise _key_error(ParameterError(keys, "must make grid_points a multiple of factor"), params)
    if params["grid_points"] // params["factor"] < 2:
        raise _key_error(ParameterError(keys, "must leave at least 2 coarse points"), params)

    grid = _line_grid(params["half_width"], params["grid_points"])
    f1, f2, g = zoo.random_triple(grid, params["seed"])
    fine = chi_beta_g(f1, f2, g, params["beta"])
    factor = params["factor"]
    coarse = chi_beta_g(
        densities.coarse_grain(f1, factor),
        densities.coarse_grain(f2, factor),
        densities.coarse_grain(g, factor),
        params["beta"],
    )
    margin = fine - coarse
    status = EXIT_OK if margin >= -DPI_MARGIN_TOL else EXIT_BOUND_VIOLATED
    return status, {"monotonicity_margin": DPI_MARGIN_TOL}, {
        "beta": params["beta"],
        "value": fine,
        "coarse_value": coarse,
        "monotonicity_margin": margin,
    }


def cmd_fisher(params: dict) -> tuple[int, dict, dict]:
    # filled in place, so the summary echoes the box that was used
    for key, value in FISHER_BOX[params["family"]].items():
        if params[key] is None:
            params[key] = value

    grid = _line_grid(params["half_width"], params["grid_points"])
    if params["family"] == "gauss":
        fam = gaussian_location_family(grid, params["sigma"])
    elif params["family"] == "laplace":
        fam = laplace_location_family(grid, params["eps"])
    else:
        fam = _build(functools.partial(q_gaussian_location_family, grid), params, q="q",
                     alpha="alpha", gamma="gamma")
    g = fam.at(0.0)

    family_value = generalized_fisher(fam, g, 0.0, params["beta"])
    q_value = q_fisher(g, params["beta"], params["q"])
    matrix = fisher_matrix(fam, g, 0.0).entries.tolist()

    limit_check = None
    if params["beta"] == 2.0:
        try:
            rep = chi2_limit_check(fam, g, 0.0, beta=2.0)
            limit_check = {
                "limit": rep.limit,
                "converged": True,
                "ratios": [list(map(float, r)) for r in rep.ratios],
            }
        except NonConvergent as exc:
            limit_check = {"converged": False, "error": str(exc)}

    return EXIT_OK, {"limit_cauchy_tol": fisher.LIMIT_CAUCHY_TOL}, {
        "value": q_value,
        "family_value": family_value,
        "limit_check": limit_check,
        "matrix": matrix,
    }


def _named_density(params: dict, key: str, grid: GridSpec, edge: float) -> GridDensity:
    """The density that config key `key` names (gauss, uniform, mixture or
    file) on the line grid `grid`, which the caller has built and checked;
    `edge` is the uniform plateau's shoulder width."""
    kind, half = params[key], grid.hi[0]
    if kind == "gauss":
        return zoo.gaussian_density(grid, 0.0, 1.0)
    if kind == "uniform":
        return zoo.smoothed_uniform(grid, -half / 3.0, half / 3.0, edge=edge)
    if kind == "mixture":
        return zoo.mixture_density(grid, (-1.2, 1.1), (0.7, 0.45), (0.6, 0.4))
    return _load_density(params, "density_file", key)


def _qcr_density(params: dict) -> GridDensity:
    n = params["grid_points"]
    half = params["half_width"]
    if params["density"] == "qgauss":
        p = _build(densities.QGaussianParams, params, q="q", alpha="alpha", gamma="gamma")
        if half <= 0.0:
            half = densities.suggested_half_extent(p)
        return densities.make_q_gaussian(p, _line_grid(half, n))
    if half <= 0.0:
        half = 10.0
    return _named_density(params, "density", _line_grid(half, n), half / 40.0)


def cmd_qcr_check(params: dict) -> tuple[int, dict, dict]:
    pair = HolderPair.from_alpha(params["alpha"])
    g = _qcr_density(params)
    report = q_cr_check(g, pair, params["q"], params["p"])
    status = _bound_status(report.margin, g.values, BOUNDARY_REL_TOL, "density",
                           params["density"] == "file")
    # q_cr_check calls a density saturated by its equality-field fit
    tolerances = {"margin": MARGIN_TOL, "saturation_rel": cramer_rao.FIELD_FIT_TOL}
    return status, tolerances, dataclasses.asdict(report)


def cmd_minimize(params: dict) -> tuple[int, dict, dict]:
    cfg = _build(minimizer.MinimizationConfig, params, q="q", alpha="alpha", max_iters="iters",
                 tol="tol")

    grid = _line_grid(params["half_width"], params["grid_points"])
    start = _named_density(params, "init", grid, 0.05)

    result = minimizer.minimize_q_fisher(start, cfg)
    final_obj, counters = result.objective, result.counters
    # the product is bounded below by the dimension; undershoot means a bug
    status = EXIT_OK if final_obj >= grid.dims - MARGIN_TOL else EXIT_BOUND_VIOLATED

    fitted = densities.fit_q_gaussian(result.argmin, params["q"], params["alpha"])
    l1 = densities.l1_distance(result.argmin, fitted)

    out = _out_dir(params)
    write_csv(out / "minimize_trace.csv", ["iter", "objective"], enumerate(result.objective_trace))
    result.argmin.save_json(out / "minimize_final_density.json")
    return status, {"bound_margin": MARGIN_TOL}, {
        "final_objective": final_obj,
        "converged": result.converged,
        "stalled": result.stalled,
        "n_iters": result.n_iters,
        "stop_reason": result.stop_reason,
        "l1_to_fitted_q_gaussian": l1,
        # every evaluation is the start's, an iteration's or a rejected trial's
        "counters": {"evaluations": counters.evaluations,
                     "rejected_trials": counters.rejected_trials},
        "dilations": counters.dilations,
    }


def cmd_debruijn(params: dict) -> tuple[int, dict, dict]:
    if not 0.0 <= params["t_burn"] < params["t_final"]:
        raise _key_error(ParameterError(("t_burn", "t_final"), "must satisfy 0 <= t_burn < t_final"),
                         params)

    try:
        diffusion.check_entropy_order(params["m"], params["beta"])
    except ParameterError as exc:
        raise _key_error(exc, params, {"m_exp": "m", "beta": "beta"}) from exc

    grid = _line_grid(params["half_width"], params["points"])
    state = diffusion.DiffusionState(
        density=zoo.gaussian_density(grid, 0.0, params["sigma0"]),
        t=0.0,
        m_exp=params["m"],
        beta=params["beta"],
    )
    reports = diffusion.debruijn_series(
        state, params["t_final"], params["n_checks"], t_burn=params["t_burn"]
    )

    out = _out_dir(params)
    write_csv(out / "debruijn_series.csv",
              ["t", "S_q", "M_q", "I_bq", "lhs", "rhs", "rel_err", "excluded_mass"],
              [(r.t, r.entropy, r.m_q, r.i_beta_q, r.lhs, r.rhs, r.rel_err, r.excluded_mass)
               for r in reports])
    # each snapshot is the state its series row was measured on
    if params["snap_every"] > 0:
        for idx in range(0, len(reports), params["snap_every"]):
            reports[idx].density.save_json(out / f"debruijn_snapshot_{idx:03d}.json")

    worst = max(r.rel_err for r in reports)
    status = EXIT_OK if worst <= DEBRUIJN_REL_ERR_TOL else EXIT_BOUND_VIOLATED
    return status, {"rel_err": DEBRUIJN_REL_ERR_TOL}, {
        "q": state.q,
        "worst_rel_err": worst,
        "n_checks": len(reports),
        # every state of the flow shares the counters of its start
        "counters": dataclasses.asdict(state.counters),
    }


def cmd_uncertainty(params: dict) -> tuple[int, dict, dict]:
    up = _build(uncertainty.UncertaintyParams, params, q="q", beta="beta", gamma_exp="gamma",
                theta_exp="theta")

    loaded = None
    if params["psi"] == "file":
        loaded = _load_density(params, "psi_file", "psi")

    grid = _line_grid(params["half_width"], params["grid_points"])
    if params["psi"] == "gauss":
        dens = zoo.gaussian_density(grid, 0.0, params["sigma"])
        psi = uncertainty.WaveFunction.from_values(grid, np.sqrt(dens.values))
    elif params["psi"] == "qgauss":
        try:
            psi = uncertainty.saturating_wavefunction(grid, up)
        except ParameterError as exc:
            raise _key_error(exc, params, {"q": "q", "beta": "beta"}) from exc
    else:
        psi = uncertainty.WaveFunction.from_values(loaded.grid, np.sqrt(loaded.values))

    report = uncertainty.uncertainty_check(psi, up)
    status = _bound_status(report.margin, psi.values, uncertainty.BOUNDARY_PSI_REL_TOL, "|psi|",
                           params["psi"] == "file")
    tolerances = {"margin": MARGIN_TOL, "saturation_rel": cramer_rao.SATURATION_REL_TOL}
    return status, tolerances, dataclasses.asdict(report)


# subcommand -> (handler, help line)
COMMANDS = {
    "divergence": (cmd_divergence, "modified chi^beta divergence and its coarse-graining margin"),
    "fisher": (cmd_fisher, "generalized Fisher information of a named family"),
    "qcr-check": (cmd_qcr_check, "moment-information product against the dimension bound"),
    "minimize": (cmd_minimize, "descend the product functional to its q-Gaussian minimum"),
    "debruijn": (cmd_debruijn, "entropy production along the nonlinear diffusion flow"),
    "uncertainty": (cmd_uncertainty, "escort-moment Fourier uncertainty product"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qfisher parser, built from SCHEMAS on first use and kept for the process.

    Each key has one flag, spelled in full: argparse's prefix matching is off.
    """
    parser = argparse.ArgumentParser(
        prog="qfisher",
        description="Generalized Fisher information, Cramer-Rao bounds, and their saturation checks.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"qfisher {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_line) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_line, allow_abbrev=False)
        sp.add_argument("--config", help="flat JSON config file; flags override it")
        for key, (typ, _, *rule) in SCHEMAS[name].items():
            flag = "--" + key.replace("_", "-")
            if typ is bool:
                kind = {"action": "store_true", "default": None}
            else:
                choices = rule[0] if rule and isinstance(rule[0], tuple) else None
                kind = {"type": typ, "choices": choices}
            sp.add_argument(flag, help=FLAG_HELP.get(key), **kind)
    return parser


def _grouped_warnings(caught) -> list[dict]:
    """Recorded warnings as {category, message, count}, in first-seen order."""
    counts = Counter((w.category.__name__, str(w.message)) for w in caught)
    return [{"category": c, "message": m, "count": n} for (c, m), n in counts.items()]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code means "bound violated"
        # here, so remap parse failures to the config-error status
        code = exc.code if exc.code is not None else 0
        return EXIT_CONFIG if code != 0 else 0
    try:
        params = _resolve_config(ns, SCHEMAS[ns.subcommand])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        # "always": the summary counts every occurrence, not one per code line
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if params["strict"]:
                warnings.simplefilter("error", UserWarning)
            status, tolerances, results = COMMANDS[ns.subcommand][0](params)
            _write_summary(ns.subcommand, params, tolerances, results, status,
                           _grouped_warnings(caught))
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QFisherError, UserWarning) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CRASH
    except Exception as exc:  # crash, not a finding
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CRASH
    finally:  # after the error line, which stays the first line of stderr
        for w in _grouped_warnings(caught):
            print(f"warning: {w['category']}: {w['message']}", file=sys.stderr)


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
