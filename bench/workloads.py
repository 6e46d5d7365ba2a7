"""The three benchmark workloads, built from a seed.

Every op is one CLI invocation (``qfisher.cli.main(argv)``) or one call of an
exported library check.  ``build`` draws every random input from the workload
seed and writes the input files the CLI reads; the program itself only ever
sees argv and those files.

An op has a timed part (``call``) and an untimed part (``collect``) that turns
what the call produced (exit code plus output files, or a return value) into
a plain record for the oracle.  The ``expect`` dict carries the continuum
facts the oracle judges that record by; none of them depends on the seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import qfisher
import qfisher.cli

WORKLOADS = ("flow", "checks", "descent")
# passes with their own random draws before a run repeats them
PASS_DRAWS = 16

# summary file stem per op kind, where it differs from the kind
SUMMARY_STEM = {"qcr": "qcr_check"}


@dataclass
class Op:
    name: str
    kind: str
    call: Callable[[], Any]
    collect: Callable[[Any], dict]
    expect: dict


# ----------------------------------------------------------------- CLI ops


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _cli_op(name: str, kind: str, argv: list[str], out: Path, expect: dict,
            extra: Callable[[Path], dict] | None = None) -> Op:
    argv = argv + ["--out-dir", str(out)]
    summary = out / f"{SUMMARY_STEM.get(kind, kind)}_summary.json"

    def call():
        with contextlib.redirect_stderr(io.StringIO()) as err:
            # looked up on every call so that a rebound (traced) main is used
            rc = qfisher.cli.main(argv)
        return rc, err.getvalue()

    def collect(raw):
        rc, stderr = raw
        rec = {"rc": rc, "stderr": stderr}
        if summary.is_file():
            with open(summary) as fh:
                rec["summary"] = json.load(fh)
            # removed so that a later pass cannot be judged on a stale file
            summary.unlink()
            if extra is not None:
                rec.update(extra(out))
        return rec

    return Op(name, kind, call, collect, {"dims": 1, **expect})


def _debruijn_outputs(out: Path) -> dict:
    rows = _read_rows(out / "debruijn_series.csv")
    return {
        "entropy": [float(r["S_q"]) for r in rows],
        "snapshots": len(list(out.glob("debruijn_snapshot_*.json"))),
    }


def _minimize_outputs(out: Path) -> dict:
    rows = _read_rows(out / "minimize_trace.csv")
    return {"trace": [float(r["objective"]) for r in rows]}


def _uncertainty_rhs(q: float, beta: float, dims: int) -> float:
    """n / (2 pi k q) with k = beta / (beta (q - 1) + 1)."""
    k = beta / (beta * (q - 1.0) + 1.0)
    return dims / (2.0 * math.pi * k * q)


def _gauss_fisher(beta: float, sigma: float = 1.0) -> float:
    """I_{beta,1} of N(0, sigma^2) at p = 2: E|x|^beta / sigma^(2 beta)."""
    return sigma ** (-beta) * 2.0 ** (beta / 2.0) * math.gamma((beta + 1.0) / 2.0) / math.sqrt(math.pi)


# ------------------------------------------------------------ library ops


def _bound_record(rep) -> dict:
    return {"lhs": rep.lhs, "rhs": rep.rhs, "margin": rep.margin, "saturated": rep.saturated}


def _gauss2d_problem(grid, sigma):
    fam = qfisher.gaussian_location_family(grid, sigma=sigma)
    return qfisher.EstimationProblem(
        fam=fam,
        statistic=lambda coords: np.stack(coords),
        h=lambda theta: theta,
        h_jacobian=lambda theta: np.eye(2),
        g=fam.at((0.0, 0.0)),
        pair=qfisher.HolderPair.from_alpha(2.0),
        m_dim=2,
    )


# ------------------------------------------------------------- workloads


# 512 points up to t = 0.1 keeps one op between 0.25 and 0.5 s (1024 points up
# to the default t = 0.2 take about 3 s), so that a run holds about 20 passes
# and each op's median rests on short samples
FLOW_ARGS = ["--points", "512", "--t-final", "0.1"]
FLOW_REGIMES = (
    ("m1b2-snap", ["--m", "1", "--beta", "2", "--snap-every", "2"]),
    ("m2b2", ["--m", "2", "--beta", "2"]),
    ("m1b3", ["--m", "1", "--beta", "3"]),
)


def _flow(rng: np.random.Generator, inputs: Path, outputs: Path) -> list[list[Op]]:
    passes = []
    for _ in range(PASS_DRAWS):
        ops = []
        for tag, flags in FLOW_REGIMES:
            sigma0 = float(rng.uniform(0.04, 0.06))
            argv = ["debruijn", *FLOW_ARGS, "--sigma0", repr(sigma0)] + flags
            expect = {"snapshots": "--snap-every" in flags}
            ops.append(_cli_op(f"debruijn-{tag}", "debruijn", argv, outputs / tag, expect,
                               _debruijn_outputs))
        passes.append(ops)
    return passes


def _checks(rng: np.random.Generator, inputs: Path, outputs: Path) -> list[list[Op]]:
    ops = []

    def cli(name, kind, argv, expect=None):
        ops.append(_cli_op(name, kind, argv, outputs / name, expect or {}))

    for q in (0.8, 1.0, 1.5, 2.0):
        for alpha in (1.5, 2.0, 3.0):
            cli(f"qcr-q{q}-a{alpha}", "qcr",
                ["qcr-check", "--q", str(q), "--alpha", str(alpha)], {"matched": True})
    for dens in ("gauss", "uniform", "mixture"):
        cli(f"qcr-{dens}", "qcr", ["qcr-check", "--density", dens])
    zoo_grid = qfisher.GridSpec.line(-10.0, 10.0, 2049)
    for i in range(2):
        path = inputs / f"zoo_density_{i}.json"
        qfisher.zoo.random_density(zoo_grid, int(rng.integers(0, 2**31))).save_json(path)
        cli(f"qcr-file{i}", "qcr", ["qcr-check", "--density", "file", "--density-file", str(path)])

    cli("uncertainty-gauss", "uncertainty", ["uncertainty", "--psi", "gauss"],
        {"matched": True, "rhs": _uncertainty_rhs(1.0, 2.0, 1)})
    for q in (0.9, 1.2, 1.5):
        cli(f"uncertainty-q{q}", "uncertainty", ["uncertainty", "--psi", "qgauss", "--q", str(q)],
            {"matched": True, "rhs": _uncertainty_rhs(q, 2.0, 1)})

    cli("fisher-gauss", "fisher", ["fisher", "--family", "gauss"], {"exact": _gauss_fisher(2.0)})
    cli("fisher-laplace", "fisher", ["fisher", "--family", "laplace"])
    cli("fisher-qgauss", "fisher", ["fisher", "--family", "qgauss", "--q", "0.8"])
    cli("fisher-gauss-b3", "fisher", ["fisher", "--family", "gauss", "--beta", "3"],
        {"exact": _gauss_fisher(3.0)})

    div_seed = int(rng.integers(0, 2**31))
    for beta in (1.5, 2.0, 3.0):
        for n in (512, 4096):
            cli(f"divergence-b{beta}-n{n}", "divergence",
                ["divergence", "--beta", str(beta), "--grid-points", str(n), "--seed", str(div_seed)])

    # 2D library checks
    qp = qfisher.QGaussianParams(q=1.5, alpha=2.0, gamma=1.0, dims=2)
    half = qfisher.suggested_half_extent(qp)
    g_q = qfisher.make_q_gaussian(qp, qfisher.GridSpec.box(-half, half, 513, 2))
    pair = qfisher.HolderPair.from_alpha(2.0)
    ops.append(Op(
        "qcr2d", "bound",
        lambda: qfisher.q_cr_check(g_q, pair, 1.5, 2.0),
        _bound_record,
        {"dims": 2, "matched": True, "rhs": 2.0},
    ))

    up = qfisher.UncertaintyParams(q=1.2, beta=2.0, dims=2)
    psi = qfisher.saturating_wavefunction(qfisher.GridSpec.box(-12.0, 12.0, 513, 2), up)
    ops.append(Op(
        "uncertainty2d", "bound",
        lambda: qfisher.uncertainty_check(psi, up),
        _bound_record,
        {"dims": 2, "matched": True, "rhs": _uncertainty_rhs(1.2, 2.0, 2)},
    ))

    grid_g = qfisher.GridSpec.box(-11.0, 11.0, 257, 2)
    sigma = (1.0, 1.5)
    var = [s * s for s in sigma]
    # T = x is efficient per axis: E||x||^2 times E||grad log f||^2
    multidim_lhs = math.sqrt(sum(var) * sum(1.0 / v for v in var))
    ops.append(Op(
        "multidim2d", "bound",
        lambda: qfisher.multidim_cr_check(_gauss2d_problem(grid_g, sigma), (0.0, 0.0)),
        _bound_record,
        {"dims": 2, "rhs": 2.0, "lhs": multidim_lhs},
    ))

    cov_seed = int(rng.integers(0, 2**31))
    ops.append(Op(
        "covariance2d", "covariance",
        lambda: qfisher.covariance_bound_check(
            _gauss2d_problem(grid_g, sigma), (0.0, 0.0), n_samples=100_000, seed=cov_seed),
        lambda rep: {
            "empirical": rep.empirical.tolist(),
            "bound": rep.bound.tolist(),
            "min_eig": rep.min_eig,
            "stderr": rep.stderr,
            "psd_margin": rep.psd_margin,
        },
        {"dims": 2, "covariance": var},
    ))

    sample_grid = qfisher.GridSpec.box(-10.0, 10.0, 513, 2)
    g_s = qfisher.zoo.random_density(sample_grid, int(rng.integers(0, 2**31)))
    sample_seed = int(rng.integers(0, 2**31))
    mean = g_s.mean()
    std = [math.sqrt(g_s.expectation((x - m) ** 2)) for x, m in zip(sample_grid.mesh(), mean)]
    ops.append(Op(
        "sample2d", "samples",
        lambda: qfisher.sample_density(g_s, 100_000, np.random.default_rng(sample_seed)),
        lambda pts: {
            "shape": list(pts.shape),
            "finite": bool(np.all(np.isfinite(pts))),
            "inside": bool(np.all((pts >= -10.0) & (pts <= 10.0))),
            "mean": pts.mean(axis=1).tolist(),
        },
        {"dims": 2, "n": 100_000, "mean": mean.tolist(), "std": std},
    ))
    return [ops]


DESCENT_VARIANTS = (
    ("default", []),
    ("init-file", None),
    ("n257", ["--grid-points", "257"]),
    ("init-uniform", ["--init", "uniform"]),
    ("q1.2", ["--q", "1.2"]),
    ("q1.0", ["--q", "1.0"]),
    ("n257-tol1e-12", ["--grid-points", "257", "--tol", "1e-12", "--iters", "6000"]),
)


# seeded starts per descent pass: the iteration count from a random start
# ranges from about 400 to the 5000 cap, so a run needs a few dozen of them for
# the median time-to-solution to settle
DESCENT_STARTS_PER_PASS = 3


def _descent(rng: np.random.Generator, inputs: Path, outputs: Path) -> list[list[Op]]:
    fixed = {tag: _cli_op(f"minimize-{tag}", "minimize", ["minimize"] + flags, outputs / tag,
                          {}, _minimize_outputs)
             for tag, flags in DESCENT_VARIANTS if flags is not None}
    # a random two-bump start on the default grid (513 points, half-width 10)
    grid = qfisher.GridSpec.line(-10.0, 10.0, 513)
    passes = []
    for i in range(PASS_DRAWS):
        drawn = []
        for j in range(DESCENT_STARTS_PER_PASS):
            start = qfisher.zoo.mixture_density(
                grid,
                np.sort(rng.uniform(-1.5, 1.5, 2)),
                rng.uniform(0.4, 0.9, 2),
                rng.uniform(0.3, 0.7, 2),
            )
            path = inputs / f"descent_start_{i:02d}_{j}.json"
            start.save_json(path)
            drawn.append(_cli_op("minimize-init-file", "minimize",
                                 ["minimize", "--init", "file", "--density-file", str(path)],
                                 outputs / "init-file", {}, _minimize_outputs))
        ops = []
        for tag, flags in DESCENT_VARIANTS:
            ops.extend([fixed[tag]] if flags is not None else drawn)
        passes.append(ops)
    return passes


def build(workload: str, seed: int, work_dir: Path) -> list[list[Op]]:
    """Generate the workload's inputs from `seed` under work_dir.

    Returns the ops of each pass; pass i of a run runs entry i modulo their
    number.  Where an input is drawn per pass (flow's sigma0, descent's
    start), a run's median pass rests on several draws, not on one.
    """
    builders = {"flow": _flow, "checks": _checks, "descent": _descent}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    inputs = work_dir / "inputs"
    outputs = work_dir / "outputs"
    inputs.mkdir(parents=True, exist_ok=True)
    outputs.mkdir(parents=True, exist_ok=True)
    return builders[workload](np.random.default_rng(seed), inputs, outputs)
