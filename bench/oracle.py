"""Op oracle: judges each op's record by continuum facts that hold for every seed.

A record gets two lists of problems.

* ``wrong`` means the op did not produce a well-formed answer whose numbers
  agree with the continuum truth: it crashed (an untyped exception, a CLI
  "internal error" or any exit code but 0, 2 and a typed refusal), left no
  summary, reported non-finite or self-contradictory numbers, or missed a
  known continuum value by more than a loose tolerance.  Such an op counts
  as failed, and a run with one is not correct.
* ``verdict`` means the op's answer is well-formed but its verdict is not the
  one the continuum inequality gives: a typed refusal of the input (a
  ``QFisherError``, which the CLI reports as "error: ..." with exit 1), an
  exit code other than 0, a margin
  below -1e-6 (the CLI's own rule), a matched equality input not reported as
  saturated, a minimizer that did not converge or undershot the dimension,
  a de Bruijn error above 2e-2 or an entropy series that decreases, a
  Gaussian Fisher value off its closed form by more than 1e-3, or a sampled
  covariance bound with negative PSD margin.  These ops do not pass; the
  share that pass is the ``pass_ratio`` metric.

Tolerances of the ``wrong`` tier are ten times looser than the verdict tier,
so a verdict that flips on discretisation error is a verdict problem, and a
number that is plainly wrong is a wrong answer.
"""

from __future__ import annotations

import copy
import math

MARGIN_TOL = 1e-6
SATURATION_REL = 1e-2
DEBRUIJN_REL_ERR = 2e-2
FISHER_REL = 1e-3
LOOSE = 10.0
SAMPLE_MEAN_SE = 6.0

CLI_KINDS = {"qcr", "uncertainty", "fisher", "divergence", "minimize", "debruijn"}


def _finite_tree(x) -> bool:
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return True
    if isinstance(x, (int, float)):
        return math.isfinite(x)
    if isinstance(x, dict):
        return all(_finite_tree(v) for v in x.values())
    if isinstance(x, (list, tuple)):
        return all(_finite_tree(v) for v in x)
    return True


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _bound(r: dict, expect: dict, wrong: list, verdict: list) -> None:
    lhs, rhs, margin = r["lhs"], r["rhs"], r["margin"]
    want_rhs = expect.get("rhs", float(expect["dims"]))
    if _rel(rhs, want_rhs) > 1e-9:
        wrong.append(f"rhs {rhs!r} is not the bound {want_rhs!r}")
    if abs(margin - (lhs - rhs)) > 1e-9 * max(1.0, abs(lhs)):
        wrong.append(f"margin {margin!r} is not lhs - rhs")
    if lhs < rhs * (1.0 - LOOSE * SATURATION_REL):
        wrong.append(f"lhs {lhs!r} lies far below the bound {rhs!r}")
    if margin < -MARGIN_TOL:
        verdict.append(f"margin {margin:.3e} < -{MARGIN_TOL:g}")
    if expect.get("matched"):
        if _rel(lhs, rhs) > SATURATION_REL:
            wrong.append(f"equality input off the bound: lhs/rhs - 1 = {lhs / rhs - 1.0:.3e}")
        if not r["saturated"]:
            verdict.append("matched equality input not reported saturated")
    if "lhs" in expect and _rel(lhs, expect["lhs"]) > SATURATION_REL:
        wrong.append(f"lhs {lhs!r} differs from its closed form {expect['lhs']!r}")


def _fisher(r: dict, expect: dict, wrong: list, verdict: list) -> None:
    value = r["value"]
    if not value > 0.0:
        wrong.append(f"Fisher value {value!r} is not positive")
    if "exact" in expect:
        err = _rel(value, expect["exact"])
        if err > LOOSE * FISHER_REL:
            wrong.append(f"Fisher value {value!r} is off its closed form {expect['exact']!r}")
        elif err > FISHER_REL:
            verdict.append(f"Fisher value off its closed form by {err:.2e}")


def _divergence(r: dict, expect: dict, wrong: list, verdict: list) -> None:
    if r["value"] < 0.0 or r["coarse_value"] < 0.0:
        wrong.append("negative divergence")
    if abs(r["monotonicity_margin"] - (r["value"] - r["coarse_value"])) > 1e-12 * max(1.0, r["value"]):
        wrong.append("monotonicity margin is not fine - coarse")


def _minimize(rec: dict, expect: dict, wrong: list, verdict: list) -> None:
    r = rec["summary"]["results"]
    final, trace, dims = r["final_objective"], rec["trace"], expect["dims"]
    if not trace or trace[-1] != final:
        wrong.append("objective trace does not end at the final objective")
    if any(b > a for a, b in zip(trace, trace[1:])):
        wrong.append("objective trace increases")
    if final < dims * (1.0 - LOOSE * SATURATION_REL):
        wrong.append(f"J^(1/beta) = {final!r} lies far below the dimension")
    if final < dims - MARGIN_TOL:
        verdict.append(f"J^(1/beta) = {final!r} < n - {MARGIN_TOL:g}")
    if not r["converged"]:
        verdict.append(f"not converged (J^(1/beta) = {final:.6g})")


def _debruijn(rec: dict, expect: dict, wrong: list, verdict: list) -> None:
    worst = rec["summary"]["results"]["worst_rel_err"]
    entropy = rec["entropy"]
    if not entropy or not _finite_tree(entropy):
        wrong.append("empty or non-finite entropy series")
        return
    if worst > LOOSE * DEBRUIJN_REL_ERR:
        wrong.append(f"worst relative error {worst!r} far above {DEBRUIJN_REL_ERR:g}")
    elif worst > DEBRUIJN_REL_ERR:
        verdict.append(f"worst relative error {worst:.3e} > {DEBRUIJN_REL_ERR:g}")
    if any(b < a for a, b in zip(entropy, entropy[1:])):
        verdict.append("S_q decreases along the flow")
    if expect.get("snapshots") and rec["snapshots"] == 0:
        wrong.append("no snapshots written")


def _covariance(r: dict, expect: dict, wrong: list, verdict: list) -> None:
    var, bound = expect["covariance"], r["bound"]
    for i, v in enumerate(var):
        if _rel(bound[i][i], v) > SATURATION_REL:
            wrong.append(f"bound[{i}][{i}] = {bound[i][i]!r} is not the variance {v!r}")
    if abs(bound[0][1]) > SATURATION_REL:
        wrong.append("bound has a spurious off-diagonal term")
    if abs(r["psd_margin"] - (r["min_eig"] + 3.0 * r["stderr"])) > 1e-12:
        wrong.append("psd_margin is not min_eig + 3 stderr")
    if r["psd_margin"] < 0.0:
        verdict.append(f"psd_margin {r['psd_margin']:.3e} < 0")


def _samples(r: dict, expect: dict, wrong: list, verdict: list) -> None:
    if r["shape"] != [expect["dims"], expect["n"]]:
        wrong.append(f"sample shape {r['shape']}")
        return
    if not (r["finite"] and r["inside"]):
        wrong.append("samples are non-finite or leave the grid")
    for i, (m, want, sd) in enumerate(zip(r["mean"], expect["mean"], expect["std"])):
        if abs(m - want) > SAMPLE_MEAN_SE * sd / math.sqrt(expect["n"]):
            wrong.append(f"sample mean {m!r} on axis {i} is off the density mean {want!r}")


def _refusal(kind: str, rec: dict) -> str | None:
    """The program's typed refusal of the op's input, if that is what it gave."""
    if "refused" in rec:
        return rec["refused"]
    if kind in CLI_KINDS and rec.get("rc") == 1 and rec["stderr"].startswith("error:"):
        return rec["stderr"].splitlines()[0]
    return None


def judge(kind: str, expect: dict, rec: dict) -> tuple[list[str], list[str]]:
    """Returns (wrong, verdict) problems of one op's record."""
    wrong: list[str] = []
    verdict: list[str] = []
    if "error" in rec:
        return [rec["error"]], verdict
    refusal = _refusal(kind, rec)
    if refusal is not None:
        return wrong, [f"refused: {refusal}"]
    if kind in CLI_KINDS:
        rc = rec["rc"]
        if rc not in (0, 2):
            return [f"exit {rc}: {rec['stderr'].strip()[:200]}"], verdict
        if "summary" not in rec:
            return ["no summary written"], verdict
        if rec["summary"].get("exit_status") != rc:
            wrong.append("summary exit_status differs from the exit code")
        if rc != 0:
            verdict.append(f"exit {rc}")
        r = rec["summary"].get("results", {})
    else:
        r = rec
    if not _finite_tree(r):
        return wrong + ["non-finite number in the results"], verdict
    if kind in ("qcr", "uncertainty", "bound"):
        _bound(r, expect, wrong, verdict)
    elif kind == "fisher":
        _fisher(r, expect, wrong, verdict)
    elif kind == "divergence":
        _divergence(r, expect, wrong, verdict)
    elif kind == "minimize":
        _minimize(rec, expect, wrong, verdict)
    elif kind == "debruijn":
        _debruijn(rec, expect, wrong, verdict)
    elif kind == "covariance":
        _covariance(r, expect, wrong, verdict)
    elif kind == "samples":
        _samples(r, expect, wrong, verdict)
    else:
        wrong.append(f"no oracle for op kind {kind!r}")
    return wrong, verdict


# ------------------------------------------------------- tampering self-check


def _results(rec: dict, kind: str) -> dict:
    return rec["summary"]["results"] if kind in CLI_KINDS else rec


def _tampers(kind: str, expect: dict):
    """Yields (label, tier, mutate) for outputs the oracle must reject."""
    if kind in CLI_KINDS:
        yield "internal error", "wrong", lambda t: t.update(rc=1, stderr="internal error: tampered")

        def violated(t):
            t["rc"] = 2
            t["summary"]["exit_status"] = 2
        yield "exit 2", "verdict", violated
    if kind in ("qcr", "uncertainty", "bound"):
        def below(t):
            r = _results(t, kind)
            r["lhs"] = 0.5 * r["rhs"]
            r["margin"] = r["lhs"] - r["rhs"]
        yield "lhs at half the bound", "wrong", below
        if expect.get("matched"):
            yield "not saturated", "verdict", lambda t: _results(t, kind).update(saturated=False)
    if kind == "fisher" and "exact" in expect:
        yield "value +0.5%", "verdict", lambda t: _results(t, kind).update(value=expect["exact"] * 1.005)
        yield "value +5%", "wrong", lambda t: _results(t, kind).update(value=expect["exact"] * 1.05)
    if kind == "divergence":
        def negative(t):
            r = _results(t, kind)
            r["value"] = -1.0
            r["monotonicity_margin"] = r["value"] - r["coarse_value"]
        yield "negative divergence", "wrong", negative
    if kind == "minimize":
        yield "not converged", "verdict", lambda t: _results(t, kind).update(converged=False)
        yield "trace reversed", "wrong", lambda t: t.update(trace=t["trace"][::-1])
    if kind == "debruijn":
        yield "S_q reversed", "verdict", lambda t: t.update(entropy=t["entropy"][::-1])
        yield "error 0.5", "wrong", lambda t: _results(t, kind).update(worst_rel_err=0.5)
    if kind == "covariance":
        def negative_psd(t):
            t["min_eig"] = -1.0
            t["psd_margin"] = t["min_eig"] + 3.0 * t["stderr"]
        yield "psd margin negative", "verdict", negative_psd
        yield "bound doubled", "wrong", lambda t: t.update(bound=[[2.0 * b for b in row] for row in t["bound"]])
    if kind == "samples":
        yield "samples shifted", "wrong", lambda t: t.update(mean=[m + 1.0 for m in t["mean"]])


def tamper_check(records: list[tuple[str, str, dict, dict]]) -> tuple[int, list[str]]:
    """Feeds the oracle tampered copies of real records.

    `records` holds (op name, kind, expect, record).  A case is tried only on a
    well-formed record (no wrong-answer problem, no refusal) that is clean in
    the tier the tampering targets, so every case tests a rejection the
    oracle had to make.  Returns (cases tried, cases the oracle wrongly
    accepted).
    """
    tried, accepted = 0, []
    for name, kind, expect, rec in records:
        base = judge(kind, expect, rec)
        if base[0] or _refusal(kind, rec) is not None:
            continue
        for label, tier, mutate in _tampers(kind, expect):
            index = 0 if tier == "wrong" else 1
            if base[index]:
                continue
            tampered = copy.deepcopy(rec)
            mutate(tampered)
            tried += 1
            if not judge(kind, expect, tampered)[index]:
                accepted.append(f"{name}: {label}")
    return tried, accepted
