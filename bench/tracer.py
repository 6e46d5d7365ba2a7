"""Outside-in layer tracer for the qfisher package.

``Tracer.install`` wraps the public functions named in ``TARGETS`` without
editing the package: every attribute of every loaded ``qfisher`` module
(the package namespace included) that *is* a target function is rebound to
its wrapper.  That reaches call sites that imported the function by name,
e.g. ``diffusion`` calling ``q_fisher`` or ``cli`` calling ``q_cr_check``.
``GridDensity.from_values`` is rebound on the class as a staticmethod.

Each call records a span (id, layer, start, end, parent span, op id) in
memory; ``write_spans`` dumps them once the run is over.  Self time is a
span's duration minus the time its child spans cover, accumulated as spans
close.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

MODULES = (
    "cli", "grid", "densities", "divergences", "fisher", "cramer_rao",
    "minimizer", "diffusion", "uncertainty", "sampling", "zoo",
)

TARGETS = (
    "cli.main",
    "grid.GridDensity.from_values",
    "grid.lp_norm",
    "densities.make_q_gaussian",
    "densities.moment",
    "densities.escort",
    "densities.m_q_functional",
    "densities.tsallis_entropy",
    "densities.fit_q_gaussian",
    "divergences.chi_beta_g",
    "fisher.q_fisher",
    "fisher.chi2_limit_check",
    "fisher.fisher_matrix",
    "fisher.generalized_fisher",
    "cramer_rao.q_cr_check",
    "cramer_rao.multidim_cr_check",
    "cramer_rao.covariance_bound_check",
    "minimizer.minimize_q_fisher",
    "minimizer.gradient_adjoint",
    "diffusion.step",
    "diffusion.stable_dt",
    "diffusion.evolve",
    "diffusion.debruijn_check",
    "uncertainty.uncertainty_check",
    "uncertainty.fourier_transform",
    "uncertainty.saturating_wavefunction",
    "sampling.sample_density",
    "zoo.random_density",
    "zoo.gaussian_density",
    "zoo.mixture_density",
)


def _cell_updates(args, kwargs, result):
    return args[0].density.values.size


def _draws(args, kwargs, result):
    return kwargs["n"] if "n" in kwargs else args[1]


def _iters(args, kwargs, result):
    return result.n_iters


# counters read off a call where the work happens: layer -> (name, fn)
COUNTERS = {
    "diffusion.step": ("diffusion.cell_updates", _cell_updates),
    "sampling.sample_density": ("sampling.draws", _draws),
    "minimizer.minimize_q_fisher": ("minimizer.iters", _iters),
}


class Tracer:
    def __init__(self):
        self.calls = [0] * len(TARGETS)
        self.self_ns = [0] * len(TARGETS)
        self.errors = Counter()
        self.counters = Counter()
        # flat int64 records: span id, layer index, start, end, parent, op
        self.spans = array("q")
        self.op_id = -1
        self._next_id = 0
        self._stack = []  # [span id, ns covered by children] per open span

    def _wrap(self, index: int, fn, counter=None):
        module = TARGETS[index].split(".", 1)[0]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span, 0]
            self._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[module] += 1
                raise
            finally:
                end = clock()
                self._stack.pop()
                duration = end - start
                self.calls[index] += 1
                self.self_ns[index] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans.extend((span, index, start, end, parent, self.op_id))
            if counter is not None:
                self.counters[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebinds every target in every loaded qfisher module."""
        import qfisher.grid

        loaded = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "qfisher" or name.startswith("qfisher."))]
        for index, target in enumerate(TARGETS):
            module_name, attr = target.split(".", 1)
            counter = COUNTERS.get(target)
            if target == "grid.GridDensity.from_values":
                cls = qfisher.grid.GridDensity
                original = cls.__dict__["from_values"].__func__
                cls.from_values = staticmethod(self._wrap(index, original, counter))
                continue
            original = getattr(sys.modules[f"qfisher.{module_name}"], attr)
            wrapper = self._wrap(index, original, counter)
            for module in loaded:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass calls, self time (ms), counters and escaped errors."""
        out = {}
        for target, calls, self_ns in zip(TARGETS, self.calls, self.self_ns):
            out[f"{target}.calls"] = calls / passes
            out[f"{target}.self_ms"] = self_ns / 1e6 / passes
        for name, _ in COUNTERS.values():
            out[name] = self.counters[name] / passes
        for module in MODULES:
            out[f"{module}.errors"] = self.errors[module] / passes
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,layer,start_ns,end_ns,parent,op\n")
            rec = self.spans
            for i in range(0, len(rec), 6):
                fh.write(f"{rec[i]},{TARGETS[rec[i + 1]]},{rec[i + 2]},{rec[i + 3]},"
                         f"{rec[i + 4]},{rec[i + 5]}\n")
