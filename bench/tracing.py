"""Per-layer tracing: spans around every public riskshare function.

`Tracer.install` wraps each public function of each layer module and puts the
wrapper at every module binding of the function's name, so calls through a
`from .strategic import reported_utility` binding are seen as well. Spans
are kept in memory in flat arrays (function, parent span, tag, start, end) and
turned into metrics once, at the end. A span's self time is its duration
minus the durations of its child spans; calls are strictly nested on one
thread, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

LAYERS = ("core", "pareto", "strategic", "nash", "oracle", "experiments", "cli")
MOMENTS = ("mean", "cov", "var", "mv_utility")
OBJECTIVES = ("deviation_gain", "clearing_utility")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.labels: list[tuple[str, str]] = []  # (layer, function name)
        self.fid = array("i")
        self.parent = array("i")
        self.tag = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: list[int] = []
        self.stack = [-1]
        self.tags = [""]
        self.tag_id = 0
        self.rv_allocs = 0
        self.exit_codes: list[int] = []
        self.percentage: list = []  # (span index, n) of each solve
        self.unconverged = 0  # solves returned with converged false
        self.dynamics: list = []  # (rounds, converged)
        self._undo: list = []

    def set_tag(self, tag: str) -> None:
        if tag not in self.tags:
            self.tags.append(tag)
        self.tag_id = self.tags.index(tag)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        observers = {
            ("cli", "main"): self.exit_codes.append,
            ("nash", "nash_percentage"): self._percentage_returned,
            ("oracle", "best_response_dynamics"): lambda r: self.dynamics.append(
                (r.rounds_run, r.converged)),
        }
        # a solve that raises ConvergenceError returns nothing to observe, so
        # its iterations are counted from its percentage_best_response spans
        on_call = {("nash", "nash_percentage"): lambda idx, market, *_, **__:
                   self.percentage.append((idx, market.n))}
        wrappers = {}
        for layer in LAYERS:
            module = self.modules[layer]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    self.labels.append((layer, name))
                    self.errors.append(0)
                    wrappers[obj] = self._wrap(
                        len(self.labels) - 1, obj, observers.get((layer, name)),
                        on_call.get((layer, name)))
        for namespace in [self.package, *self.modules.values()]:
            for name, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(namespace, name, wrappers[obj])
        rv = self.modules["core"].Rv
        post_init = rv.__post_init__

        def counted(instance):
            self.rv_allocs += 1
            post_init(instance)

        self._patch(rv, "__post_init__", counted)

    def _percentage_returned(self, outcome) -> None:
        self.unconverged += not outcome.converged

    def _patch(self, owner, name, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def _wrap(self, fid, func, observe, on_call):
        fids, parents, tags = self.fid, self.parent, self.tag
        starts, ends, stack, errors = self.start, self.end, self.stack, self.errors
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            tags.append(self.tag_id)
            ends.append(0.0)
            stack.append(idx)
            if on_call is not None:
                on_call(idx, *args, **kwargs)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            except BaseException:
                errors[fid] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    # -- metrics -----------------------------------------------------------

    def spans(self):
        """Arrays fid, tag, duration and self time of every span."""
        fid = np.frombuffer(self.fid, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        tag = np.frombuffer(self.tag, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        covered = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        return fid, tag, dur, dur - covered

    def function_table(self):
        """(layer, name, calls, inclusive s, self s), busiest first."""
        fid, _, dur, self_t = self.spans()
        calls = np.bincount(fid, minlength=len(self.labels))
        incl = np.bincount(fid, weights=dur, minlength=len(self.labels))
        excl = np.bincount(fid, weights=self_t, minlength=len(self.labels))
        rows = [(*self.labels[k], int(calls[k]), float(incl[k]), float(excl[k]))
                for k in range(len(self.labels)) if calls[k]]
        return sorted(rows, key=lambda r: -r[4])

    def metrics(self, tags: list[str]) -> dict:
        fid, tag, dur, self_t = self.spans()
        layer_of = np.array([LAYERS.index(layer) for layer, _ in self.labels])
        span_layer = layer_of[fid] if len(fid) else fid

        def ids(layer, *names):
            return [k for k, (l, n) in enumerate(self.labels)
                    if l == layer and (not names or n in names)]

        def calls(layer, *names, mask=None):
            sel = np.isin(fid, ids(layer, *names))
            return int(np.count_nonzero(sel if mask is None else sel & mask))

        def total(values, layer, *names, mask=None):
            sel = np.isin(fid, ids(layer, *names))
            return float(values[sel if mask is None else sel & mask].sum())

        out = {}
        for k, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = int(np.count_nonzero(span_layer == k))
            out[f"{layer}.self_s"] = float(self_t[span_layer == k].sum())
            out[f"{layer}.errors"] = sum(self.errors[j] for j in ids(layer))
        out["core.rv_allocs"] = self.rv_allocs
        out["core.moment_calls"] = calls("core", *MOMENTS)
        out["strategic.reported_utility_calls"] = calls("strategic", "reported_utility")
        out["nash.endowment_s"] = total(dur, "nash", "nash_endowment")
        out["nash.percentage_s"] = total(dur, "nash", "nash_percentage")
        # each iteration makes n best-response calls, and the final residual
        # check n more; a solve that rejects its arguments makes none
        parent = np.frombuffer(self.parent, dtype=np.int32)
        responses = np.isin(fid, ids("nash", "percentage_best_response")) & (parent >= 0)
        per_span = np.bincount(parent[responses], minlength=len(fid))
        iterations = [max(per_span[idx] // n - 1, 0) for idx, n in self.percentage]
        out["nash.percentage_iterations"] = int(sum(iterations))
        out["nash.percentage_iterations_mean"] = (
            float(np.mean(iterations)) if iterations else 0.0)
        out["nash.percentage_failures"] = self.unconverged + sum(
            self.errors[j] for j in ids("nash", "nash_percentage"))
        out["oracle.objective_evals"] = calls("oracle", *OBJECTIVES)
        out["oracle.brd_rounds"] = sum(r for r, _ in self.dynamics)
        out["oracle.converged_frac"] = (
            sum(ok for _, ok in self.dynamics) / len(self.dynamics)
            if self.dynamics else 0.0)
        out["cli.ingest_s"] = total(dur, "cli", "load_market_file")
        codes = self.exit_codes
        for code in (0, 2, 3, 4):
            out[f"cli.exit_{code}"] = codes.count(code)
        out["cli.exit_other"] = (len(codes) - sum(codes.count(c) for c in (0, 2, 3, 4))
                                 + sum(self.errors[j] for j in ids("cli", "main")))
        for name in tags:
            at = tag == (self.tags.index(name) if name in self.tags else -1)
            out[f"nash.endowment_s.{name}"] = total(dur, "nash", "nash_endowment", mask=at)
            out[f"nash.percentage_s.{name}"] = total(dur, "nash", "nash_percentage", mask=at)
            out[f"pareto.self_s.{name}"] = float(self_t[at & (span_layer == LAYERS.index("pareto"))].sum())
            out[f"strategic.reported_utility_calls.{name}"] = calls(
                "strategic", "reported_utility", mask=at)
        return out
