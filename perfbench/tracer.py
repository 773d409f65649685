"""Spans and counts at the boundaries between trialsize's layers.

The tracer replaces module-level functions of the program with wrappers from
outside, so the program's source stays as it is.  Each wrapper records one
span (name, start, end, parent) in memory; the spans are written out when the
run ends.  A layer's self time is its spans' time minus the time of their
child spans.  Work done is counted by wrapping the callables handed to
``integrate``, ``find_root``, ``size_invert`` and ``dropout_averaged_power``.

A function that a later change of the program removes is reported as absent;
its metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module of trialsize, function, span name).  Several functions may share a
# span name; the per-layer metrics aggregate by span name.
LAYER_FUNCTIONS = (
    ("dist", "t_cdf", "dist.t_cdf"),
    ("dist", "_f_sf", "dist.f_sf"),
    ("dist", "_f_sf_ncp_grid", "dist.f_sf_grid"),
    ("dist", "_nct_upper_tail_grid", "dist.nct_grid"),
    ("dist", "_nct_cdf_ncp_grid", "dist.nct_grid"),
    ("dist", "integrate", "dist.integrate"),
    ("dist", "find_root", "dist.find_root"),
    ("core", "size_invert", "core.size_invert"),
    ("mmrm", "mmrm_derived", "mmrm.derived"),
    ("mmrm", "dropout_averaged_power", "mmrm.dropout_average"),
    ("simulate", "_substream", "simulate.substream"),
    ("simulate", "_simulate_one_sample", "simulate.engine"),
    ("simulate", "_simulate_two_sample", "simulate.engine"),
    ("simulate", "_simulate_crossover", "simulate.engine"),
    ("simulate", "_simulate_ancova", "simulate.engine"),
    ("simulate", "_simulate_mmrm", "simulate.engine"),
    ("simulate", "_analyze_mmrm_chunk", "simulate.analysis"),
    ("simulate", "_decide", "simulate.analysis"),
    ("simulate", "analyze_ancova", "simulate.fallback"),
    ("simulate", "analyze_mmrm", "simulate.fallback"),
    ("config", "load_design", "config.load_design"),
)

# span name -> (name of the callable parameter, counter, count abscissae
# rather than calls).  The callable is the first parameter of each.
COUNTED_CALLABLES = {
    "dist.integrate": ("fn", "dist.integrate.evals", True),
    "dist.find_root": ("fn", "dist.find_root.evals", False),
    "core.size_invert": ("power_fn", "core.size_invert.power_evals", False),
    "mmrm.dropout_average": ("power_at", "mmrm.dropout_average.power_evals", False),
}

# the simulator's analysis, including the per-replicate fallback fits
_ANALYSIS = ("simulate.analysis", "simulate.fallback")


class Tracer:
    """Installs the wrappers, keeps the spans and turns them into metrics."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start, end, parent span index or -1)
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every layer function, in every trialsize module that binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "trialsize" or n.startswith("trialsize.")]
        self.absent = []
        for module_name, attr, span in LAYER_FUNCTIONS:
            try:
                module = importlib.import_module(f"trialsize.{module_name}")
            except ModuleNotFoundError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, span)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched = []

    def _name_index(self, span: str) -> int:
        if span not in self.names:
            self.names.append(span)
        return self.names.index(span)

    def _wrap(self, fn, span: str):
        name_id = self._name_index(span)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        counted = COUNTED_CALLABLES.get(span)

        def count_calls(inner, key, per_point):
            def counting(x, *args, **kwargs):
                counts[key] += len(x) if per_point else 1
                return inner(x, *args, **kwargs)

            return counting

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counted is not None:
                param, key, per_point = counted
                if args:
                    args = (count_calls(args[0], key, per_point),) + args[1:]
                else:
                    kwargs[param] = count_calls(kwargs[param], key, per_point)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)

        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            json.dump({"names": self.names, "absent": self.absent,
                       "counts": dict(self.counts), "spans": self.spans}, out)

    def layer_metrics(self, replicates: int, failures: int, overhead: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far.

        ``replicates`` and ``failures`` are the traced pass's simulated
        replicates and failed analyses; ``overhead`` is its traced against
        untraced wall time.
        """
        calls = Counter()
        inclusive = defaultdict(float)
        own = defaultdict(float)
        children = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        analysis_ids = {self.names.index(n) for n in _ANALYSIS if n in self.names}
        integrate_id = self.names.index("dist.integrate") if "dist.integrate" in self.names else -1
        top_analysis = 0.0
        inner_integrals = 0
        for index, (name_id, start, end, parent) in enumerate(self.spans):
            name = self.names[name_id]
            calls[name] += 1
            inclusive[name] += end - start
            own[name] += end - start - children[index]
            if name_id in analysis_ids and (parent < 0 or self.spans[parent][0] not in analysis_ids):
                top_analysis += end - start
            if name_id == integrate_id:
                up = parent
                while up >= 0 and self.spans[up][0] != integrate_id:
                    up = self.spans[up][3]
                inner_integrals += up >= 0

        def per_call(name: str, scale: float) -> float:
            return scale * own[name] / calls[name] if calls[name] else 0.0

        def per_rep(seconds: float) -> float:
            return 1e6 * seconds / replicates if replicates else 0.0

        inversions = calls["core.size_invert"]
        return {
            "dist.t_cdf.calls": calls["dist.t_cdf"],
            "dist.t_cdf.us_per_call": per_call("dist.t_cdf", 1e6),
            "dist.f_sf.calls": calls["dist.f_sf"],
            "dist.f_sf.us_per_call": per_call("dist.f_sf", 1e6),
            "dist.f_sf_grid.calls": calls["dist.f_sf_grid"],
            "dist.f_sf_grid.us_per_call": per_call("dist.f_sf_grid", 1e6),
            "dist.nct_grid.calls": calls["dist.nct_grid"],
            "dist.nct_grid.us_per_call": per_call("dist.nct_grid", 1e6),
            "dist.integrate.calls": calls["dist.integrate"],
            "dist.integrate.evals": self.counts["dist.integrate.evals"],
            "dist.integrate.self_s": own["dist.integrate"],
            "dist.find_root.evals": self.counts["dist.find_root.evals"],
            "equivalence.inner_integrals": inner_integrals,
            "core.size_invert.calls": inversions,
            "core.size_invert.power_evals_per_call": (
                self.counts["core.size_invert.power_evals"] / inversions if inversions else 0.0
            ),
            "core.size_invert.s": inclusive["core.size_invert"],
            "mmrm.derived.calls": calls["mmrm.derived"],
            "mmrm.derived.us_per_call": per_call("mmrm.derived", 1e6),
            "mmrm.dropout_average.power_evals": self.counts["mmrm.dropout_average.power_evals"],
            "simulate.substream.calls": calls["simulate.substream"],
            "simulate.substream.us_per_call": per_call("simulate.substream", 1e6),
            "simulate.generation.us_per_rep": per_rep(inclusive["simulate.engine"] - top_analysis),
            "simulate.analysis.us_per_rep": per_rep(top_analysis),
            "simulate.fallback_fits": calls["simulate.fallback"],
            "simulate.failures": failures,
            "config.load_design.us_per_call": per_call("config.load_design", 1e6),
            "trace.overhead": overhead,
        }
