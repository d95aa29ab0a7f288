"""Outside-in tracer: spans around the package's public functions.

The tracer replaces a function under the name that its calling module looks
up (``dispersal_mc.models.expand``, ``dispersal_mc.cli.solve_reach`` ...), so
nothing in the package changes. Spans stay in memory; a layer's self time is
its spans' duration minus that of their direct child spans. Sizes are read
from the returned objects. A name that a refactor removed is reported as
missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

ROOT = "cli"
BOOKKEEPING = "trace.bookkeeping"


def _rss_bytes() -> int:
    """Current resident set size; 0 where /proc is unavailable."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return 0


def _count_model(tracer, model, args, rss_before):
    states = model.state_count
    tracer.counts["mdp.states"] += states
    tracer.counts["mdp.transitions"] += model.transition_count
    if states > tracer.largest_expand[0]:
        tracer.largest_expand = (states, _rss_bytes() - rss_before)


def _count_templates(tracer, module, args, _):
    tracer.counts["models.templates"] += len(module.templates)


def _count_qualitative(tracer, sets, args, _):
    prob0, prob1 = sets
    tracer.counts["solver.unknown_states"] += (
        len(args[0].states) - len(prob0) - len(prob1))


def _count_vi(tracer, result, args, _):
    tracer.counts["solver.vi_sweeps"] += result.iterations


def _count_bisim(tracer, result, args, _):
    tracer.counts["bisim.blocks"] += result.blocks
    tracer.counts["bisim.states"] += len(args[0].states) + len(args[1].states)


def _count_export(tracer, text, args, _):
    tracer.counts["prism.bytes"] += len(text.encode("utf-8"))


# (module, attribute, span name, counter). Each attribute is the name under
# which the calling module looks the function up.
WRAP_POINTS = (
    [("dispersal_mc.models", "expand", "mdp.expand", _count_model)]
    + [("dispersal_mc.models", name, "models.template_build", _count_templates)
       for name in ("build_client", "build_client_prime", "build_slice_attacker",
                    "build_provider_attacker", "compose_templates")]
    + [("dispersal_mc.prism", name, "models.template_build", _count_templates)
       for name in ("build_client", "build_slice_attacker", "build_provider_attacker")]
    + [("dispersal_mc.solver", "qualitative_sets", "solver.qualitative",
        _count_qualitative)]
    + [(mod, "solve_reach", "solver.vi", _count_vi)
       for mod in ("dispersal_mc.cli", "dispersal_mc.experiments", "dispersal_mc.bisim")]
    + [(mod, "exact_reach", "solver.exact", None)
       for mod in ("dispersal_mc.cli", "dispersal_mc.experiments")]
    + [(mod, "bisimilar", "bisim.refine", _count_bisim)
       for mod in ("dispersal_mc.cli", "dispersal_mc.bisim")]
    + [("dispersal_mc.cli", name, "bisim.verify", None)
       for name in ("verify_capacity_abstraction", "verify_channel_cutoff")]
    + [("dispersal_mc.cli", "sweep", "experiments.sweep", None),
       ("dispersal_mc.cli", "emit_csv", "experiments.csv", None),
       ("dispersal_mc.cli", "enumerate_oracle", "experiments.oracle", None),
       ("dispersal_mc.cli", "export_prism", "prism.export", _count_export)]
    + [("dispersal_mc.cli", name, "configio.load", None)
       for name in ("load_model_params", "load_sweep_spec", "load_json")]
)

# Layers whose self time is reported, as "<span name>_s".
LAYERS = ("mdp.expand", "models.template_build", "solver.qualitative", "solver.vi",
          "solver.exact", "bisim.refine", "bisim.verify", "experiments.sweep",
          "experiments.csv", "experiments.oracle", "prism.export", "configio.load",
          BOOKKEEPING)
COUNTS = ("mdp.states", "mdp.transitions", "models.templates",
          "solver.unknown_states", "solver.vi_sweeps", "bisim.blocks",
          "bisim.states", "prism.bytes")


class Tracer:
    """Collects spans and sizes from the moment it is installed."""

    def __init__(self, wrap_points=WRAP_POINTS):
        self.wrap_points = wrap_points
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.largest_expand = (0, 0)  # (states, RSS growth in bytes)
        self.missing: list[str] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrapper(self, fn, name: str, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rss = _rss_bytes() if counter is _count_model else 0
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                tracer.call(BOOKKEEPING, counter, tracer, result, args, rss)
            return result
        return traced

    def install(self) -> None:
        """Replace every wrap point by a traced wrapper, for the rest of the process."""
        for mod_name, attr, name, counter in self.wrap_points:
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            setattr(module, attr, self._wrapper(original, name, counter))

    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name] += end - start - child_time[i]
        return dict(totals)

    def layer_metrics(self, wall: float) -> dict[str, float]:
        """Per-layer self times, counts and rates for one traced batch of ``wall`` s.

        ``cli.overhead_s`` is the batch wall minus the self time of every
        layer span, so the layer self times plus it add up to the wall.
        """
        own = self.self_times()
        metrics = {f"{layer}_s": own.get(layer, 0.0) for layer in LAYERS}
        metrics["cli.overhead_s"] = wall - sum(metrics.values())
        metrics.update({name: self.counts.get(name, 0.0) for name in COUNTS})
        expand_s, refine_s = metrics["mdp.expand_s"], metrics["bisim.refine_s"]
        metrics["mdp.states_per_s"] = (metrics["mdp.states"] / expand_s
                                       if expand_s else 0.0)
        metrics["bisim.states_per_s"] = (metrics["bisim.states"] / refine_s
                                         if refine_s else 0.0)
        states, grown = self.largest_expand
        metrics["mdp.bytes_per_state_rss"] = grown / states if states else 0.0
        metrics["trace.missing_spans"] = float(len(self.missing))
        metrics["trace.wall_s"] = wall
        return metrics
