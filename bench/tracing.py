"""Spans around the program's layers, recorded from outside the program.

:class:`Tracer` replaces functions and methods of the ``cbandits``
modules with wrappers that record a span (name, start, end, parent) per
call.  Every module that imported a wrapped function by name gets the
wrapper too, so calls between modules are seen.  A layer's self time is
its span time minus the time of its child spans.  Spans of one group
nested in each other (a parse step calling another) count once in the
group's inclusive time.

Wrappers record only while ``recording`` is set, so checks that call
the library between operations stay out of the trace.  Targets missing
from the program (a refactor removed or renamed them) are skipped and
their metrics read 0.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# Spans kept for the trace file; every span is counted in the totals.
MAX_KEPT_SPANS = 50_000


class _Frame:
    __slots__ = ("group", "name", "span_id", "start", "children")

    def __init__(self, group, name, span_id, start):
        self.group = group
        self.name = name
        self.span_id = span_id
        self.start = start
        self.children = 0.0


class Tracer:
    def __init__(self):
        self.recording = False
        self.keep_spans = False
        self.spans: list[tuple] = []
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self.chunks: list[tuple[int, int, int, int]] = []
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _enter(self, group: str, name: str) -> _Frame:
        frame = _Frame(group, name, self._next_id, time.perf_counter())
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        parent = self._stack[-1] if self._stack else None
        self.calls[frame.group] += 1
        self.self_time[frame.group] += duration - frame.children
        if parent is None or parent.group != frame.group:
            self.inclusive[frame.group] += duration
        if parent is not None:
            parent.children += duration
        if self.keep_spans and len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((frame.name, frame.start, end, frame.span_id,
                               parent.span_id if parent else None))

    def _wrap(self, group: str, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            frame = tracer._enter(group, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def wrap_function(self, module_name: str, attr: str, group: str, after=None) -> None:
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = self._wrap(group, f"{module_name.split('.')[-1]}.{attr}", original, after)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("cbandits"):
                for name, value in list(vars(loaded).items()):
                    if value is original:
                        self._restore.append((loaded, name, original))
                        setattr(loaded, name, wrapper)

    def wrap_methods(self, module_name: str, method: str, group: str, after=None) -> None:
        """Wrap ``method`` on every class of the module that defines it."""
        module = sys.modules.get(module_name)
        for cls in list(vars(module).values()) if module else ():
            if isinstance(cls, type) and cls.__module__ == module_name:
                original = cls.__dict__.get(method)
                if callable(original):
                    self._restore.append((cls, method, original))
                    setattr(cls, method, self._wrap(group, f"{cls.__name__}.{method}",
                                                    original, after))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()


def _count_quantile_values(tracer: Tracer, args: tuple, result) -> None:
    u = args[1] if len(args) > 1 else None
    tracer.counters["quantile_values"] += getattr(u, "size", 1)


def _count_chunk(tracer: Tracer, args: tuple, result) -> None:
    config = args[0] if len(args) >= 3 else None
    horizon = getattr(config, "horizon", None)
    if horizon is None:
        return
    reps = args[2] - args[1]
    tracer.counters["replication_steps"] += reps * horizon
    tracer.counters["lockstep_steps"] += horizon
    # The chunk's uniform matrix, computed from its layout: reps x 4T doubles.
    tracer.counters["uniform_matrix_bytes"] = max(
        tracer.counters["uniform_matrix_bytes"], reps * 4 * horizon * 8)
    tracer.chunks.append((config.master_seed, args[1], args[2], horizon))


def _count_nodes(tracer: Tracer, args: tuple, result) -> None:
    tracer.counters["oracle_nodes"] += getattr(result, "nodes", 0)


def _count_bytes(tracer: Tracer, args: tuple, result) -> None:
    tracer.counters["output_bytes"] += os.path.getsize(args[0])


PARSE = "cli.parse"


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of each layer of the program."""
    tracer.wrap_function("cbandits.cli", "main", "cli.main")
    for attr in ("load_config_file", "experiment_from_mapping", "_parse_sections"):
        tracer.wrap_function("cbandits.cli", attr, PARSE)
    tracer.wrap_function("cbandits.harness", "run_experiment", "harness.run_experiment")
    tracer.wrap_function("cbandits.harness", "run_chunk", "harness.run_chunk", _count_chunk)
    for attr in ("write_results_csv", "write_summary_json"):
        tracer.wrap_function("cbandits.harness", attr, "harness.write_output", _count_bytes)
    tracer.wrap_methods("cbandits.core", "quantile", "core.quantile", _count_quantile_values)
    tracer.wrap_methods("cbandits.strategies", "cumulative", "strategies.cumulative")
    tracer.wrap_methods("cbandits.strategies", "epsilons", "strategies.epsilons")
    for attr in ("selection_lower_bound", "closed_form_lower_bound"):
        tracer.wrap_function("cbandits.bounds", attr, f"bounds.{attr}")
    tracer.wrap_function("cbandits.analysis", "exact_selection_probability",
                         "analysis.oracle", _count_nodes)
    tracer.wrap_function("cbandits.analysis", "delta_best_arms", "analysis.delta_best_arms")


def rng_seconds(chunks: list[tuple[int, int, int, int]]) -> float:
    """Time for ``core.trial_stream`` to draw the uniforms of the given
    chunks, one stream per chunk starting at its first replication.
    Measured out of band, after the traced rounds; 0 when nothing was
    drawn or the stream function is gone or has changed its interface."""
    from cbandits import core

    stream = getattr(core, "trial_stream", None)
    draws = getattr(core, "DRAWS_PER_STEP", 4)
    if stream is None or not chunks:
        return 0.0
    started = time.perf_counter()
    for master_seed, rep_lo, rep_hi, horizon in chunks:
        try:
            stream(master_seed, rep_lo, horizon).uniforms((rep_hi - rep_lo) * draws * horizon)
        except (TypeError, AttributeError):
            return 0.0
    return time.perf_counter() - started


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer metrics per round, from everything the tracer counted
    over ``rounds`` traced rounds, as {name: (value, unit)}."""
    per = 1.0 / rounds
    calls, inclusive, self_time = tracer.calls, tracer.inclusive, tracer.self_time
    rep_steps = tracer.counters["replication_steps"] * per
    lockstep = tracer.counters["lockstep_steps"] * per
    matrix = tracer.counters["uniform_matrix_bytes"]
    chunk_self = self_time["harness.run_chunk"] * per
    oracle_s = inclusive["analysis.oracle"] * per
    nodes = tracer.counters["oracle_nodes"] * per
    return {
        "harness.run_chunk.calls": (calls["harness.run_chunk"] * per, "count"),
        "harness.run_chunk.self_s": (chunk_self, "s"),
        "harness.ns_per_replication_step": (chunk_self / rep_steps * 1e9 if rep_steps else 0.0, "ns"),
        "harness.step_us": (chunk_self / lockstep * 1e6 if lockstep else 0.0, "us"),
        "harness.replication_steps": (rep_steps, "count"),
        "harness.uniform_matrix_mib": (matrix / 2**20, "MiB"),
        "harness.run_experiment.self_s": (self_time["harness.run_experiment"] * per, "s"),
        "harness.write_output_s": (inclusive["harness.write_output"] * per, "s"),
        "harness.output_bytes": (tracer.counters["output_bytes"] * per, "bytes"),
        "core.quantile.calls": (calls["core.quantile"] * per, "count"),
        "core.quantile.values": (tracer.counters["quantile_values"] * per, "count"),
        "core.quantile.s": (inclusive["core.quantile"] * per, "s"),
        "strategies.cumulative.calls": (calls["strategies.cumulative"] * per, "count"),
        "strategies.cumulative.s": (inclusive["strategies.cumulative"] * per, "s"),
        "strategies.epsilons.s": (inclusive["strategies.epsilons"] * per, "s"),
        "bounds.selection_lower_bound.calls": (calls["bounds.selection_lower_bound"] * per, "count"),
        "bounds.selection_lower_bound.self_s": (self_time["bounds.selection_lower_bound"] * per, "s"),
        "bounds.closed_form_lower_bound.calls": (calls["bounds.closed_form_lower_bound"] * per, "count"),
        "bounds.closed_form_lower_bound.s": (inclusive["bounds.closed_form_lower_bound"] * per, "s"),
        "analysis.oracle.s": (oracle_s, "s"),
        "analysis.oracle.nodes": (nodes, "count"),
        "analysis.oracle.nodes_per_s": (nodes / oracle_s if oracle_s else 0.0, "1/s"),
        "analysis.delta_best_arms.s": (inclusive["analysis.delta_best_arms"] * per, "s"),
        "cli.parse_s": (inclusive[PARSE] * per, "s"),
        "cli.self_s": (self_time["cli.main"] * per, "s"),
    }
