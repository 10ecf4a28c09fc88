"""Host-time probe for the traced benchmark run.

The probe patches the public functions each layer is entered through,
at the name its caller looks up (``repro.relational.llm_functions.reorder``
for the operator's imported name, ``EncodeCache.encode`` on its class),
and records every call as a span on a stack. A layer is charged its *self*
time: a span's duration minus the part its child spans cover. The whole
traced run sits inside one root span, ``other``, whose self time is the
wall time no layer span covers, so the self times of all layers add up to
the traced wall. Counters are read from the wrapped calls' receivers and
results; nothing inside the program changes, and :meth:`LayerProbe.uninstall`
restores every patched name.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from importlib import import_module
from time import perf_counter

from repro.bench.runner import WorkloadAnswerer
from repro.llm.cluster import ClusterEngine
from repro.llm.encode_cache import EncodeCache
from repro.llm.engine import SimulatedLLMEngine
from repro.llm.scheduler import LatencySummary, SchedulerPolicy
from repro.llm.tokenizer import HashTokenizer
from repro.relational.catalog import Database
from repro.relational.llm_functions import LLMRuntime

ROOT = "other"


def _policy_classes():
    """Every scheduling-policy class that defines its own ``select``."""
    todo, out = [SchedulerPolicy], []
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "select" in cls.__dict__:
            out.append(cls)
    return out


class LayerProbe:
    """Span stack, per-layer self time and the counters of one traced run."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self._stack = []  # [layer, start, seconds covered by child spans]
        self._patches = []
        self.solves = []  # ReorderResult of every solve
        self.op_calls = []  # LLMCallStats of every LLM operator call
        self.answers = []  # every synthesized answer text
        self.engine_runs = []  # (EngineResult, radix nodes, evicted tokens)
        self.cluster_results = []
        self.encode_hits = self.encode_misses = self.encode_tokens = 0
        self.root_s = 0.0

    # ------------------------------------------------------------- spans
    def enter(self, layer: str) -> None:
        self._stack.append([layer, perf_counter(), 0.0])

    def exit(self) -> float:
        layer, start, covered = self._stack.pop()
        duration = perf_counter() - start
        self.self_s[layer] += duration - covered
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    # ----------------------------------------------------------- patches
    def _patch(self, owner, name, layer, after=None, before=None):
        """Replace ``owner.name`` by a wrapper that opens a ``layer`` span
        (none when ``layer`` is None). Inside the span, ``before(args)``
        runs ahead of the call and ``after(args, result, before_value)``
        behind it, so counting is charged to the layer it counts."""
        fn = owner.__dict__[name]
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer is not None:
                probe.enter(layer)
            try:
                seen = before(args) if before is not None else None
                out = fn(*args, **kwargs)
                if after is not None:
                    after(args, out, seen)
                return out
            finally:
                if layer is not None:
                    probe.exit()

        setattr(owner, name, wrapper)
        self._patches.append((owner, name, fn))

    def install(self) -> None:
        p = self._patch
        # Modules by import path: ``repro.core.reorder`` as an attribute
        # is the function the package re-exports, not the module.
        m = import_module
        for module in (m("repro.data"), m("repro.data.datasets")):
            p(module, "build_dataset", "data")
        p(Database, "sql", "relational.sql")
        p(LLMRuntime, "execute", "relational.execute",
          lambda args, out, _: self.op_calls.append(args[0].calls[-1]))
        llm_functions = m("repro.relational.llm_functions")
        for module in (llm_functions, m("repro.core.reorder")):
            p(module, "reorder", "core",
              lambda args, out, _: self.solves.append(out))
        for module in (llm_functions, m("repro.llm.prompts")):
            p(module, "build_prompt", "prompts")
        misses = lambda args: args[0].misses  # noqa: E731
        p(EncodeCache, "encode", "encode",
          lambda args, out, before: self._lookup(args[0], before, len(out[0])),
          misses)
        p(EncodeCache, "count", "encode",
          lambda args, out, before: self._lookup(args[0], before, out), misses)
        p(WorkloadAnswerer, "__call__", "answer",
          lambda args, out, _: self.answers.append(out))
        p(SimulatedLLMEngine, "run", "engine", self._engine_ran,
          lambda args: args[0].cache.stats()["evicted_tokens"])
        for cls in _policy_classes():
            p(cls, "select", "scheduler")
        p(ClusterEngine, "route_requests", "cluster")
        p(ClusterEngine, "run_trace", None,
          lambda args, out, _: self.cluster_results.append(out))

    def _lookup(self, cache, misses_before: int, n_tokens: int) -> None:
        # EncodeCache bumps exactly one of hits/misses per lookup; a miss
        # is the lookup that ran the tokenizer.
        if cache.misses > misses_before:
            self.encode_misses += 1
            self.encode_tokens += n_tokens
        else:
            self.encode_hits += 1

    def _engine_ran(self, args, result, evicted_before: int) -> None:
        stats = args[0].cache.stats()
        self.engine_runs.append(
            (result, stats["nodes"], stats["evicted_tokens"] - evicted_before)
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, name, fn = self._patches.pop()
            setattr(owner, name, fn)

    def __enter__(self):
        self.install()
        self.enter(ROOT)
        return self

    def __exit__(self, *exc):
        self.root_s = self.exit()
        self.uninstall()
        return False

    # ----------------------------------------------------------- metrics
    def accounting_error_s(self) -> float:
        """How far the layers' self times miss the traced wall (the root
        span's duration); float rounding only, when every span closed."""
        return abs(sum(self.self_s.values()) - self.root_s)

    def metrics(self, overhead_ratio: float) -> dict:
        """The per-layer metrics, ``{name: (value, unit)}``."""
        s = self.self_s
        rows = sum(c.n_rows for c in self.op_calls)
        ggr = [r for r in self.solves if r.policy == "ggr"]
        ggr_rows = sum(len(r.schedule.rows) for r in ggr)
        lookups = self.encode_hits + self.encode_misses
        count = HashTokenizer().count
        results = [r for r, _, _ in self.engine_runs]
        prefill = sum(r.prefill_tokens for r in results)
        recomputed = sum(r.preempted_tokens_recomputed for r in results)
        peak = max(results, key=lambda r: r.peak_kv_blocks, default=None)
        waits = LatencySummary.of(
            [m.queueing_delay_s for r in results for m in r.request_metrics]
        )
        replicas = [x for c in self.cluster_results for x in c.replicas]
        skews = [c.load_skew for c in self.cluster_results]
        return {
            "data.build_s": (s["data"], "s"),
            "relational.sql_self_s": (s["relational.sql"], "s"),
            "relational.execute_self_s": (s["relational.execute"], "s"),
            "relational.distinct_ratio": (
                sum(c.n_distinct for c in self.op_calls) / rows if rows else 0.0,
                "ratio"),
            "relational.memo_hits": (
                sum(c.memo_hits for c in self.op_calls), "count"),
            "core.solve_s": (s["core"], "s"),
            "core.solve_calls": (self.calls["core"], "count"),
            "core.schedule_phr": (
                sum(r.exact_phr * len(r.schedule.rows) for r in ggr) / ggr_rows
                if ggr_rows else 0.0, "ratio"),
            "prompts.render_s": (s["prompts"], "s"),
            "prompts.calls": (self.calls["prompts"], "count"),
            "encode.self_s": (s["encode"], "s"),
            "encode.calls": (self.calls["encode"], "count"),
            "encode.hit_ratio": (
                self.encode_hits / lookups if lookups else 0.0, "ratio"),
            "encode.tokens": (self.encode_tokens, "tokens"),
            "answer.self_s": (s["answer"], "s"),
            "answer.calls": (self.calls["answer"], "count"),
            "answer.output_tokens": (
                sum(count(text) for text in self.answers), "tokens"),
            "engine.replay_s": (s["engine"], "s"),
            "engine.requests": (
                sum(len(r.request_metrics) for r in results), "count"),
            "engine.decode_steps": (
                sum(r.decode_steps for r in results), "count"),
            "engine.prefill_tokens": (prefill, "tokens"),
            "engine.max_batch_seen": (
                max((r.max_batch_seen for r in results), default=0), "count"),
            "engine.peak_waiting": (
                max((r.peak_waiting for r in results), default=0), "count"),
            "radix.cached_tokens": (
                sum(r.cached_tokens for r in results), "tokens"),
            # Raw, unclamped: recompute preemption re-adds a request's
            # cached tokens at every re-admission (see NOTES.md).
            "radix.cached_per_prompt_token": (
                max((r.cached_tokens / r.prompt_tokens
                     for r in results if r.prompt_tokens), default=0.0),
                "ratio"),
            "radix.evicted_tokens": (
                sum(e for _, _, e in self.engine_runs), "tokens"),
            "radix.nodes": (
                max((n for _, n, _ in self.engine_runs), default=0), "count"),
            "blocks.peak_kv_blocks": (
                peak.peak_kv_blocks if peak else 0, "count"),
            "blocks.fragmentation": (
                peak.fragmentation if peak else 0.0, "ratio"),
            "scheduler.select_s": (s["scheduler"], "s"),
            "scheduler.queue_wait_p50_s": (waits.p50, "s"),
            "scheduler.queue_wait_p99_s": (waits.p99, "s"),
            "scheduler.preemptions": (
                sum(r.n_preemptions for r in results), "count"),
            "scheduler.recomputed_tokens": (recomputed, "tokens"),
            "scheduler.wasted_prefill_ratio": (
                recomputed / prefill if prefill else 0.0, "ratio"),
            "cluster.route_s": (s["cluster"], "s"),
            "cluster.load_skew": (
                sum(skews) / len(skews) if skews else 0.0, "ratio"),
            "cluster.replica_phr_min": (
                min((x.prefix_hit_rate for x in replicas), default=0.0),
                "ratio"),
            "other.self_s": (s[ROOT], "s"),
            "trace.wall_s": (self.root_s, "s"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }
