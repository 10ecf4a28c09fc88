"""The benchmark's workloads, driven through the program's public API only.

Each workload builds its inputs from the seed (``setup``), runs one unit
of work (``unit``), checks a unit's outputs (``check``), names the
simulated values a repeated or traced unit must reproduce exactly
(``signature``), and reduces its reference units to the simulated
end-to-end metrics (``simulated_metrics``). NOTES.md says why each
workload exists and defines every metric on each of them.
"""

from __future__ import annotations

import random
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, List

import repro.data as data
from repro.bench.experiments.fig3 import PAPER_FIG3A, PAPER_FIG3B
from repro.bench.policies import CACHE_GGR, CACHE_ORIGINAL, DEFAULT_POLICIES, NO_CACHE
from repro.bench.queries import get_query
from repro.bench.runner import WorkloadAnswerer, run_policies, scaled_kv_capacity
from repro.llm.client import SimulatedLLMClient
from repro.llm.cluster import ClusterConfig, ClusterEngine
from repro.llm.engine import EngineConfig
from repro.llm.hardware import CLUSTER_1XL4
from repro.llm.models import LLAMA3_8B
from repro.llm.pricing import (
    anthropic_claude35_sonnet,
    estimated_savings,
    openai_gpt4o_mini,
)
from repro.llm.scheduler import LatencySummary, compute_slo
from repro.llm.tokenizer import HashTokenizer
from repro.llm.workload import (
    TenantSpec,
    WorkloadTrace,
    bursty_arrivals,
    synthesize_tenant_trace,
)
from repro.relational import Database, LLMRuntime

#: Run deadline for goodput, and the TTFT p99 limit for the max rate.
DEADLINE_S = 5.0
#: The abstract's API-cost saving claim.
PAPER_COST_SAVINGS = 0.32


def _savings(phr_original: float, phr_ggr: float) -> Dict[str, float]:
    return {
        "api_cost_savings_openai": estimated_savings(
            phr_original, phr_ggr, openai_gpt4o_mini()),
        "api_cost_savings_anthropic": estimated_savings(
            phr_original, phr_ggr, anthropic_claude35_sonnet()),
    }


def _request_problems(label: str, metrics) -> List[str]:
    short = sum(
        1 for m in metrics if m.cached_tokens + m.prefill_tokens < m.prompt_tokens
    )
    if short:
        return [f"{label}: {short} requests with cached + prefill < prompt tokens"]
    return []


# --------------------------------------------------------------------------
# Batch workloads: one paper query under the three Fig. 3 policies
# --------------------------------------------------------------------------
@dataclass
class PolicyRun:
    """One policy's run of the query: the paper's JCT (engine plus solver
    seconds), the token PHR, the operator's answers in table order and its
    call telemetry."""

    jct_s: float
    engine_s: float
    phr: float
    answers: List[str]
    calls: list

    @property
    def request_metrics(self):
        return [
            m for c in self.calls if c.engine_result is not None
            for m in c.engine_result.request_metrics
        ]


@contextmanager
def _operator_answers():
    """Collect ``(LLMCallStats, answers)`` of every LLM operator call, for
    the output checks of runs whose runtime the caller never sees."""
    seen = []
    execute = LLMRuntime.execute

    def capture(runtime, *args, **kwargs):
        answers = execute(runtime, *args, **kwargs)
        seen.append((runtime.calls[-1], answers))
        return answers

    LLMRuntime.execute = capture
    try:
        yield seen
    finally:
        LLMRuntime.execute = execute


class BatchWorkload:
    """A paper query at dataset scale 0.2 with fig3's KV capacity rule,
    run under No Cache, Cache (Original) and Cache (GGR); one unit is the
    three-policy sweep with one shared tokenizer."""

    scale = 0.2
    n_setups = 5
    min_units = 3
    query_id = ""
    paper: tuple = ()  # (reference label, vs No Cache, vs Original)

    def __init__(self, seed: int):
        self.seed = seed
        self.query = get_query(self.query_id)
        self._expected = None

    def setup(self, i: int) -> None:
        self.ds = data.build_dataset(self.query.dataset, scale=self.scale, seed=self.seed)
        self.cap = scaled_kv_capacity(
            LLAMA3_8B, CLUSTER_1XL4, self.scale, self.ds.paper_input_avg
        )

    def prompts(self, unit) -> int:
        return sum(len(run.request_metrics) for run in unit.values())

    def baselines(self):
        """Batch units run their baselines themselves."""
        return {}, {}

    def expected_answers(self) -> List[str]:
        """The simulated model's answer for every row, in table order."""
        if self._expected is None:
            answerer = WorkloadAnswerer(self.ds, self.query, seed=self.seed)
            self._expected = [
                answerer(self.query.prompt, (), i) for i in range(self.ds.n_rows)
            ]
        return self._expected

    def check(self, unit, i: int) -> List[str]:
        problems = []
        expected = self.expected_answers()
        for name, run in unit.items():
            if run.answers != expected:
                wrong = sum(a != b for a, b in zip(run.answers, expected))
                problems.append(
                    f"{name}: {wrong + abs(len(run.answers) - len(expected))} "
                    f"answers differ from the row's own answer"
                )
            served = len(run.request_metrics)
            distinct = sum(c.n_distinct for c in run.calls)
            if served != distinct:
                problems.append(
                    f"{name}: {served} engine requests for {distinct} distinct rows"
                )
            problems += _request_problems(name, run.request_metrics)
        return problems

    def signature(self, unit):
        return {
            name: (
                run.engine_s, run.phr, tuple(run.answers),
                tuple(
                    (m.request_id, m.cached_tokens, m.prefill_tokens,
                     m.output_tokens, m.first_token_at_s, m.finished_at_s)
                    for m in run.request_metrics
                ),
            )
            for name, run in unit.items()
        }

    def simulated_metrics(self, units, baselines):
        """Metrics of the Cache (GGR) policy. The engine side repeats
        exactly in every unit; solver seconds are host-timed, so JCTs are
        medians over the units."""

        def jct(policy):
            return statistics.median(u[policy.name].jct_s for u in units)

        ggr, orig = units[0][CACHE_GGR.name], units[0][CACHE_ORIGINAL.name]
        # A batch job has one deadline: the stored-order run's finish. The
        # goodput is the share of rows GGR answers before it.
        slo = compute_slo(ggr.request_metrics, deadline_s=orig.engine_s, by_tenant=False)
        label, vs_nocache, vs_original = self.paper
        metrics = {
            "sim_jct_s": (jct(CACHE_GGR), "s"),
            "sim_speedup_vs_original": (jct(CACHE_ORIGINAL) / jct(CACHE_GGR), "x"),
            "sim_speedup_vs_nocache": (jct(NO_CACHE) / jct(CACHE_GGR), "x"),
            "phr": (ggr.phr, "ratio"),
            **{k: (v, "ratio") for k, v in _savings(orig.phr, ggr.phr).items()},
            "sim_ttft_p50_s": (slo.ttft.p50, "s"),
            "sim_ttft_p99_s": (slo.ttft.p99, "s"),
            "sim_goodput": (slo.attainment, "ratio"),
            "sim_max_rate_rps": (slo.n_requests / jct(CACHE_GGR), "1/s"),
        }
        paper = {
            "sim_speedup_vs_nocache": (vs_nocache, label),
            "sim_speedup_vs_original": (vs_original, label),
            "api_cost_savings_openai": (PAPER_COST_SAVINGS, "abstract"),
            "api_cost_savings_anthropic": (PAPER_COST_SAVINGS, "abstract"),
        }
        lines = ["policy             sim JCT (s)   PHR"]
        for policy in DEFAULT_POLICIES:
            lines.append(
                f"{policy.name:<18} {jct(policy):11.1f}   "
                f"{units[0][policy.name].phr:.4f}"
            )
        return metrics, paper, lines


class MoviesFilter(BatchWorkload):
    """``movies-T1`` through ``bench.runner.run_policies``."""

    query_id = "movies-T1"
    paper = ("Fig. 3a movies", *PAPER_FIG3A["movies"])

    def unit(self, i: int):
        with _operator_answers() as seen:
            results = run_policies(
                self.query, self.ds, kv_capacity_tokens=self.cap, seed=self.seed
            )
        if len(seen) != len(results):
            raise RuntimeError(
                f"expected one operator call per policy, saw {len(seen)}"
            )
        return {
            name: PolicyRun(r.end_to_end_seconds, r.engine_seconds, r.phr,
                            answers, [stats])
            for (name, r), (stats, answers) in zip(results.items(), seen)
        }


class ProductsProjectionSQL(BatchWorkload):
    """``products-T2`` as one SQL statement through ``Database.sql``, one
    runtime per policy with the same capacity rule and answers."""

    query_id = "products-T2"
    paper = ("Fig. 3b products", *PAPER_FIG3B["products"])

    def __init__(self, seed: int):
        super().__init__(seed)
        if "'" in self.query.prompt or self.query.fields != ("*",):
            raise RuntimeError("the SQL text below assumes a quote-free prompt over *")
        self.sql = f"SELECT LLM('{self.query.prompt}', *) AS out FROM {self.query.dataset}"

    def unit(self, i: int):
        tokenizer = HashTokenizer()
        out = {}
        for policy in DEFAULT_POLICIES:
            client = SimulatedLLMClient(
                engine_config=EngineConfig(
                    enable_prefix_cache=policy.cache_enabled,
                    kv_capacity_tokens=self.cap,
                ),
                tokenizer=tokenizer,
            )
            runtime = LLMRuntime(
                client=client,
                policy=policy.reorder_policy,
                answerer=WorkloadAnswerer(self.ds, self.query, seed=self.seed),
            )
            db = Database(runtime=runtime)
            db.register(self.query.dataset, self.ds.table, fds=self.ds.fds)
            table = db.sql(self.sql)
            engine_s = runtime.total_engine_seconds
            out[policy.name] = PolicyRun(
                engine_s + runtime.total_solver_seconds, engine_s,
                runtime.overall_phr, table.column("out"), list(runtime.calls),
            )
        return out


# --------------------------------------------------------------------------
# Served fleet: an open loop in simulated time
# --------------------------------------------------------------------------
#: ``repro serve-trace``'s three-tenant mix: (name, query, order, weight).
TENANTS = (
    ("analytics", "movies-T1", "original", 1.0),
    ("reviews", "products-T1", "original", 1.0),
    ("curated", "movies-T2", "ggr", 0.5),
)
#: Offered rates, as the bursty process's ON rate (``repro serve-trace
#: --rate``); with 1 s mean ON and OFF periods the mean rate is half.
RATES = (5.0, 10.0, 20.0, 40.0)
#: Latency metrics are read at the lowest rate: at 10 req/s the fleet sits
#: at its knee and TTFT p99 moves by half its value from seed to seed.
REFERENCE_RATE = 5.0
#: Makespan is read where the backlog makes it measure fleet capacity
#: rather than the arrival span.
SATURATED_RATE = 40.0
N_REQUESTS = 3000
DEADLINES_S = (2.0, 5.0, 30.0)
FLEET = ClusterConfig(
    n_replicas=2,
    routing="prefix-aware",
    backend="inline",
    engine=EngineConfig(
        scheduler="deadline",
        max_batch_size=16,
        preemption="recompute",
        prefill_chunk_tokens=64,
    ),
)


class ServeFleet:
    """Bursty arrivals replayed through a two-replica fleet at four rates.

    A run draws ``n_setups`` independent sub-traces from the seed; one
    unit replays one sub-trace at every rate (one tokenizer per unit).
    The latency metrics pool the sub-traces' requests, because one
    3,000-request trace leaves TTFT p99 at the mercy of its longest burst,
    and ``wall_s`` takes the median over as many different sub-traces.
    """

    n_setups = 8
    min_units = n_setups
    scale = 0.01

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        self.sub_seeds = [rng.randrange(2**31) for _ in range(self.n_setups)]
        self.traces: List[Dict[float, WorkloadTrace]] = [None] * self.n_setups

    def synthesize(self, seed: int, curated_order: str = "ggr", rates=RATES):
        """One sub-trace, time-scaled to each of ``rates``. Each request's
        deadline is drawn once and kept at every rate."""
        arrivals = bursty_arrivals(N_REQUESTS, RATES[1], seed=seed)
        tenants = [
            TenantSpec(name, qid,
                       policy=curated_order if name == "curated" else order,
                       weight=weight)
            for name, qid, order, weight in TENANTS
        ]
        base = synthesize_tenant_trace(tenants, arrivals, scale=self.scale, seed=seed)
        rng = random.Random(seed ^ 0x5EED)
        deadlines = [rng.choice(DEADLINES_S) for _ in base.requests]
        return {
            rate: WorkloadTrace(
                [
                    replace(r, arrival_s=r.arrival_s * RATES[1] / rate, deadline_s=d)
                    for r, d in zip(base.requests, deadlines)
                ],
                name=f"serve-fleet@{rate:g}",
            )
            for rate in rates
        }

    def setup(self, i: int) -> None:
        self.traces[i] = self.synthesize(self.sub_seeds[i])

    def prompts(self, unit) -> int:
        return sum(len(r.request_metrics) for r in unit.values())

    def unit(self, i: int):
        tokenizer = HashTokenizer()
        return {
            rate: ClusterEngine(FLEET, tokenizer=tokenizer).run_trace(
                trace, deadline_s=DEADLINE_S)
            for rate, trace in self.traces[i % self.n_setups].items()
        }

    @staticmethod
    def replay_problems(label: str, trace: WorkloadTrace, result) -> List[str]:
        """Every trace request appears once, timed from its scheduled
        arrival, with arrival <= first token <= finish."""
        ms = result.request_metrics
        if [m.request_id for m in ms] != list(range(trace.n_requests)):
            return [f"{label}: {len(ms)} metrics for {trace.n_requests} requests, "
                    f"ids not each exactly once"]
        late = disorder = 0
        for m, r in zip(ms, trace.requests):
            late += m.arrival_s != r.arrival_s
            first = m.first_token_at_s if m.output_tokens else m.finished_at_s
            disorder += not m.arrival_s <= first <= m.finished_at_s
        problems = _request_problems(label, ms)
        if late:
            problems.append(f"{label}: {late} requests not timed from their arrival")
        if disorder:
            problems.append(f"{label}: {disorder} requests out of lifecycle order")
        return problems

    def check(self, unit, i: int) -> List[str]:
        traces = self.traces[i % self.n_setups]
        return [
            p for rate, result in unit.items()
            for p in self.replay_problems(f"{rate:g} req/s", traces[rate], result)
        ]

    def signature(self, unit):
        return {
            rate: (
                r.total_seconds,
                tuple(
                    (m.request_id, m.cached_tokens, m.prefill_tokens,
                     m.admitted_at_s, m.first_token_at_s, m.finished_at_s,
                     m.n_preemptions)
                    for m in r.request_metrics
                ),
            )
            for rate, r in unit.items()
        }

    def baselines(self):
        """The paper's two baselines: the same fleet with prefix caching
        off, and the same arrivals with the curated tenant in stored order
        (at the reference rate for every sub-trace, for the PHR; at the
        saturated rate for sub-trace 0, for the makespan). Returns
        ``({name: result}, {name: problems})``."""
        tokenizer = HashTokenizer()
        nocache = replace(FLEET, engine=replace(FLEET.engine, enable_prefix_cache=False))
        runs = {"no-cache": (nocache, self.traces[0][SATURATED_RATE])}
        for i, seed in enumerate(self.sub_seeds):
            rates = (REFERENCE_RATE, SATURATED_RATE) if i == 0 else (REFERENCE_RATE,)
            original = self.synthesize(seed, curated_order="original", rates=rates)
            for rate, trace in original.items():
                runs[f"original {i} @{rate:g}"] = (FLEET, trace)
        results, problems = {}, {}
        for name, (config, trace) in runs.items():
            results[name] = ClusterEngine(config, tokenizer=tokenizer).run_trace(
                trace, deadline_s=DEADLINE_S)
            found = self.replay_problems(name, trace, results[name])
            if found:
                problems[name] = found
        return results, problems

    def simulated_metrics(self, units, baselines):
        def pooled(rate):
            return [m for u in units for m in u[rate].request_metrics]

        def phr(results):
            return (sum(r.cached_tokens for r in results)
                    / sum(r.prompt_tokens for r in results))

        ref = [u[REFERENCE_RATE] for u in units]
        original_ref = [
            baselines[f"original {i} @{REFERENCE_RATE:g}"] for i in range(len(units))
        ]
        slo = compute_slo(pooled(REFERENCE_RATE), deadline_s=DEADLINE_S, by_tenant=False)
        p99 = {
            rate: LatencySummary.of([m.ttft_s for m in pooled(rate)]).p99
            for rate in RATES
        }
        ggr_sat = units[0][SATURATED_RATE].total_seconds
        metrics = {
            "sim_jct_s": (
                statistics.median(u[SATURATED_RATE].total_seconds for u in units), "s"),
            "sim_speedup_vs_original": (
                baselines[f"original 0 @{SATURATED_RATE:g}"].total_seconds / ggr_sat,
                "x"),
            "sim_speedup_vs_nocache": (
                baselines["no-cache"].total_seconds / ggr_sat, "x"),
            "phr": (phr(ref), "ratio"),
            **{k: (v, "ratio") for k, v in _savings(phr(original_ref), phr(ref)).items()},
            "sim_ttft_p50_s": (slo.ttft.p50, "s"),
            "sim_ttft_p99_s": (slo.ttft.p99, "s"),
            "sim_goodput": (slo.attainment, "ratio"),
            "sim_max_rate_rps": (
                max((rate for rate in RATES if p99[rate] <= DEADLINE_S), default=0.0),
                "1/s"),
        }
        lines = ["rate (ON, req/s)  TTFT p50 (s)  TTFT p99 (s)  goodput  "
                 "preemptions  max cached/prompt"]
        for rate in RATES:
            runs = [u[rate] for u in units]
            s = compute_slo(pooled(rate), deadline_s=DEADLINE_S, by_tenant=False)
            ratio = max(
                e.cached_tokens / e.prompt_tokens
                for r in runs for e in r.engine_results if e.prompt_tokens
            )
            lines.append(
                f"{rate:16g}  {s.ttft.p50:12.3f}  {p99[rate]:12.3f}  "
                f"{s.attainment:7.4f}  {sum(r.n_preemptions for r in runs):11d}  "
                f"{ratio:17.4f}"
            )
        return metrics, {}, lines


WORKLOADS = {
    "t1-movies": MoviesFilter,
    "t2-products-sql": ProductsProjectionSQL,
    "serve-fleet": ServeFleet,
}
