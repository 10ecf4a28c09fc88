"""Randomized equivalence: vectorized replay vs the stepwise oracle.

The vectorized replay (event-driven closed-form decode runs over numpy
request-state arrays, the numpy block pool, arithmetic tail settling)
must make exactly the same scheduling decisions as the per-token stepwise
loop over scalar state and scalar blocks: identical integer metrics, cache
hit/miss/evicted counters and paged-block counters (peak blocks,
fragmentation, preemption and chunk counts), and clocks to float rounding
(1e-6 relative) — the closed-form decode-run sum replaces a per-token
accumulation, so bit-identical floats are not expected.

Scope: all scheduler policies, online (timed) arrivals, paged block
accounting, eviction pressure, multi-wave replay, zero-output requests.
The class names predate the removal of the scalar event loop that sat
between the two; they are kept so per-test history stays continuous.
"""

import random

import pytest

from repro.llm.engine import EngineConfig, SimulatedLLMEngine
from repro.llm.hardware import CLUSTER_1XL4
from repro.llm.models import LLAMA3_8B
from repro.llm.radix import pack_tokens
from repro.llm.request import Request

def random_workload(rng, n_requests=40, vocab=50, max_len=60, max_out=12):
    """Prefix-sharing requests with tenants, zero-output rows, and mixed
    packed/unpacked probes (same generator family as the sibling suites)."""
    pool = [
        tuple(rng.randrange(vocab) for _ in range(rng.randrange(5, max_len)))
        for _ in range(5)
    ]
    reqs = []
    for i in range(n_requests):
        if rng.random() < 0.7:
            base = rng.choice(pool)
            base = base[: rng.randrange(1, len(base) + 1)]
        else:
            base = ()
        suffix = tuple(
            rng.randrange(vocab) for _ in range(rng.randrange(0, max_len))
        )
        toks = base + suffix or (rng.randrange(vocab),)
        out = 0 if rng.random() < 0.1 else rng.randrange(1, max_out)
        packed = pack_tokens(toks) if rng.random() < 0.5 else None
        reqs.append(
            Request(
                request_id=i,
                prompt_tokens=toks,
                output_tokens=out,
                prompt_bytes=packed,
                tenant=f"t{i % 3}",
            )
        )
    return reqs


def clone(requests):
    """Fresh Request objects (the engine mutates its requests in place)."""
    return [
        Request(
            r.request_id,
            r.prompt_tokens,
            r.output_tokens,
            prompt_bytes=r.prompt_bytes,
            arrival_s=r.arrival_s,
            tenant=r.tenant,
        )
        for r in requests
    ]


def run_engine(requests, mode, waves=1, **cfg_kwargs):
    eng = SimulatedLLMEngine(
        LLAMA3_8B, CLUSTER_1XL4, EngineConfig(mode=mode, **cfg_kwargs)
    )
    results = []
    per_wave = max(1, len(requests) // waves)
    for w in range(waves):
        chunk = requests[w * per_wave : (w + 1) * per_wave if w < waves - 1 else None]
        eng.submit_all(chunk)
        results.append(eng.run())
        eng.cache.check_invariants()
    return eng, results


#: Integer fields held exact between the two loops.
INT_RESULT_FIELDS = (
    "prompt_tokens",
    "cached_tokens",
    "prefill_tokens",
    "decode_tokens",
    "decode_steps",
    "peak_kv_tokens",
    "max_batch_seen",
    "peak_kv_blocks",
    "fragmentation_tokens",
    "n_preemptions",
    "preempted_tokens_recomputed",
    "preempted_tokens_swapped",
    "n_prefill_chunks",
    "peak_waiting",
)
INT_METRIC_FIELDS = (
    "request_id",
    "prompt_tokens",
    "cached_tokens",
    "prefill_tokens",
    "output_tokens",
    "arrival_s",
    "tenant",
    "n_preemptions",
    "preempted_tokens_recomputed",
    "preempted_tokens_swapped",
    "n_prefill_chunks",
)
CLOCK_FIELDS = ("admitted_at_s", "first_token_at_s", "finished_at_s")


def assert_close(rv, rs, rel=1e-6):
    """Vector vs stepwise: integers exact, clocks to float rounding."""
    for f in INT_RESULT_FIELDS:
        assert getattr(rv, f) == getattr(rs, f), f
    assert rv.total_seconds == pytest.approx(rs.total_seconds, rel=rel, abs=1e-9)
    assert len(rv.request_metrics) == len(rs.request_metrics)
    for mv, ms in zip(rv.request_metrics, rs.request_metrics):
        for f in INT_METRIC_FIELDS:
            assert getattr(mv, f) == getattr(ms, f), (ms.request_id, f)
        for f in CLOCK_FIELDS:
            assert getattr(mv, f) == pytest.approx(
                getattr(ms, f), rel=rel, abs=1e-9
            ), (ms.request_id, f)


def assert_vector_matches_stepwise(requests, waves=1, **cfg_kwargs):
    cfg_kwargs.setdefault("kv_accounting", "tokens")
    e_vec, r_vec = run_engine(clone(requests), "vector", waves=waves, **cfg_kwargs)
    e_step, r_step = run_engine(
        clone(requests), "stepwise", waves=waves, **cfg_kwargs
    )
    assert e_vec.mode == "vector" and e_step.mode == "stepwise"
    for rv, rs in zip(r_vec, r_step):
        assert_close(rv, rs)
    for attr in ("hits", "misses", "evicted_tokens", "total_tokens"):
        assert getattr(e_vec.cache, attr) == getattr(e_step.cache, attr), attr


class TestVectorVsEvent:
    """Vector vs stepwise across the workload space."""

    @pytest.mark.parametrize("seed", range(8))
    def test_roomy_capacity(self, seed):
        rng = random.Random(seed)
        assert_vector_matches_stepwise(random_workload(rng))

    @pytest.mark.parametrize("seed", range(6))
    def test_memory_pressure(self, seed):
        """Tight KV capacity: eviction churn, blocked admissions, and the
        partial-release paths the vector loop's skip-settle finish takes."""
        rng = random.Random(1000 + seed)
        reqs = random_workload(rng, n_requests=30, max_len=40, max_out=8)
        need = max(r.prompt_len + r.output_tokens for r in reqs)
        slack = max(r.prompt_len for r in reqs)
        assert_vector_matches_stepwise(
            reqs, kv_capacity_tokens=need + slack, max_batch_size=8
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_paged_accounting(self, seed):
        """Block-granular admission: bundle forks, straddle-shared split
        blocks, and block-denominated eviction."""
        rng = random.Random(2000 + seed)
        reqs = random_workload(rng, n_requests=30)
        assert_vector_matches_stepwise(
            reqs, kv_accounting="paged", block_tokens=16
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_paged_eviction_pressure(self, seed):
        rng = random.Random(3000 + seed)
        reqs = random_workload(rng, n_requests=30, max_len=40, max_out=8)
        need = max(r.prompt_len + r.output_tokens for r in reqs)
        slack = max(r.prompt_len for r in reqs)
        assert_vector_matches_stepwise(
            reqs,
            kv_accounting="paged",
            block_tokens=8,
            kv_capacity_tokens=need + slack,
            max_batch_size=8,
        )

    @pytest.mark.parametrize(
        "policy", ["fcfs", "sjf", "prefix-affinity", "fair-share"]
    )
    @pytest.mark.parametrize("seed", range(2))
    def test_online_arrivals_all_policies(self, policy, seed):
        """Timed arrivals through every admission policy."""
        rng = random.Random(4000 + seed)
        reqs = random_workload(rng, n_requests=30, max_out=10)
        t = 0.0
        for r in reqs:
            t += rng.expovariate(30.0)
            r.arrival_s = t
        assert_vector_matches_stepwise(reqs, scheduler=policy, max_batch_size=4)

    @pytest.mark.parametrize("seed", range(3))
    def test_multi_wave(self, seed):
        """Warm prefix cache across runs of one long-lived engine."""
        rng = random.Random(5000 + seed)
        assert_vector_matches_stepwise(random_workload(rng, n_requests=45), waves=3)

    @pytest.mark.parametrize("seed", range(3))
    def test_tiny_batch(self, seed):
        rng = random.Random(6000 + seed)
        assert_vector_matches_stepwise(
            random_workload(rng, n_requests=20), max_batch_size=2
        )

    def test_zero_output_only(self):
        reqs = [
            Request(i, tuple(range(10 * i, 10 * i + 5)), 0, tenant=f"t{i % 2}")
            for i in range(6)
        ]
        assert_vector_matches_stepwise(reqs)

    def test_no_cache_baseline(self):
        rng = random.Random(7000)
        reqs = random_workload(rng, n_requests=25, max_out=6)
        need = max(r.prompt_len + r.output_tokens for r in reqs)
        assert_vector_matches_stepwise(
            reqs,
            enable_prefix_cache=False,
            kv_capacity_tokens=3 * need,
            max_batch_size=16,
        )


class TestThreeWayChain:
    """Vector vs stepwise on further seeds and accounting shapes."""

    @pytest.mark.parametrize("seed", range(4))
    def test_chain_roomy(self, seed):
        rng = random.Random(8000 + seed)
        assert_vector_matches_stepwise(random_workload(rng))

    @pytest.mark.parametrize("seed", range(3))
    def test_chain_memory_pressure(self, seed):
        rng = random.Random(9000 + seed)
        reqs = random_workload(rng, n_requests=30, max_len=40, max_out=8)
        need = max(r.prompt_len + r.output_tokens for r in reqs)
        slack = max(r.prompt_len for r in reqs)
        assert_vector_matches_stepwise(
            reqs, kv_capacity_tokens=need + slack, max_batch_size=8
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_chain_paged(self, seed):
        rng = random.Random(10_000 + seed)
        reqs = random_workload(rng, n_requests=25)
        assert_vector_matches_stepwise(
            reqs, kv_accounting="paged", block_tokens=16
        )
