"""Micro-benchmark of segment-composed prompt encoding against
whole-string encoding.

The stream is one movies-T1 three-policy sweep: the prompts in stored
field order twice (No Cache and Cache (Original) send the same prompts)
and once in GGR order. Both sides keep a per-prompt memo, so the
repeated pass costs a dict hit on each; what differs is the miss path.
The whole-string side tokenizes every distinct prompt in full, as the
encode cache did before segment composition. The composed side is
:class:`~repro.llm.encode_cache.EncodeCache`, which tokenizes each
distinct ``"``-delimited segment once and concatenates memoized ids.
Each side starts from a fresh tokenizer, so both intern the same pieces,
and the two must return identical ids before the ratio means anything.

Acceptance bar (asserted, then recorded for the perf trajectory):
``encode_segment_speedup >= 3.0``.
"""

import time

from conftest import perf_record, run_once

from repro.llm.encode_cache import EncodeCache
from repro.llm.radix import pack_tokens
from repro.llm.tokenizer import HashTokenizer
from repro.llm.workload import TenantSpec, tenant_prompts


def _sweep_stream(scale, seed):
    original, _ = tenant_prompts(
        TenantSpec("original", "movies-T1"), scale=scale, seed=seed
    )
    ggr, _ = tenant_prompts(
        TenantSpec("ggr", "movies-T1", policy="ggr"), scale=scale, seed=seed
    )
    return original + original + ggr


def _whole_string(stream):
    tok = HashTokenizer()
    memo = {}
    out = []
    for prompt in stream:
        entry = memo.get(prompt)
        if entry is None:
            ids = tuple(tok.encode(prompt))
            entry = memo[prompt] = (ids, pack_tokens(ids))
        out.append(entry)
    return out


def _composed(stream):
    tok = HashTokenizer()
    cache = EncodeCache()
    return [cache.encode(tok, prompt) for prompt in stream]


def _interleaved_best(fns, repeats=5):
    """Best-of-``repeats`` seconds per function, alternating the
    functions within each round so drift hits both sides alike."""
    best = [float("inf")] * len(fns)
    results = [None] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            results[i] = fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best, results


def bench_encode_segment_vs_whole(benchmark, repro_scale, repro_seed):
    """Headline: composed encoding >= 3x whole-string on the sweep."""
    stream = _sweep_stream(repro_scale, repro_seed)
    (whole_s, composed_s), (whole, composed) = _interleaved_best(
        [lambda: _whole_string(stream), lambda: _composed(stream)]
    )
    run_once(benchmark, lambda: _composed(stream))
    assert composed == whole, "composed ids diverged from whole-string encode"
    ratio = whole_s / max(composed_s, 1e-9)
    benchmark.extra_info["prompts"] = len(stream)
    benchmark.extra_info["whole_seconds"] = round(whole_s, 4)
    benchmark.extra_info["composed_seconds"] = round(composed_s, 4)
    benchmark.extra_info["speedup"] = round(ratio, 3)
    assert ratio >= 3.0, (
        f"composed {composed_s:.4f}s vs whole-string {whole_s:.4f}s: "
        f"{ratio:.2f}x is below the 3x bar"
    )
    perf_record("encode", "encode_segment_speedup", ratio, ">= 3.0")
