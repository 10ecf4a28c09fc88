"""Table 3: real-API cost experiment on FEVER (§6.3).

Methodology mirrors the paper: 1 000 FEVER rows, each field value
duplicated five times so prompts clear the providers' 1 024-token caching
minimum; the same table is submitted once in original order and once in
GGR order; OpenAI bills cached reads at 50%, Anthropic writes at +25% and
reads at 10% with an explicit breakpoint on the first 1 024 tokens.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.bench.experiments.base import dataset
from repro.bench.queries import RAG_PROMPTS
from repro.bench.reporting import ExperimentOutput, ResultTable, default_scale, fmt_pct
from repro.core.reorder import reorder
from repro.core.table import ReorderTable
from repro.llm.encode_cache import encode_cache_for
from repro.llm.pricing import (
    APICacheSimulator,
    anthropic_claude35_sonnet,
    cost_of,
    openai_gpt4o_mini,
)
from repro.llm.prompts import build_prompt
from repro.llm.tokenizer import HashTokenizer

PAPER_TABLE3 = {
    # (PHR %, savings %) for the GGR ordering.
    "GPT-4o-mini": (0.622, 0.32),
    "Claude 3.5 Sonnet": (0.306, 0.21),
}

DUPLICATION = 5
N_ROWS = 1000


def _duplicated_fever(scale: float, seed: int) -> ReorderTable:
    ds = dataset("fever", scale, seed)
    n = min(N_ROWS, ds.n_rows)
    rows = []
    for i in range(n):
        row = ds.table.row(i)
        rows.append(tuple((" ".join([str(v)] * DUPLICATION)) for v in row.values()))
    return ReorderTable(ds.table.fields, rows)


def _prompt_tokens(
    table: ReorderTable, policy: str, tok: HashTokenizer
) -> List[Tuple[int, ...]]:
    result = reorder(table, policy=policy)
    prompt = RAG_PROMPTS["fever"]
    cache = encode_cache_for(tok)
    return [
        cache.encode(tok, build_prompt(prompt, row.cells))[0]
        for row in result.schedule.rows
    ]


def run(scale: Optional[float] = None, seed: int = 0) -> ExperimentOutput:
    scale = scale if scale is not None else default_scale()
    out = ExperimentOutput(name="Table 3: OpenAI / Anthropic API costs on FEVER")
    table = _duplicated_fever(scale, seed)
    tok = HashTokenizer()
    prompts = {p: _prompt_tokens(table, p, tok) for p in ("original", "ggr")}
    output_tokens = [3] * len(table.rows)

    report = ResultTable(
        f"FEVER x{DUPLICATION} duplication, {len(table.rows)} rows",
        ["Model", "Method", "PHR", "Cost ($)", "Savings (paper)"],
    )
    for pricing in (openai_gpt4o_mini(), anthropic_claude35_sonnet()):
        costs = {}
        phrs = {}
        for policy, toks in prompts.items():
            sim = APICacheSimulator(pricing)
            usages = sim.run(toks, output_tokens)
            costs[policy] = cost_of(usages, pricing).total
            total = sum(u.prompt_tokens for u in usages)
            phrs[policy] = sum(u.cached_tokens for u in usages) / total if total else 0.0
        savings = 1.0 - costs["ggr"] / costs["original"] if costs["original"] else 0.0
        p_phr, p_savings = PAPER_TABLE3[pricing.name]
        report.add_row(pricing.name, "Original", fmt_pct(phrs["original"]),
                       f"{costs['original']:.4f}", "-")
        report.add_row(pricing.name, "GGR", f"{fmt_pct(phrs['ggr'])} ({fmt_pct(p_phr)})",
                       f"{costs['ggr']:.4f}", f"{fmt_pct(savings)} ({fmt_pct(p_savings)})")
        key = pricing.provider
        out.metrics[f"{key}.original_cost"] = costs["original"]
        out.metrics[f"{key}.ggr_cost"] = costs["ggr"]
        out.metrics[f"{key}.savings"] = savings
        out.metrics[f"{key}.ggr_phr"] = phrs["ggr"]
        out.metrics[f"{key}.original_phr"] = phrs["original"]
    out.tables.append(report)
    out.notes.append(
        "Original ordering gets ~0% cache hits: without reordering no "
        "shared prefix clears the 1024-token minimum (paper §6.3)."
    )
    return out
