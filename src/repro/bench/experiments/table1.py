"""Table 1: dataset statistics (rows, fields, avg input/output tokens)."""

from __future__ import annotations

from typing import Optional

from repro.bench.experiments.base import dataset
from repro.bench.queries import FILTER_PROMPTS, RAG_PROMPTS
from repro.bench.reporting import ExperimentOutput, ResultTable, default_scale
from repro.core.table import Cell
from repro.llm.encode_cache import encode_cache_for
from repro.llm.prompts import build_prompt
from repro.llm.tokenizer import HashTokenizer

PAPER = {
    "Movies": (15000, 8, 276),
    "Products": (14890, 8, 377),
    "BIRD": (14920, 4, 765),
    "PDMX": (10000, 57, 738),
    "Beer": (28479, 8, 156),
    "SQuAD": (22665, 5, 1047),
    "FEVER": (19929, 5, 1302),
}

_ORDER = ("movies", "products", "bird", "pdmx", "beer", "squad", "fever")


def measure_input_tokens(ds, sample_rows: int = 50) -> int:
    """Average tokenized prompt length over a row sample (the Table 1
    ``input_avg`` metric)."""
    tok = HashTokenizer()
    cache = encode_cache_for(tok)
    prompt = FILTER_PROMPTS.get(ds.name.lower()) or RAG_PROMPTS.get(ds.name.lower(), "q")
    table = ds.table
    n = min(sample_rows, table.n_rows)
    total = 0
    for i in range(n):
        row = table.row(i)
        cells = tuple(Cell(f, "" if v is None else str(v)) for f, v in row.items())
        total += cache.count(tok, build_prompt(prompt, cells))
    return total // max(1, n)


def run(scale: Optional[float] = None, seed: int = 0) -> ExperimentOutput:
    scale = scale if scale is not None else default_scale()
    out = ExperimentOutput(name="Table 1: dataset statistics")
    t = ResultTable(
        f"Datasets at scale={scale} (paper columns in parentheses)",
        ["Dataset", "n_rows (paper)", "n_fields (paper)", "input_avg (paper)", "output_avg per type"],
    )
    for name in _ORDER:
        ds = dataset(name, scale, seed)
        paper_rows, paper_fields, paper_in = PAPER[ds.name]
        measured_in = measure_input_tokens(ds)
        outs = ", ".join(f"{k}:{v}" for k, v in sorted(ds.output_tokens.items()))
        t.add_row(
            ds.name,
            f"{ds.n_rows} ({paper_rows})",
            f"{len(ds.table.fields)} ({paper_fields})",
            f"{measured_in} ({paper_in})",
            outs,
        )
        out.metrics[f"{name}.rows"] = ds.n_rows
        out.metrics[f"{name}.fields"] = len(ds.table.fields)
        out.metrics[f"{name}.input_avg"] = measured_in
        out.metrics[f"{name}.paper_input_avg"] = paper_in
    out.tables.append(t)
    out.notes.append(
        "Row counts scale with --scale; field counts and token-length "
        "profiles are the reproduction targets."
    )
    return out
