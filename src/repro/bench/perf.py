"""Perf-trajectory records: machine-readable benchmark history per PR.

Benchmarks record headline metrics into ``BENCH_<area>.json`` files —
one record per benchmark: ``{benchmark, value, criterion, commit}`` (plus
an optional per-record ``tolerance``). A committed baseline lives in
``benchmarks/baselines/``; CI reruns the benchmarks, writes fresh files,
and ``python -m repro.bench.perf compare`` fails the build when a fresh
value regresses beyond the tolerance band or stops satisfying its own
criterion.

Records should prefer **ratio-valued** metrics (speedup of fast path over
its in-repo oracle, measured in the same process) over raw seconds: ratios
cancel machine speed, so one tolerance band works on a laptop and a noisy
CI runner alike.

``criterion`` is a string ``"<op> <number>"`` with ``op`` one of ``>=`` or
``<=``; it states both the acceptance bound and the metric's direction
(``>=`` means bigger is better). Example record::

    {"benchmark": "engine_replay_vector_vs_stepwise_speedup",
     "value": 13.18, "criterion": ">= 6.5", "commit": "c08ff88"}
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError

#: Default relative regression band: a fresh value may be up to this much
#: worse than the committed baseline before CI fails. Wide enough for
#: shared-runner noise on ratio metrics; per-record ``tolerance`` overrides.
DEFAULT_TOLERANCE = 0.25


def current_commit() -> str:
    """Short git commit hash of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _parse_criterion(criterion: str) -> Tuple[str, float]:
    parts = criterion.split()
    if len(parts) != 2 or parts[0] not in (">=", "<="):
        raise ReproError(
            f"criterion must be '>= <number>' or '<= <number>', got {criterion!r}"
        )
    return parts[0], float(parts[1])


def satisfies(value: float, criterion: str) -> bool:
    op, bound = _parse_criterion(criterion)
    return value >= bound if op == ">=" else value <= bound


def bench_path(area: str, directory: Optional[str] = None) -> str:
    """``BENCH_<area>.json`` in ``directory`` (default: ``REPRO_BENCH_DIR``
    env var, else the current working directory)."""
    directory = directory or os.environ.get("REPRO_BENCH_DIR") or "."
    return os.path.join(directory, f"BENCH_{area}.json")


def load(path: str) -> Dict[str, dict]:
    """Records of one ``BENCH_*.json`` file keyed by benchmark name."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    records = data.get("records", []) if isinstance(data, dict) else data
    return {r["benchmark"]: r for r in records}


def record(
    area: str,
    benchmark: str,
    value: float,
    criterion: str,
    tolerance: Optional[float] = None,
    directory: Optional[str] = None,
    commit: Optional[str] = None,
) -> dict:
    """Merge one record into ``BENCH_<area>.json`` (upsert by benchmark
    name) and return it. The file keeps a sorted ``records`` list so diffs
    between PRs stay readable."""
    _parse_criterion(criterion)  # validate up front
    path = bench_path(area, directory)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    try:
        existing = load(path)
    except (OSError, ValueError):
        existing = {}
    rec = {
        "benchmark": benchmark,
        "value": round(float(value), 4),
        "criterion": criterion,
        "commit": commit if commit is not None else current_commit(),
    }
    if tolerance is not None:
        rec["tolerance"] = tolerance
    existing[benchmark] = rec
    payload = {"records": [existing[k] for k in sorted(existing)]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return rec


def compare(
    fresh: Dict[str, dict],
    baseline: Dict[str, dict],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Regressions of ``fresh`` against ``baseline``; empty list == pass.

    For every benchmark present in the baseline:

    * missing from the fresh run -> regression (a silently dropped
      benchmark must not look like a pass);
    * fresh value no longer satisfies the *fresh* criterion -> regression;
    * fresh value worse than baseline beyond the tolerance band (the
      record's own ``tolerance`` when present) -> regression. "Worse"
      follows the criterion's direction.

    Benchmarks only present in the fresh file are new — reported by the
    CLI as info, never a failure.
    """
    problems: List[str] = []
    for name, base in sorted(baseline.items()):
        rec = fresh.get(name)
        if rec is None:
            problems.append(f"{name}: present in baseline but not in fresh run")
            continue
        crit = rec.get("criterion", base.get("criterion"))
        value = float(rec["value"])
        if crit is not None and not satisfies(value, crit):
            problems.append(
                f"{name}: value {value} no longer satisfies criterion {crit!r}"
            )
        op, _ = _parse_criterion(crit) if crit else (">=", 0.0)
        band = base.get("tolerance", tolerance)
        base_value = float(base["value"])
        if op == ">=":
            floor = base_value * (1.0 - band)
            if value < floor:
                problems.append(
                    f"{name}: value {value} regressed below baseline "
                    f"{base_value} - {band:.0%} tolerance (floor {floor:.4f})"
                )
        else:
            ceil = base_value * (1.0 + band)
            if value > ceil:
                problems.append(
                    f"{name}: value {value} regressed above baseline "
                    f"{base_value} + {band:.0%} tolerance (ceiling {ceil:.4f})"
                )
    return problems


def _area_of(path: str) -> str:
    """Area slug from a ``BENCH_<area>.json`` filename (the whole basename
    when the file does not follow the convention)."""
    name = os.path.basename(path)
    if name.startswith("BENCH_") and name.endswith(".json"):
        return name[len("BENCH_") : -len(".json")]
    return name


def show(paths: List[str]) -> Tuple[List[str], List[str]]:
    """Render the per-area perf trajectory as fixed-width table lines.

    Returns ``(lines, errors)``: one table section per readable file
    (benchmark, value, criterion, commit — plus OK/FAIL against the
    record's own criterion), and one error string per unreadable path.
    """
    lines: List[str] = []
    errors: List[str] = []
    for path in paths:
        try:
            records = load(path)
        except FileNotFoundError:
            errors.append(f"missing file {path}")
            continue
        except (OSError, ValueError, KeyError, TypeError) as exc:
            errors.append(f"unreadable file {path} ({exc})")
            continue
        if lines:
            lines.append("")
        lines.append(f"area: {_area_of(path)}  ({path})")
        width = max(
            [len("benchmark")] + [len(name) for name in records]
        )
        lines.append(
            f"{'benchmark':<{width}}  {'value':>10}  {'criterion':<12}"
            f"  {'commit':<8}  status"
        )
        for name in sorted(records):
            rec = records[name]
            value = float(rec["value"])
            crit = rec.get("criterion")
            status = (
                ("OK" if satisfies(value, crit) else "FAIL") if crit else "-"
            )
            lines.append(
                f"{name:<{width}}  {value:>10.4f}  {str(crit or '-'):<12}"
                f"  {str(rec.get('commit', '-')):<8}  {status}"
            )
    return lines, errors


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.perf",
        description="Compare fresh BENCH_*.json records against a baseline, "
        "or render the committed trajectory.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    cmp_p = sub.add_parser("compare", help="diff fresh records vs baseline")
    cmp_p.add_argument("--fresh", required=True, help="fresh BENCH_*.json")
    cmp_p.add_argument("--baseline", required=True, help="committed baseline")
    cmp_p.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"relative regression band (default {DEFAULT_TOLERANCE})",
    )
    show_p = sub.add_parser(
        "show", help="render BENCH_*.json records as per-area tables"
    )
    show_p.add_argument(
        "paths",
        nargs="*",
        help="BENCH_*.json files (default: benchmarks/baselines/BENCH_*.json)",
    )
    args = parser.parse_args(argv)

    if args.cmd == "show":
        paths = args.paths
        if not paths:
            import glob as _glob

            paths = sorted(_glob.glob("benchmarks/baselines/BENCH_*.json"))
        if not paths:
            print(
                "show failed: no BENCH_*.json files found "
                "(pass paths or run from the repo root)",
                file=sys.stderr,
            )
            return 2
        lines, errors = show(paths)
        for line in lines:
            print(line)
        if errors:
            print(f"show failed: {'; '.join(errors)}", file=sys.stderr)
            return 2
        return 0

    # A missing or unreadable record file is an operator error (wrong
    # path, bench step skipped, baseline never committed) — name every
    # offender on one line and exit 2, distinct from a perf regression's
    # exit 1 and never a traceback.
    bad: List[str] = []
    fresh: Dict[str, dict] = {}
    baseline: Dict[str, dict] = {}
    for role, path in (("fresh", args.fresh), ("baseline", args.baseline)):
        try:
            records = load(path)
        except FileNotFoundError:
            bad.append(f"missing {role} file {path}")
            continue
        except (OSError, ValueError, KeyError, TypeError) as exc:
            bad.append(f"unreadable {role} file {path} ({exc})")
            continue
        if role == "fresh":
            fresh = records
        else:
            baseline = records
    if bad:
        print(f"compare failed: {'; '.join(bad)}", file=sys.stderr)
        return 2
    problems = compare(fresh, baseline, tolerance=args.tolerance)
    for name in sorted(set(fresh) - set(baseline)):
        print(f"new benchmark (no baseline yet): {name} = {fresh[name]['value']}")
    for name, rec in sorted(fresh.items()):
        if name in baseline:
            print(
                f"{name}: {baseline[name]['value']} -> {rec['value']} "
                f"(criterion {rec.get('criterion')})"
            )
    if problems:
        print(f"\n{len(problems)} perf regression(s):", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    print("\nno perf regressions")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    raise SystemExit(main())
