"""End-to-end benchmark of the reproduction: host time and the paper's
simulated metrics on two paper queries and a served fleet.

    python3 perfbench/run.py --workload t1-movies --seed 0 --seconds 20 --trace 0

Run it from the repository root; it imports the program from ``src/``.
A run sets the workload up ``n_setups`` times (``setup_s`` is the median),
then runs units of work for ``--seconds`` (at least ``min_units`` of
them), checks every unit's outputs and prints the end-to-end metrics.
``--trace 1`` adds one traced set-up and unit (see probe.py) and prints
the per-layer metrics instead. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is 0 when every check held, 1 when one failed and 2 when the program
sources are missing. NOTES.md defines the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("t1-movies", "t2-products-sql", "serve-fleet")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed(fn, *args):
    """``(fn(*args), seconds)``. Objects alive before the call sit in the
    collector's permanent generation while it runs, so what the harness
    keeps from earlier units never adds to a later unit's collection work."""
    gc.collect()
    gc.freeze()
    try:
        t0 = time.perf_counter()
        out = fn(*args)
        return out, time.perf_counter() - t0
    finally:
        gc.unfreeze()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: program sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")

    setup_s = [timed(wl.setup, i)[1] for i in range(wl.n_setups)]

    # Untraced units. The first min_units are kept as the reference units;
    # every later unit must repeat its reference's simulated outputs.
    walls, kept, problems = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while len(walls) < wl.min_units or time.perf_counter() - start < args.seconds:
        i = len(walls)
        unit, wall = timed(wl.unit, i)
        walls.append(wall)
        found = wl.check(unit, i)
        if i < wl.min_units:
            kept.append(unit)
            # Peak memory of the set-ups and reference units, a fixed
            # amount of work however many units the time allows.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elif wl.signature(unit) != wl.signature(kept[i % wl.min_units]):
            found.append("simulated outputs differ from the same unit's first run")
        del unit
        attempted += 1
        failed += bool(found)
        problems += [f"unit {i}: {p}" for p in found]
    wall_s = statistics.median(walls)
    print(f"setup: {len(setup_s)} runs, median {statistics.median(setup_s):.4f} s")
    print(f"units: {len(walls)} measured, median wall {wall_s:.4f} s; walls (s): "
          + " ".join(f"{w:.3f}" for w in walls))

    if args.trace:
        metrics, lines, found = traced_run(wl, kept[0], walls)
        attempted += 1
        failed += bool(found)
        problems += [f"traced unit: {p}" for p in found]
    else:
        baselines, found = wl.baselines()
        attempted += len(baselines)
        failed += len(found)
        problems += [f"baseline {p}" for ps in found.values() for p in ps]
        sim, paper, lines = wl.simulated_metrics(kept, baselines)
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "wall_s": (wall_s, "s"),
            "prompts_per_s": (wl.prompts(kept[0]) / wall_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_share": ((attempted - failed) / attempted, "ratio"),
            **sim,
        }
        lines.append("")
        lines.append(f"{'workload':<16} {'metric':<28} {'value':>14} unit   paper")
        for name, (value, unit) in metrics.items():
            ref = paper.get(name)
            note = f"{ref[0]:g} ({ref[1]})" if ref else ""
            lines.append(
                f"{args.workload:<16} {name:<28} {value:14.6g} {unit:<6} {note}"
            )
        lines.append(f"failed_share = {failed}/{attempted} = {failed / attempted:g}")
    print("\n".join(lines))
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def traced_run(wl, reference, walls):
    """One set-up and one unit (unit 0) under the layer probe. Returns the
    per-layer metrics, report lines and check failures: the unit's own
    checks, its simulated outputs against the untraced unit 0, and the
    self-time accounting against the traced wall."""
    from probe import LayerProbe

    gc.collect()
    with LayerProbe() as probe:
        wl.setup(0)
        t0 = time.perf_counter()
        unit = wl.unit(0)
        traced_unit_s = time.perf_counter() - t0
    found = wl.check(unit, 0)
    if wl.signature(unit) != wl.signature(reference):
        found.append("simulated outputs differ from the untraced run")
    error = probe.accounting_error_s()
    if error > 1e-6 * probe.root_s:
        found.append(f"layer self times miss the traced wall by {error:.3g} s")
    same_unit = [w for j, w in enumerate(walls) if j % wl.min_units == 0]
    metrics = probe.metrics(traced_unit_s / statistics.median(same_unit))
    lines = [f"traced set-up + unit 0: {probe.root_s:.4f} s; self time by layer:"]
    for layer, s in sorted(probe.self_s.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<20} {s:9.4f} s  {100 * s / probe.root_s:5.1f}%")
    lines.append("")
    lines.extend(f"{k:<34} {v:>16.6g} {u}" for k, (v, u) in metrics.items())
    return metrics, lines, found


if __name__ == "__main__":
    sys.exit(main())
