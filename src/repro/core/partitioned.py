"""Partition-parallel reordering (the paper's Spark deployment, §5).

The paper implements its operator in PySpark, where a table arrives as
partitions. Solving each partition independently is embarrassingly parallel
and keeps per-solver memory at the partition size — at the cost of losing
cross-partition sharing. Two mechanisms recover most of that loss:

* **clustered partitioning** — rows are bucketed by the value of the
  statistics-best column before solving, so rows likely to share prefixes
  land in the same partition (Spark's ``repartition`` by key);
* **partition ordering** — solved partitions are concatenated in
  lexicographic order of their leading prefix, so the boundary rows of
  consecutive partitions have a chance to match too.

``partitioned_reorder(parallel=True)`` actually fans the per-partition
solves out over a :class:`concurrent.futures.ProcessPoolExecutor`, so
``solver_seconds`` becomes measured multi-worker wall-clock rather than the
``critical_path_seconds`` simulation. The pool is kept cheap:

* under the ``fork`` start method workers inherit the parent table
  copy-on-write through a module global — jobs carry only row-id lists;
  other start methods fall back to pickling the table once per worker via
  the pool initializer;
* workers return compact index-level layouts (row order + per-row column
  order), not materialized cell objects;
* the parent rebuilds and index-validates the stitched schedule itself, so
  parallel and sequential runs return identical schedules.

Worker count defaults to the CPUs this process may actually use
(``os.sched_getaffinity``), so on a single-core host ``parallel=True``
degrades to the sequential path instead of paying pool overhead for
nothing; pass ``max_workers`` to force a pool.

``partitioned_reorder`` returns the same validated
:class:`~repro.core.ordering.RequestSchedule` as the whole-table solver, so
everything downstream (engine, pricing, accuracy) is unchanged.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.fd import FunctionalDependencies
from repro.core.ggr import GGRConfig, ggr
from repro.core.ordering import RequestSchedule
from repro.core.phc import phc, phr
from repro.core.stats import TableStats
from repro.core.table import Cell, OrderedRow, ReorderTable
from repro.errors import SolverError

PARTITION_MODES = ("round_robin", "range", "clustered")

logger = logging.getLogger(__name__)

#: One partition's solve result in compact index form:
#: (row order within the sub-table, per-row column orders, solve seconds).
_PartitionSolve = Tuple[List[int], List[Tuple[int, ...]], float]

#: Worker-process state installed by the pool initializer.
_WORKER_STATE: Optional[
    Tuple[ReorderTable, Optional[FunctionalDependencies], Optional[GGRConfig]]
] = None


def _available_cpus() -> int:
    """CPUs this process may use: ``os.sched_getaffinity`` where it exists
    (Linux — respects cgroup/taskset restrictions), else ``os.cpu_count()``
    (macOS/Windows never define the attribute)."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0))
        except OSError:  # pragma: no cover - exotic kernels
            pass
    return os.cpu_count() or 1


@dataclass
class PartitionedResult:
    """Outcome of a partition-parallel solve."""

    schedule: RequestSchedule
    exact_phc: int
    exact_phr: float
    n_partitions: int
    partition_sizes: List[int]
    solver_seconds: float
    per_partition_seconds: List[float] = field(default_factory=list)
    n_workers: int = 1
    """Process-pool workers actually used (1 = sequential in-process)."""
    start_method: str = "in-process"
    """Process start method the pool ran under (``fork``/``spawn``/
    ``forkserver``), or ``"in-process"`` for the sequential path — recorded
    so bench runs on different platforms are comparable."""
    worker_transport: str = "in-process"
    """How the table reached the workers: ``"cow-fork"`` (inherited
    copy-on-write), ``"shared-memory"`` (attached from a
    ``multiprocessing.shared_memory`` segment, zero per-worker pickling),
    or ``"in-process"``."""

    @property
    def critical_path_seconds(self) -> float:
        """Wall-clock with perfect parallelism: the slowest partition."""
        return max(self.per_partition_seconds, default=0.0)


def _assign_partitions(
    table: ReorderTable, n_partitions: int, mode: str
) -> List[List[int]]:
    n = table.n_rows
    if mode == "round_robin":
        parts: List[List[int]] = [[] for _ in range(n_partitions)]
        for i in range(n):
            parts[i % n_partitions].append(i)
        return parts
    if mode == "range":
        size = (n + n_partitions - 1) // n_partitions
        return [list(range(lo, min(lo + size, n))) for lo in range(0, n, size)]
    # clustered: bucket rows by the statistics-best column's value so that
    # shared values co-locate (hash-partition by key, like Spark).
    stats = TableStats.compute(table)
    key_field = stats.field_order_by_score()[0]
    key_idx = table.field_index(key_field)
    buckets: Dict[str, List[int]] = {}
    for i, row in enumerate(table.rows):
        buckets.setdefault(row[key_idx], []).append(i)
    parts = [[] for _ in range(n_partitions)]
    sizes = [0] * n_partitions
    # Greedy bin packing, largest group first, into the emptiest partition:
    # keeps groups whole while balancing row counts.
    for _, rows in sorted(buckets.items(), key=lambda kv: -len(kv[1])):
        target = min(range(n_partitions), key=lambda p: sizes[p])
        parts[target].extend(rows)
        sizes[target] += len(rows)
    return parts


def _init_worker(
    table: ReorderTable,
    fds: Optional[FunctionalDependencies],
    config: Optional[GGRConfig],
) -> None:
    """Pool initializer: stash the shared solve inputs in the worker.

    Under ``fork`` the arguments arrive through copy-on-write memory; under
    ``spawn``/``forkserver`` they are pickled once per worker instead of
    once per job.
    """
    global _WORKER_STATE
    _WORKER_STATE = (table, fds, config)


def _solve_rows(
    table: ReorderTable,
    row_ids: Sequence[int],
    fds: Optional[FunctionalDependencies],
    config: Optional[GGRConfig],
) -> _PartitionSolve:
    """Solve one partition; return its layout in sub-table indices."""
    sub = ReorderTable(table.fields, [table.rows[i] for i in row_ids])
    t0 = time.perf_counter()
    _, sched, _ = ggr(sub, fds=fds, config=config)
    seconds = time.perf_counter() - t0
    field_idx = {f: i for i, f in enumerate(table.fields)}
    row_order = [r.row_id for r in sched.rows]
    field_orders = [
        tuple(field_idx[c.field] for c in r.cells) for r in sched.rows
    ]
    return row_order, field_orders, seconds


def _init_worker_shared(
    handle,
    fds: Optional[FunctionalDependencies],
    config: Optional[GGRConfig],
) -> None:
    """Pool initializer for non-fork start methods: rebuild the table from
    the parent's shared-memory segment instead of unpickling it — the only
    bytes pickled per worker are the handle and the (small) solve config."""
    from repro.core.compiled import attach_shared_table

    global _WORKER_STATE
    _WORKER_STATE = (attach_shared_table(handle), fds, config)


def _solve_partition_job(row_ids: List[int]) -> _PartitionSolve:
    """Worker body: one pickled row-id list in, one compact layout out."""
    assert _WORKER_STATE is not None, "pool initializer did not run"
    table, fds, config = _WORKER_STATE
    return _solve_rows(table, row_ids, fds, config)


def partitioned_reorder(
    table: ReorderTable,
    n_partitions: int,
    mode: str = "clustered",
    fds: Optional[FunctionalDependencies] = None,
    config: Optional[GGRConfig] = None,
    order_partitions: bool = True,
    parallel: bool = False,
    max_workers: Optional[int] = None,
    start_method: Optional[str] = None,
) -> PartitionedResult:
    """Solve each partition with GGR and stitch the schedules together.

    ``mode`` picks the row→partition assignment (see module docstring).
    ``order_partitions`` sorts the solved partitions by their first row's
    rendered prefix so consecutive partitions may share cache state.
    ``parallel=True`` fans the per-partition solves out over a process
    pool; ``max_workers`` caps the pool (default: the CPUs available to
    this process, bounded by the partition count). ``start_method`` forces
    the pool's process start method (``"fork"``/``"spawn"``/
    ``"forkserver"``; default: prefer fork where available). Non-fork
    workers attach the table from a shared-memory export of its dictionary
    codes instead of unpickling it. All paths — parallel under any start
    method, and sequential — return identical schedules; the chosen method
    and table transport are recorded on the result.
    """
    if mode not in PARTITION_MODES:
        raise SolverError(f"mode must be one of {PARTITION_MODES}, got {mode!r}")
    if n_partitions < 1:
        raise SolverError("n_partitions must be >= 1")
    n_partitions = min(n_partitions, max(1, table.n_rows))

    assignments = [p for p in _assign_partitions(table, n_partitions, mode) if p]

    start = time.perf_counter()
    chosen_method = "in-process"
    transport = "in-process"
    n_workers = 1
    if parallel and len(assignments) > 1:
        n_workers = min(max_workers or _available_cpus(), len(assignments))
    if n_workers > 1:
        import concurrent.futures
        import multiprocessing as mp

        methods = mp.get_all_start_methods()
        if start_method is not None and start_method not in methods:
            raise SolverError(
                f"start_method must be one of {methods}, got {start_method!r}"
            )
        ctx = mp.get_context(
            start_method or ("fork" if "fork" in methods else None)
        )
        chosen_method = ctx.get_start_method()
        shm = None
        if chosen_method == "fork":
            # Workers inherit the (immutable) table copy-on-write through
            # the initializer args — nothing is pickled but row-id lists.
            transport = "cow-fork"
            initializer, initargs = _init_worker, (table, fds, config)
        else:
            from repro.core.compiled import export_shared_table

            # Spawn/forkserver: export the dictionary codes once into
            # shared memory; each worker attaches by name and rebuilds the
            # table without the parent re-pickling it per worker.
            transport = "shared-memory"
            handle, shm = export_shared_table(table)
            initializer, initargs = _init_worker_shared, (handle, fds, config)
        logger.info(
            "partitioned_reorder pool: %d workers, start method %s, "
            "table transport %s",
            n_workers,
            chosen_method,
            transport,
        )
        try:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=n_workers,
                mp_context=ctx,
                initializer=initializer,
                initargs=initargs,
            ) as pool:
                solves = list(pool.map(_solve_partition_job, assignments))
        except OSError:
            # Process pools can be unavailable (restricted sandboxes);
            # degrade to the in-process sequential path.
            n_workers = 1
            chosen_method = transport = "in-process"
            solves = [_solve_rows(table, p, fds, config) for p in assignments]
        finally:
            if shm is not None:
                shm.close()
                shm.unlink()
    else:
        solves = [_solve_rows(table, p, fds, config) for p in assignments]

    solved: List[Tuple[Tuple[str, ...], List[Tuple[int, Tuple[int, ...]]]]] = []
    per_partition: List[float] = []
    for rows, (row_order, field_orders, seconds) in zip(assignments, solves):
        per_partition.append(seconds)
        remapped = [
            (rows[sub_rid], forder)
            for sub_rid, forder in zip(row_order, field_orders)
        ]
        if remapped:
            first_rid, first_order = remapped[0]
            src = table.rows[first_rid]
            sort_key = tuple(src[c] for c in first_order)
        else:
            sort_key = ()
        solved.append((sort_key, remapped))
    if order_partitions:
        solved.sort(key=lambda kv: kv[0])

    schedule = _schedule_from_global_layout(
        table, [entry for _, part in solved for entry in part]
    )
    elapsed = time.perf_counter() - start
    return PartitionedResult(
        schedule=schedule,
        exact_phc=phc(schedule),
        exact_phr=phr(schedule),
        n_partitions=len(assignments),
        partition_sizes=[len(p) for p in assignments],
        solver_seconds=elapsed,
        per_partition_seconds=per_partition,
        n_workers=n_workers,
        start_method=chosen_method,
        worker_transport=transport,
    )


def _schedule_from_global_layout(
    table: ReorderTable, layout: List[Tuple[int, Tuple[int, ...]]]
) -> RequestSchedule:
    """Materialize and validate a stitched whole-table layout.

    Cells are drawn from the table by (row, column) index, so index-level
    permutation checks are sufficient for schedule validity — no per-cell
    string sorting. Uses the compiled cell pool when available.
    """
    from repro.core.compiled import (
        compile_table,
        fastpath_enabled,
        schedule_from_layout,
        validate_layout,
    )

    if fastpath_enabled():
        return schedule_from_layout(compile_table(table), layout)

    validate_layout(table.n_rows, table.n_fields, layout)
    fields = table.fields
    rows_out: List[OrderedRow] = []
    for rid, forder in layout:
        src = table.rows[rid]
        rows_out.append(
            OrderedRow(
                row_id=rid,
                cells=tuple(Cell(fields[c], src[c]) for c in forder),
            )
        )
    return RequestSchedule(rows=rows_out, source_fields=fields)
