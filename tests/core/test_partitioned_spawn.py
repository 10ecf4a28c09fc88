"""Start-method equivalence for the partitioned process pool.

``partitioned_reorder(parallel=True)`` must produce the identical schedule
no matter how the workers are started — copy-on-write fork, spawn or
forkserver attaching the table from its shared-memory dictionary-code
export, or no pool at all — and must record which method and table
transport it actually used, so bench runs on platforms with different
defaults (fork on Linux, spawn on macOS/Windows) stay comparable.

Pool workers are capped at 2: the suite must exercise real pools even on
single-CPU CI runners, where the default worker count degrades to the
sequential path.
"""

import multiprocessing as mp
import random

import pytest

from repro.core.fd import FunctionalDependencies
from repro.core.partitioned import partitioned_reorder
from repro.core.table import ReorderTable
from repro.errors import SolverError


def random_table(rng, n_rows=40, n_fields=4, n_groups=5):
    """Grouped rows with duplicated long values (dictionary-friendly)."""
    fields = tuple(f"f{i}" for i in range(n_fields))
    rows = []
    for r in range(n_rows):
        g = rng.randrange(n_groups)
        rows.append(
            tuple(
                f"grp{g}-field{i}-" + "v" * rng.randrange(1, 8)
                if rng.random() < 0.7
                else f"row{r}-field{i}"
                for i in range(n_fields)
            )
        )
    return ReorderTable(fields, rows)


def schedule_key(res):
    """Bit-exact identity of a schedule: row order and per-row cells."""
    return [(r.row_id, r.cells) for r in res.schedule]


def pool_methods():
    methods = [m for m in mp.get_all_start_methods() if m != "forkserver"]
    # forkserver is fork + a server process; covering fork and spawn spans
    # both transports (cow-fork and shared-memory/pickle).
    return methods


class TestStartMethodEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_all_methods_identical_to_sequential(self, seed):
        rng = random.Random(seed)
        table = random_table(rng)
        fds = FunctionalDependencies.from_groups([["f0", "f1"]])
        seq = partitioned_reorder(table, 4, fds=fds, parallel=False)
        assert seq.start_method == "in-process"
        assert seq.worker_transport == "in-process"
        want = schedule_key(seq)
        for method in pool_methods():
            res = partitioned_reorder(
                table,
                4,
                fds=fds,
                parallel=True,
                max_workers=2,
                start_method=method,
            )
            assert schedule_key(res) == want, method
            assert res.exact_phc == seq.exact_phc
            # A degraded pool records in-process; otherwise the requested
            # method must be the one used.
            assert res.start_method in (method, "in-process")

    @pytest.mark.parametrize("seed", range(2))
    def test_spawn_matches_fork_bit_identical(self, seed):
        if not {"fork", "spawn"} <= set(mp.get_all_start_methods()):
            pytest.skip("platform lacks fork or spawn")
        rng = random.Random(100 + seed)
        table = random_table(rng, n_rows=30, n_groups=4)
        kw = dict(parallel=True, max_workers=2)
        forked = partitioned_reorder(table, 3, start_method="fork", **kw)
        spawned = partitioned_reorder(table, 3, start_method="spawn", **kw)
        assert schedule_key(spawned) == schedule_key(forked)
        assert spawned.exact_phc == forked.exact_phc


class TestTransportMetadata:
    def test_fork_records_cow_transport(self):
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("no fork on this platform")
        table = random_table(random.Random(7))
        res = partitioned_reorder(
            table, 4, parallel=True, max_workers=2, start_method="fork"
        )
        if res.start_method == "fork":  # pool may degrade in sandboxes
            assert res.worker_transport == "cow-fork"

    def test_spawn_records_shared_memory_transport(self):
        if "spawn" not in mp.get_all_start_methods():
            pytest.skip("no spawn on this platform")
        table = random_table(random.Random(8))
        res = partitioned_reorder(
            table, 4, parallel=True, max_workers=2, start_method="spawn"
        )
        if res.start_method == "spawn":
            assert res.worker_transport == "shared-memory"

    def test_unknown_start_method_rejected(self):
        table = random_table(random.Random(9))
        with pytest.raises(SolverError):
            partitioned_reorder(
                table, 4, parallel=True, max_workers=2, start_method="thread"
            )

    def test_sequential_metadata(self):
        table = random_table(random.Random(10))
        res = partitioned_reorder(table, 4, parallel=False)
        assert res.n_workers == 1
        assert res.start_method == "in-process"
        assert res.worker_transport == "in-process"
