"""Paged KV-cache block manager (vLLM-style).

KV memory is allocated in fixed-size blocks of ``block_tokens`` tokens.
Blocks are ref-counted so a prefix shared by many sequences is stored once;
forking a sequence bumps refs, releasing decrements and frees at zero. The
engine uses the manager for admission control; the radix tree decides *what*
is shared, the block manager enforces *how much* physical memory that costs
(including fragmentation from partially-filled last blocks).

``REPRO_SERVING_PAGED=0`` selects the token-sum admission oracle in the
engine (see :func:`paged_accounting_enabled`), mirroring
``REPRO_SERVING_FASTPATH`` for the replay loop.

The manager has two interchangeable storage backends. The default keeps
the free pool in a Python list and refcounts in a dict — the reference
implementation. ``vector=True`` keeps the free pool as a numpy stack and
refcounts as a numpy array, so multi-block operations (a prompt path's
fork bundle, a decode tail's growth, a victim's release) are single slab
operations instead of per-block Python loops; profiling the event-driven
replay showed those loops were roughly half its runtime. The engine's
``mode="vector"`` runs on the numpy backend and the stepwise oracle on
the scalar one. Both backends implement identical semantics — same
counts, same errors, same block-id hand-out order
(``tests/llm/test_blocks_churn.py`` drives them in lockstep) — with one
exception: releasing a bundle (:meth:`BlockManager.fork_ids`) can return
its freed blocks to the pool in a different order on the two backends
(the numpy backend walks the bundle's distinct ids, the scalar one its
multiset), so later hand-outs may pick different ids. Counts stay equal.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as _np

from repro.errors import CapacityError, ServingError


def paged_accounting_enabled() -> bool:
    """Whether the engine admits on block-granular paged-KV accounting
    (the default) instead of the token-sum oracle.
    ``REPRO_SERVING_PAGED=0`` forces the oracle everywhere."""
    flag = os.environ.get("REPRO_SERVING_PAGED", "1").strip().lower()
    return flag not in ("0", "false", "off", "no")


@dataclass
class BlockAllocation:
    """A contiguous logical run of ref-counted block ids.

    ``start_offset`` is the token position inside ``block_ids[0]`` where
    this allocation's tokens begin: fresh allocations start at 0, but the
    tail half of a mid-block :meth:`BlockManager.split` starts partway into
    the straddling block. Tokens occupy positions ``[start_offset,
    start_offset + n_tokens)`` laid out consecutively across the blocks —
    the invariant every block computation below relies on.
    """

    block_ids: List[int]
    n_tokens: int
    released: bool = False
    start_offset: int = 0
    #: Bundles (see :meth:`BlockManager.fork_ids`) hold a *multiset* of
    #: block ids — one request's references to every node allocation along
    #: its prompt path, concatenated. A block straddling a radix edge split
    #: legitimately appears in two adjacent path nodes, so release must
    #: decrement per occurrence rather than treat the ids as distinct.
    bundle: bool = False
    #: Vector backend only: the bundle decomposed as distinct ids (a numpy
    #: array) plus the rare extra occurrences of straddle blocks (a short
    #: list, each id also present in ``uniq``). Precomputed at fork time so
    #: both fork and release are plain fancy-indexing passes — no sort, no
    #: scatter-add — over the distinct ids.
    uniq: object = field(default=None, repr=False)
    extra: object = field(default=None, repr=False)
    #: Vector backend only: memo of ``block_ids`` as a numpy array (see
    #: :meth:`BlockManager.ids_array`). Node allocations in the radix tree
    #: are forked into every admitted request's path bundle, so the
    #: conversion pays off across admissions. Invalidated by :meth:`grow`.
    ids_arr: object = field(default=None, repr=False)
    #: Flat radix backend only: the node *slot* this allocation is bound to
    #: (-1 when unowned — forks, bundles, and node-backend allocations).
    #: Rebound on every radix edge split; the flat backend's invariant
    #: checker verifies slot and allocation agree.
    owner: int = field(default=-1, repr=False)


class BlockManager:
    """Fixed-pool allocator with ref counting.

    Parameters
    ----------
    capacity_tokens:
        Total KV token capacity (device memory / bytes-per-token).
    block_tokens:
        Tokens per block (16 in vLLM by default).
    vector:
        Use the numpy backend (the vector engine mode's); the default is
        the scalar reference backend the stepwise oracle runs on.
    """

    def __init__(
        self,
        capacity_tokens: int,
        block_tokens: int = 16,
        vector: bool = False,
    ):
        if capacity_tokens <= 0 or block_tokens <= 0:
            raise ServingError("capacity_tokens and block_tokens must be positive")
        if capacity_tokens < block_tokens:
            raise ServingError(
                f"capacity of {capacity_tokens} tokens holds zero "
                f"{block_tokens}-token blocks"
            )
        self.block_tokens = block_tokens
        self.n_blocks = capacity_tokens // block_tokens
        self.vector = vector
        if vector:
            # Free pool as a LIFO stack in [0, _free_top); refcounts as a
            # dense array. Slab pops come off the stack top in the same
            # high-to-low order the scalar list.pop() hands out.
            self._free_arr = _np.arange(self.n_blocks, dtype=_np.int64)
            self._free_top = self.n_blocks
            self._refs_arr = _np.zeros(self.n_blocks, dtype=_np.int64)
            self._free = None
            self._refs = None
        else:
            self._free: List[int] = list(range(self.n_blocks))
            self._refs: Dict[int, int] = {}
        # KV tokens parked in host memory by preempt-swap: they occupy no
        # device blocks (that is the point of swapping out), only this
        # ledger, which unpark draws back down. Purely token-denominated —
        # host memory is modeled as unbounded next to device KV.
        self.parked_tokens = 0
        # Per-tenant quota enforcement: ``_tenant_quota`` holds the hard
        # block ceilings (absent = unlimited), ``_tenant_used`` the blocks
        # currently charged. The engine charges/uncharges around its own
        # allocate/release calls — the ledger is deliberately decoupled from
        # individual allocations because fork-shared prefix blocks have no
        # single owning tenant.
        self._tenant_quota: Dict[str, int] = {}
        self._tenant_used: Dict[str, int] = {}

    @property
    def free_blocks(self) -> int:
        if self.vector:
            return self._free_top
        return len(self._free)

    @property
    def used_blocks(self) -> int:
        return self.n_blocks - self.free_blocks

    @property
    def free_tokens(self) -> int:
        return self.free_blocks * self.block_tokens

    def blocks_needed(self, n_tokens: int) -> int:
        return (n_tokens + self.block_tokens - 1) // self.block_tokens

    def can_allocate(self, n_tokens: int) -> bool:
        return self.blocks_needed(n_tokens) <= self.free_blocks

    def allocate(self, n_tokens: int) -> BlockAllocation:
        """Allocate blocks for ``n_tokens``; raises :class:`CapacityError`
        when the pool cannot satisfy the request. ``n_tokens == 0`` yields a
        valid empty allocation (a decode tail before its first token)."""
        if n_tokens < 0:
            raise ServingError(f"cannot allocate {n_tokens} tokens")
        need = self.blocks_needed(n_tokens)
        if need > self.free_blocks:
            raise CapacityError(
                f"need {need} blocks for {n_tokens} tokens, only {self.free_blocks} free"
            )
        ids = self._pop_free(need)
        return BlockAllocation(block_ids=ids, n_tokens=n_tokens)

    def _pop_free(self, need: int) -> List[int]:
        """Take ``need`` blocks off the free stack at refcount 1. The
        caller has already checked capacity."""
        if not self.vector:
            ids = [self._free.pop() for _ in range(need)]
            for b in ids:
                self._refs[b] = 1
            return ids
        if need == 0:
            return []
        top = self._free_top
        new_top = top - need
        taken = self._free_arr[new_top:top]
        self._refs_arr[taken] = 1
        self._free_top = new_top
        return taken[::-1].tolist()

    def fork(self, alloc: BlockAllocation) -> BlockAllocation:
        """Share an allocation copy-free: bump every block's refcount."""
        if alloc.released:
            raise ServingError("fork of a released allocation")
        if alloc.bundle:
            # A bundle's ids are a multiset; per-occurrence semantics only
            # exist on the fork_ids path.
            ids = alloc.block_ids
            if not ids and alloc.uniq is not None:
                ids = alloc.uniq.tolist() + list(alloc.extra or ())
            return self.fork_ids(ids, alloc.n_tokens)
        if self.vector:
            refs = self._refs_arr
            ids = _np.asarray(alloc.block_ids, dtype=_np.int64)
            if ids.size:
                cur = refs[ids]
                if cur.min() <= 0:
                    raise ServingError("fork of a freed block")
                refs[ids] = cur + 1
        else:
            for b in alloc.block_ids:
                if self._refs.get(b, 0) <= 0:
                    raise ServingError(f"fork of freed block {b}")
                self._refs[b] += 1
        return BlockAllocation(
            block_ids=list(alloc.block_ids),
            n_tokens=alloc.n_tokens,
            start_offset=alloc.start_offset,
        )

    def fork_ids(
        self, block_ids: Sequence[int], n_tokens: int
    ) -> BlockAllocation:
        """Fork a concatenated multiset of block ids, returning a *bundle*
        allocation: each occurrence takes — and release later drops — one
        reference. Callers that already know the multiset structure (the
        radix path walk does) should use :meth:`fork_bundle` directly; this
        derives it with a sort."""
        if not self.vector:
            for b in block_ids:
                if self._refs.get(b, 0) <= 0:
                    raise ServingError(f"fork of freed block {b}")
                self._refs[b] += 1
            return BlockAllocation(
                block_ids=list(block_ids), n_tokens=n_tokens, bundle=True
            )
        uniq, cnt = _np.unique(
            _np.asarray(block_ids, dtype=_np.int64), return_counts=True
        )
        dup = cnt > 1
        extra = _np.repeat(uniq[dup], cnt[dup] - 1).tolist()
        return self.fork_bundle(uniq.tolist(), extra, n_tokens)

    def fork_bundle(
        self, base: List[int], extra: List[int], n_tokens: int
    ) -> BlockAllocation:
        """Fork a whole prompt path's blocks in one pass: ``base`` holds
        every distinct block id, ``extra`` the additional occurrences of
        blocks referenced twice along the path (a block straddling a radix
        edge split belongs to both adjacent nodes — rare, and structurally
        known to the radix walk, so no dedup sort is ever needed here).
        This is how the vectorized engine admits a request with one
        refcount operation instead of one fork per radix node."""
        if not self.vector:
            return self.fork_ids(base + extra, n_tokens)
        refs = self._refs_arr
        arr = _np.asarray(base, dtype=_np.int64)
        if arr.size:
            cur = refs[arr]
            if cur.min() <= 0:
                raise ServingError("fork of a freed block")
            refs[arr] = cur + 1
        for b in extra:
            if refs[b] <= 0:
                raise ServingError(f"fork of freed block {b}")
            refs[b] += 1
        alloc = BlockAllocation(
            block_ids=base + extra, n_tokens=n_tokens, bundle=True
        )
        alloc.uniq = arr
        alloc.extra = extra
        return alloc

    def ids_array(self, alloc: BlockAllocation) -> "object":
        """``alloc.block_ids`` as a cached numpy int64 array (vector
        backend only). Safe to alias: the array is never mutated — growing
        the allocation drops the memo and a fresh conversion rebuilds it."""
        arr = alloc.ids_arr
        if arr is None:
            arr = alloc.ids_arr = _np.asarray(
                alloc.block_ids, dtype=_np.int64
            )
        return arr

    def fork_bundle_parts(
        self, parts: List["object"], extra: List[int], n_tokens: int
    ) -> BlockAllocation:
        """:meth:`fork_bundle` taking the distinct ids as a list of numpy
        arrays (per-node slices from :meth:`ids_array`) instead of a python
        list — one concatenate replaces per-id list building on the
        admission hot path. Vector backend only."""
        refs = self._refs_arr
        if len(parts) == 1:
            arr = parts[0]
        else:
            arr = _np.concatenate(parts)
        if arr.size:
            cur = refs[arr]
            if cur.min() <= 0:
                raise ServingError("fork of a freed block")
            refs[arr] = cur + 1
        for b in extra:
            if refs[b] <= 0:
                raise ServingError(f"fork of freed block {b}")
            refs[b] += 1
        # block_ids stays empty: for vector bundles, uniq/extra are the
        # source of truth (release and the scalar fallbacks below honor
        # them), and materializing the python list would cost more than the
        # fork itself.
        alloc = BlockAllocation(block_ids=[], n_tokens=n_tokens, bundle=True)
        alloc.uniq = arr
        alloc.extra = extra
        return alloc

    def release(self, alloc: BlockAllocation) -> None:
        """Drop one reference per block-id occurrence; free blocks reaching
        zero."""
        if alloc.released:
            raise ServingError("double free of allocation")
        if self.vector:
            self._release_vector(alloc)
        else:
            ids = alloc.block_ids
            if alloc.bundle and not ids and alloc.uniq is not None:
                # Vector-built bundle drained on a scalar manager:
                # reconstitute the multiset from its decomposition.
                ids = alloc.uniq.tolist() + list(alloc.extra or ())
            for b in ids:
                refs = self._refs.get(b, 0)
                if refs <= 0:
                    raise ServingError(f"double free of block {b}")
                if refs == 1:
                    del self._refs[b]
                    self._free.append(b)
                else:
                    self._refs[b] = refs - 1
        alloc.released = True

    def _release_vector(self, alloc: BlockAllocation) -> None:
        refs = self._refs_arr
        if alloc.bundle:
            if alloc.uniq is None:
                # Bundle forked on the scalar backend: derive its base /
                # extra decomposition once.
                uniq, cnt = _np.unique(
                    _np.asarray(alloc.block_ids, dtype=_np.int64),
                    return_counts=True,
                )
                dup = cnt > 1
                alloc.uniq = uniq
                alloc.extra = _np.repeat(uniq[dup], cnt[dup] - 1).tolist()
            ids = alloc.uniq
            if not ids.size:
                return
            after = refs[ids] - 1
            if after.min() < 0:
                raise ServingError("double free of block")
            refs[ids] = after
            if alloc.extra:
                for b in alloc.extra:
                    r = refs[b] - 1
                    if r < 0:
                        raise ServingError(f"double free of block {b}")
                    refs[b] = r
                freed = ids[refs[ids] == 0]
            else:
                freed = ids[after == 0]
        else:
            ids = _np.asarray(alloc.block_ids, dtype=_np.int64)
            if not ids.size:
                return
            after = refs[ids] - 1
            if after.min() < 0:
                raise ServingError("double free of block")
            refs[ids] = after
            freed = ids[after == 0]
        n = freed.size
        if n:
            top = self._free_top
            self._free_arr[top : top + n] = freed
            self._free_top = top + n

    def split(
        self, alloc: BlockAllocation, head_tokens: int
    ) -> Tuple[BlockAllocation, BlockAllocation]:
        """Split an allocation at ``head_tokens`` into (head, tail).

        Models a radix edge split: block ids map positionally onto the
        allocation's tokens, so the head keeps the blocks covering its
        tokens and the tail keeps the blocks covering the remainder. When
        the cut falls inside a block, that block *straddles* both halves:
        it gains a reference and is owned by head and tail alike until both
        release it — real block-granular sharing, and the reason evicting a
        small tail may free fewer blocks than its token count suggests.
        The input allocation is consumed (marked released without touching
        refcounts — ownership transfers to the two halves). Forked copies
        of the input remain valid: they reference the same block ids.
        """
        if alloc.released:
            raise ServingError("split of a released allocation")
        if not 0 < head_tokens < alloc.n_tokens:
            raise ServingError(
                f"split point {head_tokens} outside (0, {alloc.n_tokens})"
            )
        # All block arithmetic is in *block-local* token positions: the cut
        # sits at start_offset + head_tokens, not at head_tokens — the tail
        # of an earlier mid-block split starts partway into its first block.
        cut = alloc.start_offset + head_tokens
        n_head = self.blocks_needed(cut)
        tail_start = cut // self.block_tokens
        head = BlockAllocation(
            block_ids=alloc.block_ids[:n_head],
            n_tokens=head_tokens,
            start_offset=alloc.start_offset,
        )
        tail = BlockAllocation(
            block_ids=alloc.block_ids[tail_start:],
            n_tokens=alloc.n_tokens - head_tokens,
            start_offset=cut % self.block_tokens,
        )
        if cut % self.block_tokens:
            straddle = alloc.block_ids[tail_start]
            if self.vector:
                if self._refs_arr[straddle] <= 0:
                    raise ServingError(f"split across freed block {straddle}")
                self._refs_arr[straddle] += 1
            else:
                if self._refs.get(straddle, 0) <= 0:
                    raise ServingError(f"split across freed block {straddle}")
                self._refs[straddle] += 1
        alloc.released = True
        return head, tail

    def grow(self, alloc: BlockAllocation, extra_tokens: int) -> None:
        """Extend an allocation in place (decode appends tokens)."""
        if alloc.released:
            raise ServingError("grow of a released allocation")
        if extra_tokens < 0:
            raise ServingError(f"cannot grow by {extra_tokens} tokens")
        new_total = alloc.n_tokens + extra_tokens
        need = (
            self.blocks_needed(alloc.start_offset + new_total)
            - len(alloc.block_ids)
        )
        if need > self.free_blocks:
            raise CapacityError(
                f"grow needs {need} blocks, only {self.free_blocks} free"
            )
        if need > 0:
            alloc.block_ids.extend(self._pop_free(need))
            alloc.ids_arr = None
        alloc.n_tokens = new_total

    # ------------------------------------------------- preempt-swap parking
    def park(self, alloc: BlockAllocation) -> int:
        """Swap an allocation's KV out to host memory: its device blocks are
        released (immediately reusable by other requests) and its token
        count moves to the :attr:`parked_tokens` ledger. Returns the number
        of tokens parked."""
        n = alloc.n_tokens
        self.release(alloc)
        self.parked_tokens += n
        return n

    def unpark(self, n_tokens: int) -> BlockAllocation:
        """Swap parked KV back in: draws ``n_tokens`` off the parked ledger
        and allocates fresh device blocks for them (raises
        :class:`CapacityError` like any allocation when the pool is full —
        the caller decides when re-admission fits)."""
        if n_tokens < 0:
            raise ServingError(f"cannot unpark {n_tokens} tokens")
        if n_tokens > self.parked_tokens:
            raise ServingError(
                f"unpark of {n_tokens} tokens but only {self.parked_tokens} parked"
            )
        alloc = self.allocate(n_tokens)
        self.parked_tokens -= n_tokens
        return alloc

    # ----------------------------------------------------- per-tenant quota
    def set_tenant_quota(self, tenant: str, blocks: int) -> None:
        """Cap ``tenant`` at ``blocks`` device blocks; charging past the cap
        raises :class:`CapacityError` so admission treats a quota-full
        tenant exactly like a full pool (head-of-line blocks)."""
        if blocks <= 0:
            raise ServingError(f"tenant quota must be positive, got {blocks}")
        self._tenant_quota[tenant] = blocks

    def tenant_quota(self, tenant: str) -> "int | None":
        return self._tenant_quota.get(tenant)

    def tenant_used(self, tenant: str) -> int:
        return self._tenant_used.get(tenant, 0)

    def charge_tenant(self, tenant: str, blocks: int) -> None:
        """Charge ``blocks`` against the tenant's quota (no-op accounting
        when the tenant has no quota set)."""
        if blocks < 0:
            raise ServingError(f"cannot charge {blocks} blocks")
        quota = self._tenant_quota.get(tenant)
        used = self._tenant_used.get(tenant, 0)
        if quota is not None and used + blocks > quota:
            raise CapacityError(
                f"tenant {tenant!r} quota exceeded: {used} used + {blocks} "
                f"requested > {quota} blocks"
            )
        self._tenant_used[tenant] = used + blocks

    def uncharge_tenant(self, tenant: str, blocks: int) -> None:
        if blocks < 0:
            raise ServingError(f"cannot uncharge {blocks} blocks")
        used = self._tenant_used.get(tenant, 0) - blocks
        if used < 0:
            raise ServingError(
                f"tenant {tenant!r} uncharged below zero ({used} blocks)"
            )
        if used:
            self._tenant_used[tenant] = used
        else:
            self._tenant_used.pop(tenant, None)

    def check_invariants(self) -> None:
        if self.parked_tokens < 0:
            raise ServingError("negative parked-token ledger")
        for tenant, used in self._tenant_used.items():
            if used < 0:
                raise ServingError(f"tenant {tenant!r} charged negative blocks")
            quota = self._tenant_quota.get(tenant)
            if quota is not None and used > quota:
                raise ServingError(f"tenant {tenant!r} over quota")
        self._check_pool_invariants()

    def _check_pool_invariants(self) -> None:
        if self.vector:
            refs = self._refs_arr
            free = self._free_arr[: self._free_top]
            if refs.min() < 0:
                raise ServingError("negative refcount recorded")
            if free.size and refs[free].max() > 0:
                raise ServingError("block appears both free and referenced")
            if _np.unique(free).size != free.size:
                raise ServingError("duplicate block in free list")
            used = int(_np.count_nonzero(refs))
            if used + free.size != self.n_blocks:
                raise ServingError("blocks leaked or invented")
            return
        refs_blocks = set(self._refs)
        free_blocks = set(self._free)
        if refs_blocks & free_blocks:
            raise ServingError("block appears both free and referenced")
        if len(free_blocks) != len(self._free):
            raise ServingError("duplicate block in free list")
        if len(refs_blocks) + len(free_blocks) != self.n_blocks:
            raise ServingError("blocks leaked or invented")
        if any(r <= 0 for r in self._refs.values()):
            raise ServingError("non-positive refcount recorded")
