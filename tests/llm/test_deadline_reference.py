"""Reference-model test for the heap-backed :class:`DeadlinePolicy`.

``ScanDeadlinePolicy`` below is the O(pool) scan the heaps replaced: one
tuple key per waiting request, rebuilt on every select. Hypothesis drives
both policies through the same interleaved submit / select / pop /
next_priority_shift / drain / len sequences — deadline-less and explicit
requests mixed, deadlines on a quarter-second grid so ties and the
``deadline == now`` boundary come up constantly, preemption resubmits
between a select and its pop, and a clock that never moves backwards —
and asserts identical choices, shift times, drain orders and lengths.
With a tracer bound, the shed instants must match too.
"""

from heapq import heappop, heappush
from typing import List, Optional, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ServingError
from repro.llm.request import Request
from repro.llm.scheduler import DeadlinePolicy, SchedulerPolicy


class ScanDeadlinePolicy(SchedulerPolicy):
    """The scan implementation, kept as the selection-order oracle.

    One deliberate difference from the original: :meth:`drain` also
    forgets the drained requests' shed bookkeeping. The original left them
    marked as waiting, so a later select could report a shed for a request
    the engine had already dropped."""

    name = "deadline"

    def __init__(self, deadline_s: float = 10.0):
        self.deadline_s = deadline_s
        self._pool: List[Tuple[int, Request]] = []  # (submit seq, request)
        self._seq = 0
        self._shed_ids: set = set()
        self._shed_heap: List[Tuple[float, int, Request]] = []
        self._pooled: set = set()

    def deadline_of(self, request: Request) -> float:
        rel = getattr(request, "deadline_s", None)
        return request.arrival_s + (rel if rel is not None else self.deadline_s)

    def _key(self, seq: int, req: Request, now: float) -> Tuple[int, float, int]:
        deadline = self.deadline_of(req)
        if getattr(req, "deadline_s", None) is None:
            return (0, deadline, seq)
        late = 1 if deadline < now else 0
        return (late, seq, seq) if late else (late, deadline, seq)

    def submit(self, request: Request) -> None:
        self._pool.append((self._seq, request))
        if self._tracer is not None:
            self._pooled.add(request.request_id)
            if getattr(request, "deadline_s", None) is not None:
                heappush(
                    self._shed_heap,
                    (self.deadline_of(request), self._seq, request),
                )
        self._seq += 1

    def _drain_sheds(self, now: float) -> None:
        heap = self._shed_heap
        while heap and heap[0][0] < now:
            deadline, _, req = heappop(heap)
            rid = req.request_id
            if rid in self._pooled and rid not in self._shed_ids:
                self._shed_ids.add(rid)
                self._tracer.instant(
                    "shed",
                    request_id=rid,
                    tenant=req.tenant,
                    deadline_s=deadline,
                )

    def select(self, cache=None, now: float = 0.0) -> Optional[Request]:
        if not self._pool:
            return None
        heap = self._shed_heap
        if heap and heap[0][0] < now and self._tracer is not None:
            self._drain_sheds(now)
        best = None
        best_key: Optional[Tuple[int, float, int]] = None
        for seq, req in self._pool:
            key = self._key(seq, req, now)
            if best is None or key < best_key:
                best, best_key = req, key
        return best

    def pop(self, request: Request) -> None:
        for i, (_, req) in enumerate(self._pool):
            if req is request:
                del self._pool[i]
                self._pooled.discard(request.request_id)
                return
        raise ServingError("pop of a request not in the pool")

    def next_priority_shift(self, now: float) -> Optional[float]:
        best = None
        for _, req in self._pool:
            if getattr(req, "deadline_s", None) is None:
                continue
            deadline = self.deadline_of(req)
            if deadline >= now and (best is None or deadline < best):
                best = deadline
        return best

    def drain(self) -> List[Request]:
        out = [r for _, r in sorted(self._pool, key=lambda e: e[0])]
        self._pool.clear()
        self._pooled.clear()
        self._shed_heap.clear()
        return out

    def __len__(self) -> int:
        return len(self._pool)


class RecordingTracer:
    """Stand-in for :class:`~repro.llm.tracing.TraceRecorder`: records
    ``(clock, name, args)`` per instant; the test sets ``clock``."""

    def __init__(self):
        self.clock = 0.0
        self.instants = []

    def instant(self, name, **args):
        self.instants.append((self.clock, name, tuple(sorted(args.items()))))


#: Quarter-second grid: exact in binary floating point, so absolute
#: deadlines tie with each other and with ``now`` as often as possible.
STEP = 0.25
DEADLINES = (None, STEP, 2 * STEP, 4 * STEP)

#: Op codes, weighted by repetition: ``submit`` a new arrival ``arg``
#: grid steps before the clock; ``advance`` the clock ``arg`` steps;
#: ``select``; ``admit`` (the engine's admission: select, preempt running
#: request ``arg`` back into the queue when there is one, then pop the
#: selected request); ``shift`` (next_priority_shift); ``drain``.
OP_CODES = (
    ("submit",) * 4 + ("advance",) * 2 + ("select",) * 2 + ("admit",) * 3
    + ("shift",) * 2 + ("drain",)
)
OPS = st.tuples(
    st.sampled_from(OP_CODES), st.integers(0, 4), st.sampled_from(DEADLINES)
)


def run_ops(ops, traced):
    fast, ref = DeadlinePolicy(deadline_s=1.0), ScanDeadlinePolicy(deadline_s=1.0)
    t_fast, t_ref = RecordingTracer(), RecordingTracer()
    if traced:
        fast.bind_tracer(t_fast)
        ref.bind_tracer(t_ref)
    now = 0.0
    next_id = 0
    running: List[Request] = []

    def select():
        t_fast.clock = t_ref.clock = now
        n_fast, n_ref = len(t_fast.instants), len(t_ref.instants)
        got, want = fast.select(now=now), ref.select(now=now)
        assert got is want, (now, got, want)
        # Sheds reported by one select share its instant; within it the
        # heaps emit them in (deadline, current submit seq) order, while
        # the scan used a request's first pre-preemption seq. Compare
        # each select's sheds as a set.
        assert sorted(t_fast.instants[n_fast:]) == sorted(t_ref.instants[n_ref:])
        return got

    for op, arg, deadline_s in ops:
        if op == "submit":
            req = Request(
                request_id=next_id,
                prompt_tokens=(next_id,),
                output_tokens=1,
                arrival_s=max(0.0, now - arg * STEP),
                tenant=f"t{next_id % 2}",
                deadline_s=deadline_s,
            )
            next_id += 1
            fast.submit(req)
            ref.submit(req)
        elif op == "advance":
            now += arg * STEP
        elif op == "select":
            select()
        elif op == "admit":
            chosen = select()
            if chosen is None:
                continue
            if arg < len(running):
                victim = running.pop(arg)
                fast.submit(victim)
                ref.submit(victim)
            fast.pop(chosen)
            ref.pop(chosen)
            running.append(chosen)
        elif op == "shift":
            assert fast.next_priority_shift(now) == ref.next_priority_shift(now)
        elif op == "drain":
            assert fast.drain() == ref.drain()
        assert len(fast) == len(ref)
    assert fast.drain() == ref.drain()
    assert len(fast) == 0


@pytest.mark.parametrize("traced", [False, True])
@settings(max_examples=300, deadline=None)
@given(ops=st.lists(OPS, max_size=60))
# An explicit deadline equal to ``now`` is not late yet.
@example(
    ops=[("submit", 0, 2 * STEP), ("submit", 0, 4 * STEP),
         ("advance", 2, None), ("select", 0, None)]
)
# A request admitted before its deadline passes is never reported shed.
@example(
    ops=[("submit", 0, STEP), ("admit", 4, None), ("advance", 2, None),
         ("submit", 0, None), ("select", 0, None)]
)
# Two equal deadlines expire in one select after one of the requests was
# preempted and resubmitted.
@example(
    ops=[("submit", 0, 4 * STEP), ("submit", 0, 4 * STEP),
         ("admit", 4, None), ("submit", 0, 2 * STEP), ("admit", 0, None),
         ("advance", 4, None), ("advance", 4, None), ("select", 0, None)]
)
def test_heaps_match_scan_reference(traced, ops):
    run_ops(ops, traced)


def test_resubmit_between_select_and_pop():
    """A preemption resubmit can make the victim the head between select
    and pop; pop must still accept the earlier choice."""
    p = DeadlinePolicy(deadline_s=1.0)
    late = Request(0, (0,), 1, arrival_s=0.0, deadline_s=0.25)
    p.submit(late)
    assert p.select(now=2.0) is late  # alone, so head despite being late
    victim = Request(1, (1,), 1, arrival_s=0.0)  # deadline-less: outranks it
    p.submit(victim)
    assert p.select(now=2.0) is victim
    p.pop(late)
    assert len(p) == 1 and p.select(now=2.0) is victim
    with pytest.raises(ServingError, match="not in the pool"):
        p.pop(late)


def test_shift_keeps_an_unreported_expiry_for_the_next_select():
    """A deadline can pass between selects; next_priority_shift must not
    discard it before the next select has reported the shed."""
    p = DeadlinePolicy(deadline_s=1.0)
    tracer = RecordingTracer()
    p.bind_tracer(tracer)
    r = Request(0, (0,), 1, arrival_s=0.0, deadline_s=0.5)
    p.submit(r)
    assert p.select(now=0.0) is r
    assert p.next_priority_shift(1.0) is None
    tracer.clock = 1.0
    assert p.select(now=1.0) is r
    assert [(t, name) for t, name, _ in tracer.instants] == [(1.0, "shed")]
