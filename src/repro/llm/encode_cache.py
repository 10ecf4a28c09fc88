"""Shared, bounded prompt-encode cache, attached per tokenizer.

Benchmark replays send the same prompt strings over and over — across
invocations of a multi-stage query, across scheduling policies, across
repeated jobs — and re-tokenizing (and re-packing) them dominated replay
setup time. Each :class:`~repro.llm.tokenizer.HashTokenizer` carries at
most one :class:`EncodeCache`; every consumer holding the same tokenizer
(clients, the batch-inference server's client, the bench runner's
per-policy clients) shares it, so a prompt is encoded once per *tokenizer*
rather than once per consumer. The cache survives
``SimulatedLLMClient.reset_cache`` — that replaces the engine, not the
tokenizer.

The cache has two levels:

* **Prompts.** An LRU map of whole prompt string -> ``(ids, packed)``.
  A repeated prompt gets back the *same* tuple object, which lets the
  radix cache reuse its packed probe across the match/insert/pin calls of
  identical prompts. Every lookup counts as exactly one hit or one miss.
* **Segments.** A prompt miss does not tokenize the whole string. It
  splits the text on ``"`` — always a piece boundary of the tokenizer
  (see :mod:`repro.llm.tokenizer`) — and concatenates the memoized ids of
  each chunk, tokenizing only chunks it has not seen. Rows that repeat
  field values, the source of the paper's prefix savings, therefore
  tokenize each distinct value once. The ``"`` piece is interned at its
  first position, so a fresh vocabulary assigns exactly the ids that
  whole-string ``tokenizer.encode`` would.

Caching is exact: the tokenizer's incremental vocabulary gives a fixed
string the same ids on every call. Both levels are bounded; prompt
evictions are counted for telemetry.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.llm.radix import pack_tokens

#: Default entry bound per map — generous for any realistic benchmark
#: replay while keeping worst-case memory in check.
DEFAULT_MAX_ENTRIES = 1 << 16

#: The segment separator: the tokenizer only ever emits ``"`` as a
#: one-character piece, so every ``"`` is a piece boundary.
_SEPARATOR = '"'


class EncodeCache:
    """LRU maps of prompt string -> encode result, with telemetry.

    Two prompt-level maps are kept: ``encode`` entries hold ``(ids tuple,
    packed bytes)``; ``count`` entries hold bare token counts for strings
    that were only ever counted (counting does not intern into the
    tokenizer's vocabulary, so it is cheaper than a full encode). A count
    request for an already-encoded string is answered from the encode
    entry without touching the count map. ``len()`` and ``entries`` count
    these prompt-level entries only.

    Below them, a segment map (also ``max_entries`` entries, oldest
    evicted first) holds the ids of the ``"``-delimited chunks that encode
    misses are composed from. It is not refreshed on reuse: keeping
    recency costs more than re-tokenizing an evicted chunk.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self._encode: "OrderedDict[str, Tuple[Tuple[int, ...], bytes]]" = (
            OrderedDict()
        )
        self._count: "OrderedDict[str, int]" = OrderedDict()
        self._segments: "OrderedDict[str, List[int]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._encode) + len(self._count)

    def encode(self, tokenizer, text: str) -> Tuple[Tuple[int, ...], bytes]:
        """(token ids, packed bytes) for ``text`` via ``tokenizer``,
        cached. The packed form feeds the radix cache's allocation-free
        long-edge compares; computing it here means each distinct prompt
        is packed once, no matter how many times it is replayed."""
        memo = self._encode
        entry = memo.get(text)
        if entry is not None:
            self.hits += 1
            memo.move_to_end(text)
            return entry
        self.misses += 1
        ids = self._compose(tokenizer, text)
        entry = (ids, pack_tokens(ids))
        # An encode entry answers counts from now on.
        self._count.pop(text, None)
        if len(memo) >= self.max_entries:
            memo.popitem(last=False)
            self.evictions += 1
        memo[text] = entry
        return entry

    def _compose(self, tokenizer, text: str) -> Tuple[int, ...]:
        """``tuple(tokenizer.encode(text))``, built left to right from
        memoized ``"``-delimited segments. Left-to-right order, with the
        ``"`` piece interned at its first position, makes a fresh
        vocabulary assign the same ids as the whole-string encode."""
        segments = self._segments
        ids: List[int] = []
        quote: List[int] = []
        for i, chunk in enumerate(text.split(_SEPARATOR)):
            if i:
                quote = quote or tokenizer.encode(_SEPARATOR)
                ids += quote
            seg = segments.get(chunk)
            if seg is None:
                seg = tokenizer.encode(chunk)
                if len(segments) >= self.max_entries:
                    segments.popitem(last=False)
                segments[chunk] = seg
            ids += seg
        return tuple(ids)

    def count(self, tokenizer, text: str) -> int:
        """Token count of ``text`` via ``tokenizer``, cached."""
        encoded = self._encode.get(text)
        if encoded is not None:
            self.hits += 1
            self._encode.move_to_end(text)
            return len(encoded[0])
        memo = self._count
        n = memo.get(text)
        if n is not None:
            self.hits += 1
            memo.move_to_end(text)
            return n
        self.misses += 1
        n = tokenizer.count(text)
        if len(memo) >= self.max_entries:
            memo.popitem(last=False)
            self.evictions += 1
        memo[text] = n
        return n

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "segments": len(self._segments),
        }

    def clear(self) -> None:
        self._encode.clear()
        self._count.clear()
        self._segments.clear()


def format_encode_stats(stats: Dict[str, int]) -> str:
    """The one-line report of :meth:`EncodeCache.stats`, shared by every
    command and report that prints encode-cache telemetry."""
    lookups = stats["hits"] + stats["misses"]
    rate = stats["hits"] / lookups if lookups else 0.0
    return (
        f"encode cache: {stats['hits']} hits / {stats['misses']} misses "
        f"({100 * rate:.1f}%), {stats['entries']} entries, "
        f"{stats['segments']} segments, {stats['evictions']} evictions"
    )


def encode_cache_for(
    tokenizer, max_entries: Optional[int] = None
) -> EncodeCache:
    """The tokenizer's attached :class:`EncodeCache`, created on first use.

    All consumers of one tokenizer share one cache; ``max_entries`` only
    applies when this call creates the cache.
    """
    cache = getattr(tokenizer, "_encode_cache", None)
    if cache is None:
        cache = EncodeCache(max_entries or DEFAULT_MAX_ENTRIES)
        tokenizer._encode_cache = cache
    return cache
