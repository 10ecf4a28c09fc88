"""Deterministic tokenizer for the serving simulator.

Real tokenizers (BPE) are unavailable offline; this one preserves the two
properties the experiments depend on:

* **Prefix stability** — tokenization is a greedy left-to-right split, so
  two strings sharing a prefix that ends on a piece boundary share the
  corresponding token-id prefix. Prompt construction aligns cell boundaries
  with piece boundaries, so prefix reuse measured over these tokens matches
  what a real radix cache would see.
* **Realistic token counts** — words longer than ``max_piece_len`` are
  chunked, giving roughly one token per ~4 characters of English-like text,
  the same scale the paper's Table 1 reports.

Ids are assigned incrementally on first sight (a learned vocabulary works
the same way), which makes ``decode(encode(s)) == s`` exact.

**Every ``"`` is a piece boundary.** ``_PIECE_RE`` only ever matches
``"`` as a one-character piece of its own, and no other piece can start
or end across it, so for any string ``encode(a + '"' + b)`` is
``encode(a) + encode('"') + encode(b)`` in pieces. The encode cache
(:mod:`repro.llm.encode_cache`) relies on this to compose prompt ids from
memoized ``"``-delimited segments; changing the piece pattern must keep it.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Sequence

# BPE-style pieces: a single leading space fuses with the following word
# (like the 'Ġword' tokens of GPT/Llama vocabularies), so ordinary prose
# costs ~1 token per word (~4 chars/token) instead of 2.
_PIECE_RE = re.compile(r" ?[A-Za-z0-9_]+|\s+|[^A-Za-z0-9_\s]")


class HashTokenizer:
    """Greedy word/punctuation tokenizer with an incremental vocabulary."""

    def __init__(self, max_piece_len: int = 6):
        if max_piece_len < 1:
            raise ValueError("max_piece_len must be >= 1")
        self.max_piece_len = max_piece_len
        self._piece_to_id: Dict[str, int] = {}
        self._id_to_piece: List[str] = []

    @property
    def vocab_size(self) -> int:
        return len(self._id_to_piece)

    def _pieces(self, text: str) -> Iterable[str]:
        for match in _PIECE_RE.finditer(text):
            piece = match.group(0)
            # The leading space rides along for free (real BPE vocabularies
            # fold it into the word token).
            budget = self.max_piece_len + (1 if piece.startswith(" ") else 0)
            if len(piece) <= budget:
                yield piece
            else:
                yield piece[:budget]
                rest = piece[budget:]
                for i in range(0, len(rest), self.max_piece_len):
                    yield rest[i : i + self.max_piece_len]

    def _intern(self, piece: str) -> int:
        pid = self._piece_to_id.get(piece)
        if pid is None:
            pid = len(self._id_to_piece)
            self._piece_to_id[piece] = pid
            self._id_to_piece.append(piece)
        return pid

    def encode(self, text: str) -> List[int]:
        """Tokenize ``text`` into a list of integer ids."""
        return [self._intern(p) for p in self._pieces(text)]

    def decode(self, tokens: Sequence[int]) -> str:
        """Exact inverse of :meth:`encode` for ids produced by this instance.

        Rejects out-of-range ids explicitly — including negative ones, which
        Python's index-from-the-end semantics would otherwise silently map
        to the last vocabulary pieces.
        """
        pieces = self._id_to_piece
        n = len(pieces)
        out = []
        for t in tokens:
            if not 0 <= t < n:
                raise ValueError(
                    f"token id {t!r} not produced by this tokenizer"
                )
            out.append(pieces[t])
        return "".join(out)

    def count(self, text: str) -> int:
        """Token count without interning (cheap for statistics)."""
        return sum(1 for _ in self._pieces(text))
