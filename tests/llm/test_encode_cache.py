"""Tests for the shared tokenizer-level encode cache."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.client import SimulatedLLMClient
from repro.llm.encode_cache import (
    DEFAULT_MAX_ENTRIES,
    EncodeCache,
    encode_cache_for,
    format_encode_stats,
)
from repro.llm.radix import pack_tokens
from repro.llm.tokenizer import HashTokenizer
from repro.llm.workload import TenantSpec, tenant_prompts


class TestEncodeCache:
    def test_encode_hit_returns_same_result(self):
        tok = HashTokenizer()
        cache = EncodeCache()
        first = cache.encode(tok, "some prompt text")
        second = cache.encode(tok, "some prompt text")
        assert first == second
        assert first[0] == tuple(tok.encode("some prompt text"))
        assert first[1] == pack_tokens(first[0])
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_count_answers_from_encode_entry(self):
        tok = HashTokenizer()
        cache = EncodeCache()
        ids, _ = cache.encode(tok, "count me")
        before = cache.stats()["misses"]
        assert cache.count(tok, "count me") == len(ids)
        assert cache.stats()["misses"] == before  # no new tokenizer call

    def test_lru_bound_and_eviction_telemetry(self):
        tok = HashTokenizer()
        cache = EncodeCache(max_entries=4)
        for i in range(10):
            cache.encode(tok, f"prompt {i}")
        assert len(cache) <= 4
        assert cache.stats()["evictions"] == 6
        # Oldest entries are gone: re-encoding them is a miss again.
        misses = cache.stats()["misses"]
        cache.encode(tok, "prompt 0")
        assert cache.stats()["misses"] == misses + 1

    def test_lru_recency_order(self):
        tok = HashTokenizer()
        cache = EncodeCache(max_entries=2)
        cache.encode(tok, "a")
        cache.encode(tok, "b")
        cache.encode(tok, "a")  # refresh "a"
        cache.encode(tok, "c")  # evicts "b", not "a"
        hits = cache.stats()["hits"]
        cache.encode(tok, "a")
        assert cache.stats()["hits"] == hits + 1

    def test_default_bound(self):
        assert EncodeCache().max_entries == DEFAULT_MAX_ENTRIES

    def test_clear(self):
        tok = HashTokenizer()
        cache = EncodeCache()
        cache.encode(tok, 'x "y"')
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["segments"] == 0

    def test_hit_returns_same_tuple_object(self):
        tok = HashTokenizer()
        cache = EncodeCache()
        first = cache.encode(tok, '{"a": "b"}')
        assert cache.encode(tok, '{"a": "b"}')[0] is first[0]

    def test_encode_drops_stale_count_entry(self):
        """A string counted first and encoded later is one entry, not two."""
        tok = HashTokenizer()
        cache = EncodeCache()
        n = cache.count(tok, "counted then encoded")
        ids, _ = cache.encode(tok, "counted then encoded")
        assert len(ids) == n
        assert len(cache) == 1
        assert cache.stats()["entries"] == 1
        hits = cache.hits
        assert cache.count(tok, "counted then encoded") == n
        assert cache.hits == hits + 1

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            EncodeCache(max_entries=0)


class TestSegments:
    def test_repeated_values_tokenized_once(self):
        tok = HashTokenizer()
        cache = EncodeCache()
        cache.encode(tok, '{"title": "Alien", "year": "1979"}')
        cache.encode(tok, '{"title": "Alien", "year": "1986"}')
        # Chunks the two prompts share ("{", "title", ": ", ...) are
        # stored once.
        chunks = set('{"title": "Alien", "year": "1979"}'.split('"'))
        chunks |= set('{"title": "Alien", "year": "1986"}'.split('"'))
        assert cache.stats()["segments"] == len(chunks)
        # Segments never count as prompt-level entries.
        assert len(cache) == 2

    def test_quote_interned_at_first_position(self):
        """A prompt that starts with a word, not a quote, must give the
        word id 0 — as the whole-string encode does."""
        tok, ref = HashTokenizer(), HashTokenizer()
        ids, _ = EncodeCache().encode(tok, 'word "quoted" tail')
        assert list(ids) == ref.encode('word "quoted" tail')
        assert ids[0] == 0

    def test_report_line(self):
        tok = HashTokenizer()
        cache = EncodeCache()
        cache.encode(tok, '"a" "b"')
        cache.encode(tok, '"a" "b"')
        line = format_encode_stats(cache.stats())
        m = re.search(r"encode cache: (\d+) hits / (\d+) misses", line)
        assert m and m.groups() == ("1", "1")
        # The segments are the chunks "", "a", " " and "b".
        assert "(50.0%), 1 entries, 4 segments, 0 evictions" in line


class _WholeStringCache(EncodeCache):
    """The per-prompt cache before segment composition: every miss
    tokenizes the whole string."""

    def _compose(self, tokenizer, text):
        return tuple(tokenizer.encode(text))


def _replay(cache, tok, stream):
    out = []
    for op, text in stream:
        if op == "count":
            out.append(cache.count(tok, text))
        else:
            out.append(cache.encode(tok, text))
    return out


def _assert_equivalent(stream, max_entries, max_piece_len=6):
    """Composed and whole-string caches on twin fresh tokenizers return
    the same ids, build the same vocabulary and keep the same per-prompt
    hit/miss/eviction/entry telemetry."""
    tok, ref = HashTokenizer(max_piece_len), HashTokenizer(max_piece_len)
    composed = EncodeCache(max_entries)
    whole = _WholeStringCache(max_entries)
    got = _replay(composed, tok, stream)
    want = _replay(whole, ref, stream)
    assert got == want
    assert tok._id_to_piece == ref._id_to_piece
    stats, ref_stats = composed.stats(), whole.stats()
    for key in ("hits", "misses", "evictions", "entries"):
        assert stats[key] == ref_stats[key], key
    assert len(composed) == len(whole)
    return composed


#: Fragments that stress the ``"`` boundary and the piece splitter:
#: quotes and escaped quotes, whitespace runs longer than any
#: ``max_piece_len``, tabs, non-ASCII spaces, long alphanumeric runs and
#: leading-space words.
_FRAGMENTS = st.sampled_from(
    ['"', '\\"', '""', " " * 9, "\t", "\t ", "\u00a0", "\u2003", " \u2003 ",
     "\n", "abcdefghijklmnopqrstuvwxyz0123", "x_1", " word", " averylongword",
     ": ", ", ", "{", "}", "\\"]
)
_TEXT = st.lists(
    st.one_of(
        _FRAGMENTS,
        st.text(alphabet='ab Z9_"\\\t\u00a0\u2003.,:-', max_size=14),
    ),
    max_size=12,
).map("".join)


class TestComposedEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(
        texts=st.lists(_TEXT, min_size=1, max_size=8),
        picks=st.lists(
            st.tuples(st.sampled_from(["encode", "encode", "count"]),
                      st.integers(0, 63)),
            min_size=1, max_size=30,
        ),
        max_piece_len=st.integers(1, 8),
        max_entries=st.sampled_from([1, 2, 4, DEFAULT_MAX_ENTRIES]),
    )
    def test_matches_whole_string_encode(
        self, texts, picks, max_piece_len, max_entries
    ):
        """Tiny bounds evict prompts and segments mid-stream."""
        stream = [(op, texts[i % len(texts)]) for op, i in picks]
        _assert_equivalent(stream, max_entries, max_piece_len)

    @pytest.mark.parametrize("max_entries", [8, DEFAULT_MAX_ENTRIES])
    def test_movies_t1_prompts(self, max_entries):
        """Real movies-T1 prompts in Original then GGR field order — the
        three-policy sweep's stream (Original twice: No Cache and Cache
        (Original) replay the same prompts), with a tiny and the default
        bound."""
        original, _ = tenant_prompts(TenantSpec("o", "movies-T1"), scale=0.01)
        ggr, _ = tenant_prompts(
            TenantSpec("g", "movies-T1", policy="ggr"), scale=0.01
        )
        assert original != ggr
        stream = [
            (op, p)
            for prompts in (original, original, ggr)
            for p in prompts
            for op in ("encode", "count")
        ]
        cache = _assert_equivalent(stream, max_entries)
        assert 0 < cache.stats()["segments"] <= max_entries


class TestSharedAttachment:
    def test_attached_once_per_tokenizer(self):
        tok = HashTokenizer()
        assert encode_cache_for(tok) is encode_cache_for(tok)
        assert encode_cache_for(HashTokenizer()) is not encode_cache_for(tok)

    def test_clients_share_cache_via_tokenizer(self):
        tok = HashTokenizer()
        a = SimulatedLLMClient(tokenizer=tok)
        b = SimulatedLLMClient(tokenizer=tok)
        a.generate(["shared prompt one"], output_lens=[1])
        misses = b.encode_cache_stats()["misses"]
        hits = b.encode_cache_stats()["hits"]
        b.generate(["shared prompt one"], output_lens=[1])
        assert b.encode_cache_stats()["misses"] == misses
        assert b.encode_cache_stats()["hits"] > hits

    def test_cache_survives_reset_cache(self):
        client = SimulatedLLMClient()
        client.generate(["persistent prompt"], output_lens=[1])
        stats = client.encode_cache_stats()
        client.reset_cache()
        client.generate(["persistent prompt"], output_lens=[1])
        after = client.encode_cache_stats()
        assert after["misses"] == stats["misses"]
        assert after["hits"] > stats["hits"]

    def test_shared_tokenizer_metrics_match_fresh(self):
        """A warm shared vocabulary changes token *ids*, never metrics:
        the hash split is vocabulary-independent, so counts and prefix
        structure are identical to per-client fresh tokenizers."""
        prompts = [
            "header words alpha beta row %d tail" % (i % 4) for i in range(12)
        ]
        fresh = SimulatedLLMClient().generate(prompts, output_lens=[2] * 12)
        shared_tok = HashTokenizer()
        # Warm the vocabulary with unrelated text first.
        encode_cache_for(shared_tok).encode(shared_tok, "unrelated warmup text")
        warm = SimulatedLLMClient(tokenizer=shared_tok).generate(
            prompts, output_lens=[2] * 12
        )
        fr, wr = fresh.engine_result, warm.engine_result
        assert wr.prompt_tokens == fr.prompt_tokens
        assert wr.cached_tokens == fr.cached_tokens
        assert wr.decode_tokens == fr.decode_tokens
        assert wr.total_seconds == pytest.approx(fr.total_seconds, rel=1e-9)
