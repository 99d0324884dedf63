"""Record filtering, meta-token normalization, tokenization, stream I/O."""

import dataclasses
import io
import itertools
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from crossmoji.corpus import (
    STREAM_FORMAT,
    FilterConfig,
    IngestCounts,
    PostRecord,
    RecordError,
    TypeStreams,
    filter_reason,
    ingest_corpus,
    ingest_range,
    line_ranges,
    load_streams,
    normalize_text,
    parse_record,
    read_streams,
    save_streams,
    tokenize,
    write_streams,
)
from crossmoji.inventory import load_default_inventory

from util import write_mixed_feed

INV = load_default_inventory()
US = FilterConfig(lang="en", country="US")


def rec(text, lang="en", country="US", pre_tokenized=False, post_id="p1"):
    return PostRecord(post_id=post_id, text=text, country=country, lang=lang,
                      pre_tokenized=pre_tokenized)


# --- filtering -----------------------------------------------------------------

def test_direct_retweet_removed():
    assert filter_reason(rec("RT @bob: hello"), US) == "retweet"


def test_double_slash_retweet_marker_removed():
    assert filter_reason(rec("@alice// nice one"), US) == "retweet"


def test_clean_record_passes_unchanged():
    assert filter_reason(rec("hello \U0001F604"), US) is None


def test_language_mismatch_dropped():
    assert filter_reason(rec("hello", lang="ja"), US) == "lang"


def test_country_mismatch_dropped():
    assert filter_reason(rec("hello", country="JP"), US) == "country"


def test_lang_primary_subtag_matches():
    assert filter_reason(rec("hello", lang="en-GB"), US) is None


def test_mention_without_marker_is_kept():
    assert filter_reason(rec("@bob hello"), US) is None  # not a retweet prefix


def test_filter_order_independence():
    records = [
        rec("RT @a: x"), rec("hi", lang="ja"), rec("hi", country="CA"),
        rec("plain"), rec("@b// y"), rec("RT @c: z", lang="fr"),
    ]
    predicates = {
        "lang": lambda r: filter_reason(r, US) != "lang" or False,
    }

    def survives(r, order):
        # apply the three predicates in the given order; short-circuit drop
        checks = {
            "lang": lambda: r.lang.lower().split("-")[0] == "en",
            "country": lambda: r.country.upper() == "US",
            "retweet": lambda: filter_reason(
                PostRecord(r.post_id, r.text, "US", "en"), US) != "retweet",
        }
        return all(checks[name]() for name in order)

    baseline = [survives(r, ("lang", "country", "retweet")) for r in records]
    for order in itertools.permutations(("lang", "country", "retweet")):
        assert [survives(r, order) for r in records] == baseline
    # and the combined filter agrees
    assert [filter_reason(r, US) is None for r in records] == baseline


def test_parse_record_roundtrip_and_errors():
    line = json.dumps({"post_id": "42", "text": "hi", "country": "US", "lang": "en"})
    r = parse_record(line)
    assert r.post_id == "42" and not r.pre_tokenized
    assert parse_record(line[:-1] + ', "pre_tokenized": true}').pre_tokenized
    for bad in ["not json", "[1,2]", '{"post_id": "1"}',
                '{"post_id":"1","text":"  ","country":"US","lang":"en"}',
                '{"post_id":"1","text":"x","country":"","lang":"en"}',
                '{"post_id":"1","text":"x","country":"US","lang":"en","pre_tokenized":"false"}',
                '{"post_id":"1","text":"x","country":"US","lang":"en","pre_tokenized":1}']:
        with pytest.raises(RecordError):
            parse_record(bad)


# --- normalize_text -----------------------------------------------------------

@pytest.mark.parametrize("raw,expected", [
    ("see http://a.b/c now", "see <url> now"),
    ("<url>", "<url>"),
    ("email me@x.org :)", "email <email> <emoticon>"),
    ("ask @sam about it", "ask <user> about it"),
    ("up 25% today", "up <percent> today"),
    ("paid $19.99 cash", "paid <money> cash"),
    ("call 555-123-4567 ok", "call <phone> ok"),
    ("at 12:30 sharp", "at <time> sharp"),
    ("on 2014-12-05 we met", "on <date> we met"),
    ("on 12/05/2014 we met", "on <date> we met"),
    ("due Jan 5, 2014 sharp", "due <date> sharp"),
    ("great day ;-) right", "great day <emoticon> right"),
    ("www.example.com rocks", "<url> rocks"),
    ("100% <3 it", "<percent> <emoticon> it"),
])
def test_normalize_examples(raw, expected):
    assert normalize_text(raw) == expected


def test_normalize_is_total_on_odd_input():
    for text in ["", " ", "\x00\x01", "::::", "@", "%", "$"]:
        normalize_text(text)  # must not raise


NORMALIZE_FIXTURES = [
    "see http://a.b/c now", "email me@x.org :)", "RT @bob: 100% sure",
    "lunch at 12:30 cost $9.50 :D", "ping 555-123-4567 on 2014-01-02",
    "mixed \U0001F604 emoji and www.site.com", "<url> <email> <user>",
    "nothing special here", "8:15am meeting", "50,5% of 3/4", "happy ^_^ now",
]


@pytest.mark.parametrize("text", NORMALIZE_FIXTURES)
def test_normalize_idempotent_on_fixtures(text):
    once = normalize_text(text)
    assert normalize_text(once) == once


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(
    ["hello", "a", "@bob", "http://x.io/y", "me@x.org", "25%", "$5", "12:30",
     "2014-12-05", ":)", "<3", "<url>", "\U0001F604", "7", ".", ":", "/"]),
    max_size=8).map(" ".join))
def test_normalize_idempotent_property(text):
    once = normalize_text(text)
    assert normalize_text(once) == once


# --- tokenize -------------------------------------------------------------------

def test_glued_emoji_split_out():
    assert tokenize(rec("good\U0001F604morning"), INV).tokens == (
        "good", "\U0001F604", "morning")


def test_pre_tokenized_passthrough():
    r = rec("今日 は \U0001F604", lang="ja", country="JP", pre_tokenized=True)
    assert tokenize(r, INV).tokens == ("今日", "は", "\U0001F604")


def test_pre_tokenized_not_lowercased():
    r = rec("Tokyo NOW", pre_tokenized=True)
    assert tokenize(r, INV).tokens == ("Tokyo", "NOW")


def test_variation_selector_stripped_in_tokens():
    assert tokenize(rec("I❤️NY"), INV).tokens == ("i", "❤", "ny")


def test_orphan_variation_selector_dropped_from_verbal_tokens():
    assert tokenize(rec("word️ here"), INV).tokens == ("word", "here")
    assert tokenize(rec("️ alone"), INV).tokens == ("alone",)


def test_meta_tokens_preserved_verbatim():
    from crossmoji.corpus import META_TOKENS

    for token in sorted(META_TOKENS):
        assert tokenize(rec(f"see {token} now"), INV).tokens == ("see", token, "now")


def test_lowercase_applies_to_verbal_tokens():
    assert tokenize(rec("Hello WORLD"), INV).tokens == ("hello", "world")


def test_edge_punctuation_split():
    assert tokenize(rec("wow!"), INV).tokens == ("wow", "!")
    assert tokenize(rec('"quoted"'), INV).tokens == ('"', "quoted", '"')
    assert tokenize(rec("don't stop"), INV).tokens == ("don't", "stop")


def test_no_empty_tokens_ever():
    for text in ["a  b", " x ", "\U0001F604", "...", "a\U0001F604\U0001F604b",
                 "<url>x", "😄😄😄"]:
        toks = tokenize(rec(text), INV).tokens
        assert all(t for t in toks), (text, toks)


def test_tokenize_emoji_multiset_matches_raw_scan():
    from util import scan_count_oracle

    texts = ["good\U0001F604morning \U0001F35C", "I❤️NY",
             "\U0001F1FA\U0001F1F8 vs \U0001F1EF\U0001F1F5 #⃣",
             "\U0001F602\U0001F602 double and glued\U0001F698car"]
    for text in texts:
        toks = tokenize(rec(text), INV).tokens
        got = Counter(t for t in toks if t in INV.entries)
        assert got == scan_count_oracle(text, INV)


# --- ingest + stream io -----------------------------------------------------------

def jline(post_id, text, country="US", lang="en", **kw):
    return json.dumps({"post_id": post_id, "text": text, "country": country,
                       "lang": lang, **kw}, ensure_ascii=False)


def test_ingest_counts_are_monotone():
    lines = [
        jline("1", "hello \U0001F604 world"),
        jline("2", "RT @x: copy"),
        jline("3", "bonjour", lang="fr"),
        jline("4", "howdy", country="CA"),
        "not json at all",
        jline("5", "see http://a.b ok"),
    ]
    streams, counts = ingest_corpus(lines, US, INV)
    d = counts.as_dict()
    assert d["posts_read"] == 6
    assert d["parse_errors"] == 1
    assert d["posts_after_filter"] == 2
    assert d["streams_written"] == 2
    assert d["posts_read"] >= d["posts_after_filter"] >= d["streams_written"]
    assert {s.post_id for s in streams} == {"1", "5"}


def test_ingest_normalizes_then_tokenizes():
    lines = [jline("1", "go http://a.b/c now \U0001F604")]
    streams, _ = ingest_corpus(lines, US, INV)
    assert streams[0].tokens == ("go", "<url>", "now", "\U0001F604")


def test_stream_io_roundtrip():
    lines = [jline("1", "hello \U0001F604"), jline("2", "bye \U0001F62D now")]
    streams, _ = ingest_corpus(lines, US, INV)
    buf = io.StringIO()
    write_streams(streams, buf)
    buf.seek(0)
    assert list(read_streams(buf)) == streams


def test_post_id_with_tab_or_line_break_is_kept_and_counted():
    # stream files hold no post ids, so any post id is fine
    lines = [jline("1", "hello \U0001F604"), jline("a\tb", "tab"), jline("c\nd", "newline"),
             jline("e\rf", "return"), jline("g\r\nh", "both"), jline("2", "bye \U0001F62D")]
    streams, counts = ingest_corpus(lines, US, INV)
    assert counts.parse_errors == 0
    assert counts.read == counts.kept == counts.streams == 6
    assert [s.post_id for s in streams] == ["1", "a\tb", "c\nd", "e\rf", "g\r\nh", "2"]
    assert [s.tokens for s in streams][1:5] == [("tab",), ("newline",), ("return",), ("both",)]


def test_corpus_level_pre_tokenized_flag():
    lines = [jline("1", "Tokyo 行き ROUTE", country="JP", lang="ja")]
    jp = FilterConfig(lang="ja", country="JP")
    streams, _ = ingest_corpus(lines, jp, INV, pre_tokenized=True)
    assert streams[0].tokens == ("Tokyo", "行き", "ROUTE")  # no lowercasing


def test_ingest_handle_reads_its_input_file(tmp_path):
    from crossmoji.corpus import CorpusHandle, ingest_handle

    (tmp_path / "us.jsonl").write_text(
        jline("1", "Hello \U0001F604") + "\n" + jline("2", "RT @x: copy") + "\n"
        + jline("3", "again", pre_tokenized="no") + "\n" + jline("4", "Tokyo", lang="ja") + "\n")
    handle = CorpusHandle(corpus_id="US", culture="West", input_path=tmp_path / "us.jsonl",
                          lang="en", country="US", lexicon_path=tmp_path / "demo.dic")
    streams, counts = ingest_handle(handle, INV)
    assert [s.tokens for s in streams] == [("hello", "\U0001F604")]
    assert counts.as_dict() == {
        "posts_read": 4, "parse_errors": 1, "dropped_lang": 1, "dropped_country": 0,
        "dropped_retweet": 1, "posts_after_filter": 1, "empty_streams": 0,
        "streams_written": 1}
    streams, _ = ingest_handle(dataclasses.replace(handle, pre_tokenized=True), INV)
    assert [s.tokens for s in streams] == [("Hello", "\U0001F604")]  # no lowercasing


# --- byte-range shards and stream files ---------------------------------------------

JP = FilterConfig(lang="en", country="JP")


def same_streams(a: TypeStreams, b: TypeStreams) -> bool:
    return (a.types == b.types and a.ids.dtype == b.ids.dtype == np.int32
            and np.array_equal(a.ids, b.ids) and np.array_equal(a.lengths, b.lengths))


def test_line_ranges_cut_only_after_a_line_feed_and_cover_the_file(tmp_path):
    path = write_mixed_feed(tmp_path / "mixed.jsonl")
    data = path.read_bytes()
    for parts in (1, 2, 3, 7, 50, len(data)):
        ranges = line_ranges(path, parts)
        assert 1 <= len(ranges) <= parts
        assert [s for s, _ in ranges] == [0] + [e for _, e in ranges[:-1]]
        assert ranges[-1][1] == len(data)
        assert all(data[s - 1:s] == b"\n" for s, _ in ranges[1:])
    # with a cut after every line feed, some cut lands next to a multi-byte character
    starts = [s for s, _ in line_ranges(path, len(data))]
    assert len(starts) == 1 + data.count(b"\n")  # no line feed ends the file
    assert any(data[s] >= 0x80 for s in starts) and any(data[s - 2] >= 0x80 for s in starts[1:])
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    assert line_ranges(empty, 4) == [(0, 0)]


def test_sharded_ingest_equals_one_text_mode_pass(tmp_path):
    # each line is parsed once for both corpora, whatever the cuts, and the
    # joined parts equal what one pass over the file in text mode gives
    path = write_mixed_feed(tmp_path / "mixed.jsonl")
    corpora = [(US, False), (JP, False)]
    with open(path, encoding="utf-8") as f:
        lines = list(f)
    assert any(line.endswith("\u2713\n") for line in lines)
    expected = [ingest_corpus(lines, config, INV, pre_tokenized=pre) for config, pre in corpora]
    assert [c.as_dict()["parse_errors"] for _, c in expected] == [6, 6]
    for parts in (1, 2, 5, path.stat().st_size):
        shards = [ingest_range(path, s, e, corpora, INV) for s, e in line_ranges(path, parts)]
        assert sum(n for _, n in shards) == len(lines)
        for k, (streams, counts) in enumerate(expected):
            joined = TypeStreams.join(results[k][0] for results, _ in shards)
            assert same_streams(joined, TypeStreams.of(streams)), parts
            total = sum((results[k][1] for results, _ in shards), IngestCounts())
            assert total.as_dict() == counts.as_dict(), parts


def test_ingest_counts_add_field_by_field():
    a = IngestCounts(read=3, parse_errors=1, kept=2, empty_streams=1, streams=1, seconds=0.5)
    a.dropped["lang"] = 4
    b = IngestCounts(read=5, kept=1, streams=1, seconds=0.25)
    b.dropped["retweet"] = 2
    total = a + b
    assert total.as_dict() == {
        "posts_read": 8, "parse_errors": 1, "dropped_lang": 4, "dropped_country": 0,
        "dropped_retweet": 2, "posts_after_filter": 3, "empty_streams": 1,
        "streams_written": 2}
    assert total.seconds == 0.75
    assert a.dropped == {"lang": 4, "country": 0, "retweet": 0}  # the parts stay as they were


def test_type_streams_of_and_join():
    posts = [("a", "b", "a"), ("c",), ("b", "d", "a")]
    types = TypeStreams.of(posts)
    assert types.types == ("a", "b", "c", "d")
    assert types.ids.tolist() == [0, 1, 0, 2, 1, 3, 0]
    assert types.lengths.tolist() == [3, 1, 3]
    assert types.counts.tolist() == [3, 2, 1, 1]
    for cut in range(len(posts) + 1):
        joined = TypeStreams.join([TypeStreams.of(posts[:cut]), TypeStreams.of(posts[cut:])])
        assert same_streams(joined, types)


def saved_streams(tmp_path):
    lines = [jline("1", "hello \U0001F604 hello"), jline("2", "bye \U0001F62D now")]
    types = TypeStreams.of(ingest_corpus(lines, US, INV)[0])
    with open(tmp_path / "US.bin", "wb") as f:
        save_streams(f, types)
    return types, tmp_path / "US.bin"


def test_stream_file_round_trip(tmp_path):
    types, path = saved_streams(tmp_path)
    assert same_streams(load_streams(path), types)
    meta = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert meta == {"format": STREAM_FORMAT, "types": ["hello", "\U0001F604", "bye",
                                                       "\U0001F62D", "now"],
                    "counts": [2, 1, 1, 1, 1]}


@pytest.mark.parametrize("meta, arrays, match", [
    ({"format": "crossmoji-streams 0"}, None, "not a crossmoji-streams 1 file"),
    ({}, [np.array([0, 1, 0, 2], np.int64), np.array([3, 1], np.int32)],
     "an array is int64, expected int32"),
    ({}, [np.array([0, 1, 0, 2], np.float64), np.array([3, 1], np.int32)],
     "an array is float64, expected int32"),
    ({}, [np.array([0, 1, 0, 2], np.int32)], "EOF|No data"),
    ({}, [np.array([0, 1, 0, 2], np.int32), np.array([3, 2], np.int32)], "disagree"),
    ({}, [np.array([0, 1, 0, 3], np.int32), np.array([3, 1], np.int32)], "disagree"),
    ({"counts": [1, 1, 1]}, None, "disagree"),
], ids=["old-format", "int64-ids", "float-ids", "no-lengths", "lengths-sum", "id-out-of-range",
        "wrong-counts"])
def test_stream_file_of_wrong_format_or_dtype_raises(tmp_path, meta, arrays, match):
    path = tmp_path / "US.bin"
    meta = {"format": STREAM_FORMAT, "types": ["a", "b", "c"], "counts": [2, 1, 1]} | meta
    arrays = arrays or [np.array([0, 1, 0, 2], np.int32), np.array([3, 1], np.int32)]
    with open(path, "wb") as f:  # as `write_arrays` writes, but any dtype
        f.write(json.dumps(meta).encode() + b"\n")
        for array in arrays:
            np.save(f, array)
    with pytest.raises((ValueError, EOFError), match=match):
        load_streams(path)
