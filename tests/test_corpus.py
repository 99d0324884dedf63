"""Record filtering, meta-token normalization, tokenization, stream I/O."""

import dataclasses
import io
import itertools
import json
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from crossmoji.corpus import (
    META_TOKENS,
    CorpusHandle,
    FilterConfig,
    IngestCounts,
    PostRecord,
    RecordError,
    ingest_corpus,
    ingest_handle,
    ingest_lines,
    ingest_range,
    line_ranges,
    normalize_text,
    parse_record,
    tokenize,
    _NORMALIZE_RULES,
    _RULE_TRIGGERS,
    _drop_reasons,
    _filter_keys,
    _split_verbal,
)
from crossmoji.fileio import (
    STREAM_DTYPES,
    STREAM_FORMAT,
    TypeStreams,
    read_arrays,
    read_streams,
    write_streams,
)
from crossmoji.inventory import load_default_inventory

from util import bom_copy, synthetic_culture_corpus, write_mixed_feed

INV = load_default_inventory()
US = FilterConfig(lang="en", country="US")


def rec(text, lang="en", country="US", pre_tokenized=False, post_id="p1"):
    return PostRecord(post_id=post_id, text=text, country=country, lang=lang,
                      pre_tokenized=pre_tokenized)


# --- filtering -----------------------------------------------------------------

def drop_reason(record, config):
    """Why `config` drops `record`: "lang", "country", "retweet" or None."""
    [reason] = _drop_reasons(record, [_filter_keys(config.lang, config.country)])
    return reason


def test_direct_retweet_removed():
    assert drop_reason(rec("RT @bob: hello"), US) == "retweet"


def test_double_slash_retweet_marker_removed():
    assert drop_reason(rec("@alice// nice one"), US) == "retweet"


def test_clean_record_passes_unchanged():
    assert drop_reason(rec("hello \U0001F604"), US) is None


def test_language_mismatch_dropped():
    assert drop_reason(rec("hello", lang="ja"), US) == "lang"


def test_country_mismatch_dropped():
    assert drop_reason(rec("hello", country="JP"), US) == "country"


def test_lang_primary_subtag_matches():
    assert drop_reason(rec("hello", lang="en-GB"), US) is None


def test_mention_without_marker_is_kept():
    assert drop_reason(rec("@bob hello"), US) is None  # not a retweet prefix


def test_filter_order_independence():
    records = [
        rec("RT @a: x"), rec("hi", lang="ja"), rec("hi", country="CA"),
        rec("plain"), rec("@b// y"), rec("RT @c: z", lang="fr"),
    ]
    predicates = {
        "lang": lambda r: drop_reason(r, US) != "lang" or False,
    }

    def survives(r, order):
        # apply the three predicates in the given order; short-circuit drop
        checks = {
            "lang": lambda: r.lang.lower().split("-")[0] == "en",
            "country": lambda: r.country.upper() == "US",
            "retweet": lambda: drop_reason(
                PostRecord(r.post_id, r.text, "US", "en"), US) != "retweet",
        }
        return all(checks[name]() for name in order)

    baseline = [survives(r, ("lang", "country", "retweet")) for r in records]
    for order in itertools.permutations(("lang", "country", "retweet")):
        assert [survives(r, order) for r in records] == baseline
    # and the combined filter agrees
    assert [drop_reason(r, US) is None for r in records] == baseline


def test_records_filtered_once_give_each_corpus_its_own_reasons():
    # ingest_lines normalizes a record's lang and country once for every
    # corpus; each corpus's drops are still those of the per-corpus rule
    def per_corpus_rule(r, config):
        a, b = r.lang.lower(), config.lang.lower()
        if not (a == b or a.split("-")[0] == b.split("-")[0]):
            return "lang"
        if r.country.upper() != config.country.upper():
            return "country"
        return "retweet" if r.text.lstrip().startswith(("RT @", "@b//")) else None

    configs = [US, FilterConfig("EN-gb", "gb"), FilterConfig("ja-JP", "jp"),
               FilterConfig("en_US", "Us")]
    records = [rec(text, lang, country) for text in ("hi", "RT @a: x", " @b// y")
               for lang in ("en", "EN-US", "en_US", "ja", "fr") for country in ("US", "us", "GB", "JP")]
    lines = [jline(r.post_id, r.text, r.country, r.lang) for r in records]
    results = ingest_lines(lines, [(config, False) for config in configs], INV)
    for config, (_, counts) in zip(configs, results):
        expected = Counter(per_corpus_rule(r, config) for r in records)
        assert counts.dropped == {k: expected[k] for k in ("lang", "country", "retweet")}
        assert counts.kept == expected[None]
        assert [drop_reason(r, config) for r in records] == [
            per_corpus_rule(r, config) for r in records]


def test_parse_record_roundtrip_and_errors():
    line = json.dumps({"post_id": "42", "text": "hi", "country": "US", "lang": "en"})
    r = parse_record(line)
    assert r.post_id == "42" and not r.pre_tokenized
    assert parse_record(line[:-1] + ', "pre_tokenized": true}').pre_tokenized
    assert parse_record(line.replace('"42"', "7")).post_id == "7"
    # a post id is a string or an integer; no other JSON value is turned into text
    bad_ids = [f'{{"post_id":{v},"text":"x","country":"US","lang":"en"}}'
               for v in ("null", "true", "false", "1.5", "[1]", '{"a": 1}')]
    for bad in bad_ids + ["not json", "[1,2]", '{"post_id": "1"}',
                '{"post_id":"1","text":"  ","country":"US","lang":"en"}',
                '{"post_id":"1","text":"x","country":"","lang":"en"}',
                '{"post_id":"1","text":"x","country":"US","lang":"en","pre_tokenized":"false"}',
                '{"post_id":"1","text":"x","country":"US","lang":"en","pre_tokenized":1}',
                '{"post_id":"1","text":null,"country":"US","lang":"en"}',
                '{"post_id":"1","text":["x"],"country":"US","lang":"en"}',
                '{"post_id":"1","text":"x","country":null,"lang":"en"}',
                '{"post_id":"1","text":"x","country":"US","lang":5}',
                # a lone surrogate escape, and what a byte that is not UTF-8
                # becomes when read with errors="surrogateescape"
                '{"post_id":"1","text":"moneyish \\ud800 cashish","country":"US","lang":"en"}',
                '{"post_id":"\\udfff","text":"x","country":"US","lang":"en"}',
                '{"post_id":"1","text":"caf\udcff","country":"US","lang":"en"}',
                '{"post_id":"1","text":"x","country":"U\udcffS","lang":"en"}',
                '{"post_id":"1","text":"x","country":"US","lang":"e\\udc00n"}']:
        with pytest.raises(RecordError):
            parse_record(bad)
    # an escaped surrogate pair is one character, not a surrogate
    pair = '{"post_id":"1","text":"hi \\ud83d\\ude00","country":"US","lang":"en"}'
    assert parse_record(pair).text == "hi \U0001F600"


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


def normalize_every_rule(text):
    """normalize_text without its triggers: every rule, unconditionally."""
    for pattern, token in _NORMALIZE_RULES:
        text = pattern.sub(token, text)
    return text


def test_normalize_rule_triggers_one_per_rule():
    assert len(_RULE_TRIGGERS) == len(_NORMALIZE_RULES)


# every trigger character, non-ASCII decimal digits ("٣", "１") and pieces
# that each rule matches
NORMALIZE_ALPHABET = (
    list("@.:%$€£¥<>;=8^_-/+,()[]|*'oOtTapm13 \t٣１")
    + ["http://", "www.", "x.io", "me@x.org", "@bob", "25%", "5 %", "$5", "9€", "12:30",
       "１２:３０", "٣ pm", "2014-12-05", "jan 5", "555-123-4567", "(555) 123", ":)",
       ";-(", "=D", "8)", "(8", "<3", "^_^", "T_T", "o.O", "\U0001F604", "\u2764\ufe0f"]
    + sorted(META_TOKENS))


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(NORMALIZE_ALPHABET), max_size=12).map("".join))
def test_normalize_text_equals_every_rule_applied(text):
    assert normalize_text(text) == normalize_every_rule(text)


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


def tokenize_chunk_by_chunk(record, inventory):
    """tokenize without its fast path: every chunk through the splitters."""
    tokens = []
    for chunk in record.text.split():
        for piece, is_emoji in inventory.split_text(chunk):
            if is_emoji:
                tokens.append(piece)
            elif record.pre_tokenized:
                if piece:
                    tokens.append(piece)
            else:
                tokens.extend(t for t in _split_verbal(piece) if t)
    return tuple(tokens)


# edge punctuation, meta-token and selector characters, letters whose case
# mapping changes their length, and emoji with their joiners
TOKENIZE_ALPHABET = (
    list(".,!?;:\"'()[]{}…“”‘’<>@#-") + list("aBİß") + [" ", "\t", "word", "Don't", "<url>",
    "\ufe0e", "\ufe0f", "\u200d", "\u20e3", "\U0001F604", "\u2764", "\U0001F1FA",
    "\U0001F1F8"])


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(TOKENIZE_ALPHABET), max_size=12).map("".join), st.booleans())
def test_tokenize_equals_chunk_by_chunk_general_path(text, pre_tokenized):
    record = rec(text, pre_tokenized=pre_tokenized)
    assert tokenize(record, INV).tokens == tokenize_chunk_by_chunk(record, INV)


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


GOOD_LINE = jline("1", "hello \U0001F604 world")
# json.loads raises a ValueError for the integer and a RecursionError for
# the nesting, not a JSONDecodeError
HUGE_INT_LINE = '{"post_id":"2","text":"x","country":"US","lang":"en","n":' + "9" * 5000 + "}"
DEEP_LINE = ('{"post_id":"2","text":"x","country":"US","lang":"en","n":'
             + "[" * 100_000 + "]" * 100_000 + "}")


@pytest.mark.parametrize("bad_line", [HUGE_INT_LINE, DEEP_LINE], ids=["huge-int", "deep"])
def test_record_json_cannot_decode_is_a_parse_error(bad_line):
    [(streams, counts)] = ingest_lines([GOOD_LINE, bad_line], [(US, False)], INV)
    assert (counts.read, counts.parse_errors, counts.kept) == (2, 1, 1)
    assert [s.post_id for s in streams] == ["1"]


def test_ingest_normalizes_then_tokenizes():
    lines = [jline("1", "go http://a.b/c now \U0001F604")]
    streams, _ = ingest_corpus(lines, US, INV)
    assert streams[0].tokens == ("go", "<url>", "now", "\U0001F604")


# pieces of chunks: ASCII words, edge punctuation, meta-token triggers, CJK
# text and inventory emoji, with a ZWJ sequence, a skin tone and selectors
CHUNK_PIECES = [
    "good", "Morning", "don't", "x", ".", ",", "!", "(", ")", "\"", "…", "@bob", "50%",
    "12", "3:30", ":)", "<3", "$5", "www.a.com", "a@b.co", "<url>", "東京", "です",
    "\U0001F604", "\u2764\ufe0f", "\u2764\ufe0e", "\ufe0f", "\u200d",
    "\U0001F468\u200d\U0001F469\u200d\U0001F467", "\U0001F44D\U0001F3FD", "\U0001F1EF\U0001F1F5"]
CHUNKS = st.lists(st.sampled_from(CHUNK_PIECES), min_size=1, max_size=3).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.lists(CHUNKS, min_size=1, max_size=6), st.booleans()),
                min_size=1, max_size=8),
       st.booleans())
def test_memoized_ingest_equals_tokenize_per_record(posts, corpus_pre_tokenized):
    # records: (chunks, the record's own pre_tokenized flag); the corpus flag
    # makes every record pre-tokenized
    lines = [jline(str(i), " ".join(chunks), pre_tokenized=flag)
             for i, (chunks, flag) in enumerate(posts)]
    [(streams, counts)] = ingest_lines(lines, [(US, corpus_pre_tokenized)], INV)
    assert counts.kept == len(posts)
    texts, expected, distinct = [], [], set()
    for i, (chunks, flag) in enumerate(posts):
        pre = flag or corpus_pre_tokenized
        text = " ".join(chunks) if pre else normalize_text(" ".join(chunks))
        distinct.update((chunk, pre) for chunk in text.split())
        stream = tokenize(rec(text, pre_tokenized=pre, post_id=str(i)), INV)
        if stream.tokens:
            texts.append((text, pre))
            expected.append(stream)
    assert streams == expected
    assert counts.distinct_chunks == len(distinct)
    # equal chunks of one call share their token strings
    first: dict = {}
    for stream, (text, pre) in zip(streams, texts):
        pos = 0
        for chunk in text.split():
            n = len(tokenize(rec(chunk, pre_tokenized=pre), INV).tokens)
            part = stream.tokens[pos:pos + n]
            pos += n
            assert all(a is b for a, b in zip(part, first.setdefault((chunk, pre), part)))
        assert pos == len(stream.tokens)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
RECORD_FIELDS = {
    "post_id": st.text(max_size=4) | st.integers() | JSON_VALUES,
    "text": st.lists(st.sampled_from(CHUNK_PIECES + ["RT @x:", " "]), max_size=6).map(" ".join)
            | JSON_VALUES,
    "country": st.sampled_from(["US", "us", "CA", ""]) | JSON_VALUES,
    "lang": st.sampled_from(["en", "en-GB", "fr", ""]) | JSON_VALUES,
    "pre_tokenized": st.booleans() | JSON_VALUES,
}
RECORD_LINES = (st.fixed_dictionaries({}, optional=RECORD_FIELDS)
                .map(lambda r: json.dumps(r, ensure_ascii=False)))


@settings(max_examples=200, deadline=None)
@given(st.lists(RECORD_LINES | st.text(max_size=12) | st.sampled_from(["", "  ", "{"]),
                max_size=8))
@example([GOOD_LINE, HUGE_INT_LINE])
@example([GOOD_LINE, DEEP_LINE])
def test_ingest_accounts_for_every_line(lines):
    # every non-blank line is read, and every line read is a parse error, a
    # drop or kept; every kept post is a stream or an empty one
    corpora = [(US, False), (FilterConfig(lang="en", country="CA"), True)]
    for streams, counts in ingest_lines(lines, corpora, INV):
        assert counts.read == sum(1 for line in lines if line.strip())
        assert counts.parse_errors + sum(counts.dropped.values()) + counts.kept == counts.read
        assert counts.streams + counts.empty_streams == counts.kept
        assert counts.streams == len(streams)


def test_ingest_result_holds_each_distinct_chunk_once():
    # 2,000 posts over 200 words: what ingest_lines returns holds a pointer
    # per token, not a string of its own
    words = ["".join(p) for p in itertools.product("abcdefghij", repeat=3)][:200]
    rng = np.random.default_rng(0)
    lines = [jline(str(i), " ".join(rng.choice(words, size=20).tolist())) for i in range(2000)]
    ingest_lines(lines[:5], [(US, False)], INV)  # what a first call sets up stays out
    tracemalloc.start()
    try:
        [(streams, _)] = ingest_lines(lines, [(US, False)], INV)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tokens = sum(len(s.tokens) for s in streams)
    assert tokens == 2000 * 20
    assert held / tokens < 60


def test_ingest_range_holds_no_list_of_its_lines(tmp_path):
    # the range is read as bytes and decoded one line at a time: beyond what
    # it returns, its peak is the bytes plus the posts' tokens, not a
    # decoded copy of every line as well
    path = synthetic_culture_corpus(tmp_path / "us.jsonl", "US", seed=0)
    size = path.stat().st_size
    ingest_range(path, 0, size, [(US, False)], INV)  # what a first call sets up stays out
    tracemalloc.start()
    try:
        [(types, _)] = ingest_range(path, 0, size, [(US, False)], INV)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(types.lengths) > 1000
    assert (peak - held) / size < 4.5


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
            and a.lengths.dtype == b.lengths.dtype == np.int32
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
        assert sum(results[0][1].lines for results in shards) == len(lines)
        for k, (streams, counts) in enumerate(expected):
            joined = TypeStreams.join(results[k][0] for results in shards)
            assert same_streams(joined, TypeStreams.of(streams)), parts
            total = sum((results[k][1] for results in shards), IngestCounts())
            assert total.as_dict() == counts.as_dict(), parts


def test_input_with_byte_order_mark_keeps_its_first_record(tmp_path):
    # the mark is skipped at byte 0 alone, so every cut reads the same posts
    path = tmp_path / "us.jsonl"
    path.write_text("".join(jline(str(i), f"post {i} \U0001F604") + "\n" for i in range(3)),
                    encoding="utf-8")

    def ingested(path, parts: int) -> tuple[IngestCounts, bytes]:
        shards = [ingest_range(path, s, e, [(US, False)], INV) for s, e in line_ranges(path, parts)]
        f = io.BytesIO()
        write_streams(f, TypeStreams.join(types for [(types, _)] in shards))
        return sum((counts for [(_, counts)] in shards), IngestCounts()), f.getvalue()

    for parts in (1, 2, 3):
        counts, streams = ingested(bom_copy(path), parts)
        assert counts.parse_errors == 0 and counts.kept == 3, parts
        assert streams == ingested(path, parts)[1], parts
    handle = CorpusHandle(corpus_id="US", culture="West", input_path=path, lang="en",
                          country="US", lexicon_path=tmp_path / "demo.dic")
    with_mark = dataclasses.replace(handle, input_path=bom_copy(path))
    assert ingest_handle(with_mark, INV)[1].as_dict() == ingest_handle(handle, INV)[1].as_dict()


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
    assert TypeStreams.of(types) is types
    for cut in range(len(posts) + 1):
        joined = TypeStreams.join([TypeStreams.of(posts[:cut]), TypeStreams.of(posts[cut:])])
        assert same_streams(joined, types)


def saved_streams(tmp_path):
    lines = [jline("1", "hello \U0001F604 hello"), jline("2", "bye \U0001F62D now")]
    types = TypeStreams.of(ingest_corpus(lines, US, INV)[0])
    with open(tmp_path / "US.bin", "wb") as f:
        write_streams(f, types)
    return types, tmp_path / "US.bin"


def test_stream_file_round_trip(tmp_path):
    types, path = saved_streams(tmp_path)
    assert same_streams(read_streams(path), types)
    meta = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert meta == {"format": STREAM_FORMAT, "types": ["hello", "\U0001F604", "bye",
                                                       "\U0001F62D", "now"],
                    "counts": [2, 1, 1, 1, 1]}


def stored_dtypes(path) -> list[str]:
    """The .npy descr of the type ids and of the post lengths in a stream file."""
    _, arrays = read_arrays(path, STREAM_FORMAT, (STREAM_DTYPES, STREAM_DTYPES))
    return [array.dtype.str for array in arrays]


@pytest.mark.parametrize("types, lengths, descrs", [
    (256, [255, 1], ["|u1", "|u1"]),
    (257, [256, 1], ["<u2", "<u2"]),
    (65_536, [65_535, 1], ["<u2", "<u2"]),
    (65_537, [65_535, 2], ["<i4", "<u2"]),
    (3, [70_000], ["|u1", "<i4"]),
    (0, [], ["|u1", "|u1"]),
], ids=["uint8", "uint16", "uint16-top", "int32-ids", "int32-lengths", "empty"])
def test_stream_file_stores_the_narrowest_width_and_reads_int32(tmp_path, types, lengths,
                                                                descrs):
    # the largest id is types - 1 and the longest post max(lengths)
    ids = np.resize(np.arange(types, dtype=np.int32), sum(lengths))
    streams = TypeStreams(tuple(f"t{i}" for i in range(types)), ids,
                          np.array(lengths, np.int32))
    with open(tmp_path / "US.bin", "wb") as f:
        write_streams(f, streams)
    assert stored_dtypes(tmp_path / "US.bin") == descrs
    assert same_streams(read_streams(tmp_path / "US.bin"), streams)


@pytest.mark.parametrize("meta, arrays, match", [
    ({"format": "crossmoji-streams 1"}, None, "not a crossmoji-streams 2 file"),
    ({}, [np.array([0, 1, 0, 2], np.int64), np.array([3, 1], np.int32)],
     "an array is int64, expected uint8 or uint16 or int32"),
    ({}, [np.array([0, 1, 0, 2], np.float64), np.array([3, 1], np.int32)],
     "an array is float64, expected uint8 or uint16 or int32"),
    ({}, [np.array([0, 1, 0, 2], np.int8), np.array([3, 1], np.uint8)],
     "an array is int8, expected uint8 or uint16 or int32"),
    ({}, [np.array([0, 1, 0, 2], np.uint8), np.array([3, 1], np.uint64)],
     "an array is uint64, expected uint8 or uint16 or int32"),
    ({}, [np.array([0, 1, 0, 2], np.int32)], "EOF|No data"),
    ({}, [np.array([0, 1, 0, 2], np.int32), np.array([3, 2], np.int32)], "disagree"),
    ({}, [np.array([0, 1, 0, 3], np.int32), np.array([3, 1], np.int32)], "disagree"),
    ({"counts": [1, 1, 1]}, None, "disagree"),
    ({}, [np.array([0, 1, 0, 2], np.uint16), np.array([3, 2], np.uint8)], "disagree"),
], ids=["old-format", "int64-ids", "float-ids", "int8-ids", "uint64-lengths", "no-lengths",
        "lengths-sum", "id-out-of-range", "wrong-counts", "narrow-lengths-sum"])
def test_stream_file_of_wrong_format_or_dtype_raises(tmp_path, meta, arrays, match):
    path = tmp_path / "US.bin"
    meta = {"format": STREAM_FORMAT, "types": ["a", "b", "c"], "counts": [2, 1, 1]} | meta
    arrays = arrays or [np.array([0, 1, 0, 2], np.int32), np.array([3, 1], np.int32)]
    with open(path, "wb") as f:  # as `write_arrays` writes, but any dtype
        f.write(json.dumps(meta).encode() + b"\n")
        for array in arrays:
            np.save(f, array)
    with pytest.raises((ValueError, EOFError), match=match):
        read_streams(path)
