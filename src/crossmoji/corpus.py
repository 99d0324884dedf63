"""Post ingestion: record filtering, meta-token normalization, tokenization.

Input records arrive as JSON lines with fields `post_id`, `text`, `country`,
`lang` and optional `pre_tokenized`.  All operations are pure per record,
so a file can be cut into line-aligned byte ranges (`line_ranges`) that
are parsed in parallel, each line once for every corpus that reads it
(`ingest_range`), and the parts joined in order.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from .fileio import TypeStreams
from .inventory import EmojiInventory, primary_language, strip_variation_selectors


class RecordError(ValueError):
    """A malformed input record (recoverable: counted and skipped)."""


@dataclass(frozen=True)
class PostRecord:
    post_id: str
    text: str
    country: str
    lang: str
    pre_tokenized: bool = False


@dataclass(frozen=True)
class TokenStream:
    post_id: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class CorpusHandle:
    """One corpus of a run config: its id, culture group ("West" or "East"),
    input file, filter values and lexicon."""

    corpus_id: str
    culture: str
    input_path: Path
    lang: str
    country: str
    lexicon_path: Path
    pre_tokenized: bool = False


@dataclass(frozen=True)
class FilterConfig:
    lang: str
    country: str


# direct-repost prefixes: "RT @user:" and "@user//"
_RETWEET_RE = re.compile(r"RT @\w+:|@\w+//")
# what a lone surrogate escape, or an undecodable byte read with
# errors="surrogateescape", leaves in a string; UTF-8 cannot encode it
_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def parse_record(line: str) -> PostRecord:
    """Parse one JSON-line record; raises RecordError on anything malformed."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # also an over-long integer or too deep nesting
        raise RecordError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise RecordError("record is not an object")
    missing = [k for k in ("post_id", "text", "country", "lang") if k not in obj]
    if missing:
        raise RecordError(f"missing fields: {', '.join(missing)}")
    post_id, text, country, lang = obj["post_id"], obj["text"], obj["country"], obj["lang"]
    if type(post_id) is int:  # an integer id, not a bool, stands for its decimal text
        post_id = str(post_id)
    for name, value in (("post_id", post_id), ("text", text), ("country", country),
                        ("lang", lang)):
        if not isinstance(value, str):
            kind = "a string or an integer" if name == "post_id" else "a string"
            raise RecordError(f"{name} must be {kind}, got {json.dumps(value)}")
        if _SURROGATE_RE.search(value):
            raise RecordError(f"{name} holds a surrogate code point (a byte that is "
                              "not UTF-8, or a lone surrogate escape)")
    if not text.strip():
        raise RecordError("empty text")
    if not country or not lang:
        raise RecordError("empty country or lang")
    pre_tokenized = obj.get("pre_tokenized", False)
    if not isinstance(pre_tokenized, bool):
        raise RecordError(f"pre_tokenized must be true or false, got {pre_tokenized!r}")
    return PostRecord(
        post_id=post_id,
        text=text,
        country=country,
        lang=lang,
        pre_tokenized=pre_tokenized,
    )


def _filter_keys(lang: str, country: str) -> tuple[str, str]:
    """What a filter compares: the primary language and the uppercase country."""
    return primary_language(lang), country.upper()


def _drop_reasons(record: PostRecord, wanted: Sequence[tuple[str, str]]) -> list[Optional[str]]:
    """Why `record` is dropped by each filter, given as its `_filter_keys`:
    "lang", "country", "retweet" or None (kept).  The record's fields are
    normalized, and the retweet test made, once."""
    lang, country = _filter_keys(record.lang, record.country)
    retweet = None
    reasons: list[Optional[str]] = []
    for want_lang, want_country in wanted:
        if lang != want_lang:
            reasons.append("lang")
        elif country != want_country:
            reasons.append("country")
        else:
            if retweet is None:
                retweet = _RETWEET_RE.match(record.text.lstrip()) is not None
            reasons.append("retweet" if retweet else None)
    return reasons


# --- text normalization -------------------------------------------------
# Applied in order; each pattern maps to one meta-token.  Patterns must not
# match inside an already-substituted meta-token (normalize_text is
# idempotent).

_EMOTICON = r"""
    (?:
      <+/?3+                                  # hearts <3 </3
      |
      [<>]?[:;=8][\-o^']?[)\](\[dDpP/\\|@}{*] # eyes, nose, mouth
      |
      [)\](\[dDpP/\\|@}{][\-o^']?[:;=8][<>]?  # reversed
      |
      \^_*\^ | [tT]_[tT] | o\.O | O\.o        # eastern style
    )"""

_NORMALIZE_RULES: tuple[tuple[re.Pattern, str], ...] = (
    (re.compile(r"[\w.+-]+@[\w-]+\.[\w.-]+"), "<email>"),
    (re.compile(
        r"(?:https?://[^\s<>]+"
        r"|www\.[^\s<>]+"
        r"|\b[\w-]+(?:\.[\w-]+)*\.(?:com|net|org|edu|gov|info|io|ly|gl|be|me|tv|co|us|uk|jp|cn)\b(?:/[^\s<>]*)?)"
    ), "<url>"),
    (re.compile(r"@\w+"), "<user>"),
    (re.compile(r"\d+(?:[.,]\d+)*\s?%"), "<percent>"),
    (re.compile(r"(?:[$€£¥]\s?\d+(?:[.,]\d+)*|\b\d+(?:[.,]\d+)*\s?[$€£¥])"), "<money>"),
    (re.compile(r"\b\d{1,2}:\d{2}(?::\d{2})?(?:\s?[ap]m)?\b|\b\d{1,2}\s?[ap]m\b", re.IGNORECASE), "<time>"),
    (re.compile(
        r"\b\d{1,4}[-/]\d{1,2}[-/]\d{1,4}\b"                  # 2014-12-05, 12/05/2014
        r"|\b\d{1,2}/\d{1,2}\b"                               # 12/25
        r"|\b(?:jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)[a-z]*\.?\s\d{1,2}(?:st|nd|rd|th)?(?:,?\s\d{4})?\b",
        re.IGNORECASE,
    ), "<date>"),
    (re.compile(
        r"(?:\+?\d{1,2}[\s.-]?)?(?:\(\d{3}\)[\s.-]?|\b\d{3}[\s.-])\d{3}[\s.-]\d{4}\b"
        r"|\b\d{3}[-.]\d{4}\b"
    ), "<phone>"),
    (re.compile(r"(?<![\w<])" + _EMOTICON + r"(?![\w>])", re.VERBOSE), "<emoticon>"),
)

META_TOKENS = frozenset(token for _, token in _NORMALIZE_RULES)

# One search per rule, in rule order, for a character that every match of
# the rule contains.  `\d` also matches non-ASCII decimal digits, as the
# rules' own `\d` does.
_DIGIT = re.compile(r"\d")
_RULE_TRIGGERS: tuple[re.Pattern, ...] = (
    re.compile("@"),  # email
    re.compile("[.:]"),  # url
    re.compile("@"),  # user
    re.compile("%"),  # percent
    re.compile("[$€£¥]"),  # money
    _DIGIT,  # time
    _DIGIT,  # date
    _DIGIT,  # phone
    re.compile("[<:;=8^_.]"),  # emoticon
)


def normalize_text(text: str) -> str:
    """Replace URLs, emails, mentions, amounts, times, dates, phone numbers
    and ASCII emoticons with their meta-tokens.  Total and idempotent.

    A rule runs only when its trigger, in `_RULE_TRIGGERS`, finds a
    character in the text as the earlier rules left it.  That skips no
    match as long as every match of a rule contains its trigger: an edit to
    a rule must keep that invariant or widen the trigger."""
    for (pattern, token), trigger in zip(_NORMALIZE_RULES, _RULE_TRIGGERS):
        if trigger.search(text):
            text = pattern.sub(token, text)
    return text


_META_TOKEN_RE = re.compile("|".join(re.escape(t) for t in sorted(META_TOKENS)))
_EDGE_PUNCT = ".,!?;:\"'()[]{}…“”‘’"
# a verbal chunk holding none of these, and no edge punctuation, lowercases whole:
# "<" starts every meta-token, and variation selectors are stripped
_VERBAL_SPLIT_CHARS = frozenset("<\ufe0e\ufe0f")


def _split_verbal(piece: str) -> Iterator[str]:
    """Split meta-tokens out of a whitespace chunk, trim edge punctuation."""
    if "<" not in piece:  # every meta-token starts with "<"
        yield from _split_plain(piece)
        return
    pos = 0
    for m in _META_TOKEN_RE.finditer(piece):
        yield from _split_plain(piece[pos:m.start()])
        yield m.group(0)
        pos = m.end()
    yield from _split_plain(piece[pos:])


def _split_plain(chunk: str) -> Iterator[str]:
    chunk = strip_variation_selectors(chunk)  # orphans next to non-emoji chars
    if not chunk:
        return
    lead = []
    while chunk and chunk[0] in _EDGE_PUNCT:
        lead.append(chunk[0])
        chunk = chunk[1:]
    trail = []
    while chunk and chunk[-1] in _EDGE_PUNCT:
        trail.append(chunk[-1])
        chunk = chunk[:-1]
    yield from lead
    if chunk:
        yield chunk.lower()
    yield from reversed(trail)


def _chunk_tokens(chunk: str, pre_tokenized: bool,
                  inventory: EmojiInventory) -> tuple[str, ...]:
    """The tokens of one whitespace chunk, emoji split out standalone.

    A pre-tokenized chunk (CJK path) is kept as-is, except that glued emoji
    are still separated.  Otherwise verbal tokens are lowercased and edge
    punctuation is split off; meta-tokens pass through verbatim."""
    # a chunk without an inventory start character holds no emoji, so it
    # skips `split_text`; one no verbal splitter acts on is one token
    if inventory.start_chars.isdisjoint(chunk):
        if pre_tokenized:
            return (chunk,)
        if (_VERBAL_SPLIT_CHARS.isdisjoint(chunk) and chunk[0] not in _EDGE_PUNCT
                and chunk[-1] not in _EDGE_PUNCT):
            return (chunk.lower(),)
        return tuple(t for t in _split_verbal(chunk) if t)
    tokens: list[str] = []
    for piece, is_emoji in inventory.split_text(chunk):
        if is_emoji:
            tokens.append(piece)
        elif pre_tokenized:
            if piece:
                tokens.append(piece)
        else:
            tokens.extend(t for t in _split_verbal(piece) if t)
    return tuple(tokens)


def _tokens(text: str, pre_tokenized: bool, inventory: EmojiInventory,
            memo: dict[str, tuple[str, ...]]) -> tuple[str, ...]:
    """The `_chunk_tokens` of each whitespace chunk of `text`, in order.
    `memo` maps each chunk seen before, with the same `pre_tokenized`, to
    its tokens, so an equal chunk is tokenized once and shares their
    strings."""
    tokens: list[str] = []
    for chunk in text.split():
        found = memo.get(chunk)
        if found is None:
            found = memo[chunk] = _chunk_tokens(chunk, pre_tokenized, inventory)
        tokens += found
    return tuple(tokens)


def tokenize(record: PostRecord, inventory: EmojiInventory) -> TokenStream:
    """Turn a filtered record into tokens with emoji split out standalone,
    chunk by chunk (`_chunk_tokens`)."""
    return TokenStream(post_id=record.post_id,
                       tokens=_tokens(record.text, record.pre_tokenized, inventory, {}))


# --- corpus-level I/O ----------------------------------------------------

@dataclass
class IngestCounts:
    """Per-corpus record counts through the filter chain (monotone).
    `lines`, `distinct_chunks` and `read` count for every corpus of an
    `ingest_lines` call: the lines it was given, blank ones too, and the
    distinct whitespace chunks it tokenized.  `counts.json` leaves
    `lines` out."""

    lines: int = 0
    read: int = 0
    parse_errors: int = 0
    dropped: dict = field(default_factory=lambda: {"lang": 0, "country": 0, "retweet": 0})
    kept: int = 0
    empty_streams: int = 0
    streams: int = 0
    distinct_chunks: int = 0

    def __add__(self, other: IngestCounts) -> IngestCounts:
        """The counts of two parts of a corpus, summed field by field."""
        total = IngestCounts(dropped={k: n + other.dropped[k] for k, n in self.dropped.items()})
        for f in fields(self):
            if f.name != "dropped":
                setattr(total, f.name, getattr(self, f.name) + getattr(other, f.name))
        return total

    def as_dict(self) -> dict:
        return {
            "posts_read": self.read,
            "parse_errors": self.parse_errors,
            "dropped_lang": self.dropped["lang"],
            "dropped_country": self.dropped["country"],
            "dropped_retweet": self.dropped["retweet"],
            "posts_after_filter": self.kept,
            "empty_streams": self.empty_streams,
            "streams_written": self.streams,
        }


def read_records(lines: Iterable[str], counts: IngestCounts) -> Iterator[PostRecord]:
    for line in lines:
        counts.lines += 1
        if not line.strip():
            continue
        counts.read += 1
        try:
            yield parse_record(line)
        except RecordError:
            counts.parse_errors += 1


def ingest_lines(
    lines: Iterable[str],
    corpora: Sequence[tuple[FilterConfig, bool]],
    inventory: EmojiInventory,
) -> list[tuple[list[TokenStream], IngestCounts]]:
    """Parse each record line once, then filter, normalize and tokenize it
    for each corpus, given as (filter, pre_tokenized); return each corpus's
    non-empty streams and counts.  Every corpus counts every line read.

    A corpus-level `pre_tokenized` flag (the CJK path) applies to every
    record; individual records can also carry their own flag.  Each
    distinct chunk is tokenized once per call, through one memo for plain
    chunks, keyed as `normalize_text` leaves them, and one for
    pre-tokenized ones: equal chunks share one tuple of token strings.
    """
    parsed = IngestCounts()
    results = [([], IngestCounts()) for _ in corpora]
    wanted = [_filter_keys(config.lang, config.country) for config, _ in corpora]
    memos: dict[bool, dict] = {False: {}, True: {}}  # pre_tokenized -> chunk -> tokens
    for record in read_records(lines, parsed):
        reasons = _drop_reasons(record, wanted)
        for reason, (_, pre_tokenized), (streams, counts) in zip(reasons, corpora, results):
            if reason:
                counts.dropped[reason] += 1
            else:
                counts.kept += 1
                pre = record.pre_tokenized or pre_tokenized
                text = record.text if pre else normalize_text(record.text)
                tokens = _tokens(text, pre, inventory, memos[pre])
                if tokens:
                    streams.append(TokenStream(record.post_id, tokens))
                else:
                    counts.empty_streams += 1
    for streams, counts in results:
        counts.lines, counts.read = parsed.lines, parsed.read
        counts.parse_errors = parsed.parse_errors
        counts.streams = len(streams)
        counts.distinct_chunks = len(memos[False]) + len(memos[True])
    return results


def ingest_corpus(
    lines: Iterable[str],
    config: FilterConfig,
    inventory: EmojiInventory,
    pre_tokenized: bool = False,
) -> tuple[list[TokenStream], IngestCounts]:
    """Filter, normalize and tokenize raw record lines for one corpus."""
    [result] = ingest_lines(lines, [(config, pre_tokenized)], inventory)
    return result


def ingest_handle(
    handle: CorpusHandle, inventory: EmojiInventory
) -> tuple[list[TokenStream], IngestCounts]:
    """Ingest the input file of one corpus; a UTF-8 byte-order mark that
    starts it is skipped."""
    with open(handle.input_path, encoding="utf-8-sig", errors="surrogateescape") as f:
        return ingest_corpus(f, FilterConfig(lang=handle.lang, country=handle.country),
                             inventory, pre_tokenized=handle.pre_tokenized)


# --- byte-range shards ----------------------------------------------------

def line_ranges(path, parts: int) -> list[tuple[int, int]]:
    """Cut a file into at most `parts` byte ranges, (start, end), that
    together cover it in order.  Each cut falls just after a b"\\n", so it
    splits no line, whether it ends in "\\n", "\\r\\n" or "\\r", and no
    UTF-8 character.  An empty file is one empty range."""
    with open(path, "rb") as f:
        size = f.seek(0, 2)
        cuts = [0]
        for k in range(1, parts):
            f.seek(max(size * k // parts - 1, cuts[-1]))
            f.readline()
            if cuts[-1] < f.tell() < size:
                cuts.append(f.tell())
    return list(zip(cuts, cuts[1:] + [size]))


def ingest_range(
    path, start: int, end: int, corpora: Sequence[tuple[FilterConfig, bool]],
    inventory: EmojiInventory,
) -> list[tuple[TypeStreams, IngestCounts]]:
    """`ingest_lines` on bytes [start, end) of `path`: each corpus's posts
    as type ids, and its counts.  The bytes are decoded one line at a time
    as `ingest_handle` decodes a whole file: universal newlines, a byte-order
    mark skipped at byte 0 alone, and a byte that is not UTF-8 as a surrogate
    code point, which `parse_record` rejects, so its line is a parse error,
    not a failed read."""
    with open(path, "rb") as f:
        f.seek(start)
        data = f.read(end - start)
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig" if start == 0 else "utf-8",
                             errors="surrogateescape")
    return [(TypeStreams.of(streams), counts)
            for streams, counts in ingest_lines(lines, corpora, inventory)]

