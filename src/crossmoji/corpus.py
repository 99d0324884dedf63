"""Post ingestion: record filtering, meta-token normalization, tokenization.

Input records arrive as JSON lines with fields `post_id`, `text`, `country`,
`lang` and optional `pre_tokenized`.  All operations are pure per record,
so a corpus can be processed in any order or in parallel.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, TextIO

from .inventory import EmojiInventory, strip_variation_selectors


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


def parse_record(line: str) -> PostRecord:
    """Parse one JSON-line record; raises RecordError on anything malformed."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RecordError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise RecordError("record is not an object")
    missing = [k for k in ("post_id", "text", "country", "lang") if k not in obj]
    if missing:
        raise RecordError(f"missing fields: {', '.join(missing)}")
    text = str(obj["text"])
    if not text.strip():
        raise RecordError("empty text")
    country, lang = str(obj["country"]), str(obj["lang"])
    if not country or not lang:
        raise RecordError("empty country or lang")
    post_id = str(obj["post_id"])
    if any(c in post_id for c in "\t\n\r"):
        # the stream files are "post_id<TAB>tokens" lines
        raise RecordError(f"post_id {post_id!r} contains a tab or line break")
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


def _lang_matches(record_lang: str, wanted: str) -> bool:
    a, b = record_lang.lower(), wanted.lower()
    return a == b or a.split("-")[0] == b.split("-")[0]


def filter_reason(record: PostRecord, config: FilterConfig) -> Optional[str]:
    """Why a record would be dropped: 'lang', 'country', 'retweet' or None."""
    if not _lang_matches(record.lang, config.lang):
        return "lang"
    if record.country.upper() != config.country.upper():
        return "country"
    if _RETWEET_RE.match(record.text.lstrip()):
        return "retweet"
    return None


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


def normalize_text(text: str) -> str:
    """Replace URLs, emails, mentions, amounts, times, dates, phone numbers
    and ASCII emoticons with their meta-tokens.  Total and idempotent."""
    for pattern, token in _NORMALIZE_RULES:
        text = pattern.sub(token, text)
    return text


_META_TOKEN_RE = re.compile("|".join(re.escape(t) for t in sorted(META_TOKENS)))
_EDGE_PUNCT = ".,!?;:\"'()[]{}…“”‘’"


def _split_verbal(piece: str) -> Iterator[str]:
    """Split meta-tokens out of a whitespace chunk, trim edge punctuation."""
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


def tokenize(record: PostRecord, inventory: EmojiInventory) -> TokenStream:
    """Turn a filtered record into tokens with emoji split out standalone.

    Pre-tokenized records (CJK path) are split on whitespace as-is, except
    that glued emoji are still separated.  Otherwise verbal tokens are
    lowercased and edge punctuation is split off; meta-tokens pass through
    verbatim.
    """
    tokens: list[str] = []
    for chunk in record.text.split():
        for piece, is_emoji in inventory.split_text(chunk):
            if is_emoji:
                tokens.append(piece)
            elif record.pre_tokenized:
                if piece:
                    tokens.append(piece)
            else:
                tokens.extend(t for t in _split_verbal(piece) if t)
    return TokenStream(post_id=record.post_id, tokens=tuple(tokens))


# --- corpus-level I/O ----------------------------------------------------

@dataclass
class IngestCounts:
    """Per-corpus record counts through the filter chain (monotone)."""

    read: int = 0
    parse_errors: int = 0
    dropped: dict = field(default_factory=lambda: {"lang": 0, "country": 0, "retweet": 0})
    kept: int = 0
    empty_streams: int = 0
    streams: int = 0

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
        if not line.strip():
            continue
        counts.read += 1
        try:
            yield parse_record(line)
        except RecordError:
            counts.parse_errors += 1


def ingest_corpus(
    lines: Iterable[str],
    config: FilterConfig,
    inventory: EmojiInventory,
    pre_tokenized: bool = False,
) -> tuple[list[TokenStream], IngestCounts]:
    """Filter, normalize and tokenize raw record lines for one corpus.

    A corpus-level `pre_tokenized` flag (the CJK path) applies to every
    record; individual records can also carry their own flag.
    """
    counts = IngestCounts()
    streams: list[TokenStream] = []
    for record in read_records(lines, counts):
        reason = filter_reason(record, config)
        if reason:
            counts.dropped[reason] += 1
            continue
        counts.kept += 1
        if record.pre_tokenized or pre_tokenized:
            if not record.pre_tokenized:
                record = PostRecord(record.post_id, record.text, record.country,
                                    record.lang, pre_tokenized=True)
            stream = tokenize(record, inventory)
        else:
            normalized = PostRecord(
                post_id=record.post_id,
                text=normalize_text(record.text),
                country=record.country,
                lang=record.lang,
            )
            stream = tokenize(normalized, inventory)
        if stream.tokens:
            streams.append(stream)
        else:
            counts.empty_streams += 1
    counts.streams = len(streams)
    return streams, counts


def ingest_handle(
    handle: CorpusHandle, inventory: EmojiInventory
) -> tuple[list[TokenStream], IngestCounts]:
    """Ingest the input file of one corpus."""
    with open(handle.input_path, encoding="utf-8") as f:
        return ingest_corpus(f, FilterConfig(lang=handle.lang, country=handle.country),
                             inventory, pre_tokenized=handle.pre_tokenized)


def write_streams(streams: Iterable[TokenStream], f: TextIO) -> None:
    for s in streams:
        f.write(f"{s.post_id}\t{' '.join(s.tokens)}\n")


def read_streams(f: TextIO) -> Iterator[TokenStream]:
    for line in f:
        line = line.rstrip("\n")
        if not line:
            continue
        post_id, _, rest = line.partition("\t")
        tokens = tuple(t for t in rest.split(" ") if t)
        yield TokenStream(post_id=post_id, tokens=tokens)
