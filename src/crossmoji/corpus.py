"""Post ingestion: record filtering, meta-token normalization, tokenization.

Input records arrive as JSON lines with fields `post_id`, `text`, `country`,
`lang` and optional `pre_tokenized`.  All operations are pure per record,
so a file can be cut into line-aligned byte ranges (`line_ranges`) that
are parsed in parallel, each line once for every corpus that reads it
(`ingest_range`), and the parts joined in order.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, TextIO

import numpy as np

from .fileio import read_arrays, write_arrays
from .inventory import EmojiInventory, strip_variation_selectors

STREAM_FORMAT = "crossmoji-streams 1"


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
    pre_tokenized = obj.get("pre_tokenized", False)
    if not isinstance(pre_tokenized, bool):
        raise RecordError(f"pre_tokenized must be true or false, got {pre_tokenized!r}")
    return PostRecord(
        post_id=str(obj["post_id"]),
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
    """Per-corpus record counts through the filter chain (monotone), and
    the seconds spent filtering and tokenizing the corpus's records."""

    read: int = 0
    parse_errors: int = 0
    dropped: dict = field(default_factory=lambda: {"lang": 0, "country": 0, "retweet": 0})
    kept: int = 0
    empty_streams: int = 0
    streams: int = 0
    seconds: float = 0.0

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
    record; individual records can also carry their own flag.
    """
    parsed = IngestCounts()
    results = [([], IngestCounts()) for _ in corpora]
    for record in read_records(lines, parsed):
        for (config, pre_tokenized), (streams, counts) in zip(corpora, results):
            start = time.perf_counter()
            reason = filter_reason(record, config)
            if reason:
                counts.dropped[reason] += 1
            else:
                counts.kept += 1
                if record.pre_tokenized or pre_tokenized:
                    stream = tokenize(PostRecord(record.post_id, record.text, record.country,
                                                 record.lang, pre_tokenized=True), inventory)
                else:
                    stream = tokenize(PostRecord(record.post_id, normalize_text(record.text),
                                                 record.country, record.lang), inventory)
                if stream.tokens:
                    streams.append(stream)
                else:
                    counts.empty_streams += 1
            counts.seconds += time.perf_counter() - start
    for streams, counts in results:
        counts.read, counts.parse_errors = parsed.read, parsed.parse_errors
        counts.streams = len(streams)
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
    """Ingest the input file of one corpus."""
    with open(handle.input_path, encoding="utf-8") as f:
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


def read_lines(path, start: int, end: int) -> list[str]:
    """The lines of bytes [start, end) of a UTF-8 file, split as text-mode
    reading splits them (universal newlines), without their line ends."""
    with open(path, "rb") as f:
        f.seek(start)
        text = f.read(end - start).decode("utf-8")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def ingest_range(
    path, start: int, end: int, corpora: Sequence[tuple[FilterConfig, bool]],
    inventory: EmojiInventory,
) -> tuple[list[tuple[TypeStreams, IngestCounts]], int]:
    """`ingest_lines` on bytes [start, end) of `path`: each corpus's posts
    as type ids and its counts, and the number of lines in the range."""
    lines = read_lines(path, start, end)
    return [(TypeStreams.of(streams), counts)
            for streams, counts in ingest_lines(lines, corpora, inventory)], len(lines)


# --- stream files -----------------------------------------------------------

@dataclass(frozen=True)
class TypeStreams:
    """A corpus's posts as type ids: its type table (each distinct token,
    in the order first seen), the int32 type ids of all posts back to
    back, and the int32 length of each post."""

    types: tuple[str, ...]
    ids: np.ndarray
    lengths: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        """How often each type occurs, in type-table order."""
        return np.bincount(self.ids, minlength=len(self.types))

    @classmethod
    def of(cls, streams: Iterable) -> TypeStreams:
        """Token streams (`TokenStream`s or token sequences) as type ids."""
        table: dict[str, int] = {}
        ids: list[int] = []
        lengths: list[int] = []
        for stream in streams:
            tokens = stream.tokens if hasattr(stream, "tokens") else stream
            ids.extend([table.setdefault(t, len(table)) for t in tokens])
            lengths.append(len(tokens))
        return cls(tuple(table), np.array(ids, dtype=np.int32),
                   np.array(lengths, dtype=np.int32))

    @classmethod
    def join(cls, parts: Iterable[TypeStreams]) -> TypeStreams:
        """The posts of `parts` in order, under one type table: the same
        as `of` gives for all their streams at once."""
        table: dict[str, int] = {}
        ids, lengths = [np.empty(0, np.int32)], [np.empty(0, np.int32)]
        for part in parts:
            remap = np.array([table.setdefault(t, len(table)) for t in part.types],
                             dtype=np.int32)
            ids.append(remap[part.ids])
            lengths.append(part.lengths)
        return cls(tuple(table), np.concatenate(ids), np.concatenate(lengths))


def save_streams(f, streams: TypeStreams) -> None:
    """Write `streams` into the binary file `f` in the `write_arrays`
    layout: a JSON line with the format tag, the `types` and their
    `counts`, then the type ids and the post lengths as int32 arrays."""
    meta = {"format": STREAM_FORMAT, "types": list(streams.types),
            "counts": streams.counts.tolist()}
    write_arrays(f, meta, [streams.ids, streams.lengths])


def load_streams(path) -> TypeStreams:
    """What `save_streams` wrote to `path`; ValueError (or EOFError) if it
    is not a consistent stream file of this format."""
    meta, (ids, lengths) = read_arrays(path, STREAM_FORMAT, (np.int32, np.int32))
    streams = TypeStreams(tuple(meta["types"]), ids, lengths)
    if (ids.ndim != 1 or lengths.ndim != 1 or int(lengths.sum()) != len(ids)
            or not ((ids >= 0) & (ids < len(streams.types))).all()
            or streams.counts.tolist() != meta["counts"]):
        raise ValueError(f"{path}: type ids, post lengths and counts disagree")
    return streams


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
