"""Emoji inventory: codepoint list loading, emoji splitting, frequency counting.

The inventory is the closed set of emoji the toolkit recognizes.  Entries are
stored as strings of codepoints in canonical form (variation selectors
stripped).  A separate category map assigns each entry one display category
label (Smileys, People, Food & Drink, ...).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Iterator, Mapping

from .fileio import TypeStreams

VARIATION_SELECTORS = {0xFE0E, 0xFE0F}
ZWJ = 0x200D
SKIN_TONE_RANGE = range(0x1F3FB, 0x1F3FF + 1)
UNCATEGORIZED = "Uncategorized"
_DROP_SELECTORS = dict.fromkeys(VARIATION_SELECTORS)  # a str.translate table


class InventoryFormatError(ValueError):
    """Raised when an inventory or category-map file cannot be parsed."""


class EmptyCorpusError(ValueError):
    """Raised when normalized frequencies are requested for an empty corpus."""


def default_data_path():
    return resources.files("crossmoji.data") / "emoji_v1_data.txt"


def default_category_path():
    return resources.files("crossmoji.data") / "emoji_categories.tsv"


def primary_language(lang: str) -> str:
    """The lowercase primary language subtag: "en" for "en-GB"."""
    return lang.lower().split("-")[0]


def strip_variation_selectors(sequence: str) -> str:
    return sequence.translate(_DROP_SELECTORS)


def codepoint_str(sequence: str) -> str:
    """Hex codepoint rendering used in CSV output, e.g. '1F600' or '1F1FA 1F1F8'."""
    return " ".join(f"{ord(ch):04X}" for ch in sequence)


@dataclass(frozen=True)
class EmojiInventory:
    """Immutable set of recognized emoji plus their category labels;
    `start_chars` holds the first character of every entry."""

    entries: frozenset[str]
    category_of: Mapping[str, str]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "_max_len", max((len(e) for e in self.entries), default=0))
        starts = frozenset(e[0] for e in self.entries)
        object.__setattr__(self, "start_chars", starts)

    def __len__(self) -> int:
        return len(self.entries)

    def category(self, sequence: str) -> str:
        return self.category_of.get(sequence, UNCATEGORIZED)

    def split_text(self, text: str) -> Iterator[tuple[str, bool]]:
        """Yield (piece, is_emoji) segments, longest-match at each position.

        Variation selectors adjacent to a match are consumed with it.  ZWJ
        joiners between inventory emoji are consumed silently, decomposing
        unlisted joined sequences into their singleton parts.
        """
        n = len(text)
        i = 0
        buf: list[str] = []
        while i < n:
            ch = text[i]
            if ch in self.start_chars:
                match_end, canonical = self._longest_match(text, i)
                if match_end > i:
                    if buf:
                        yield "".join(buf), False
                        buf.clear()
                    yield canonical, True
                    i = match_end
                    # consume a joiner that glues this emoji to the next one
                    if i < n and ord(text[i]) == ZWJ:
                        j = i + 1
                        if j < n and self._longest_match(text, j)[0] > j:
                            i = j
                    continue
            buf.append(ch)
            i += 1
        if buf:
            yield "".join(buf), False

    def _longest_match(self, text: str, start: int) -> tuple[int, str]:
        """Longest inventory match at `start`, tolerating variation selectors.

        Returns (end_index, canonical) or (start, "") when nothing matches.
        """
        canon: list[str] = []
        best_end, best = start, ""
        j = start
        n = len(text)
        while j < n and len(canon) < self._max_len:
            cp = ord(text[j])
            if cp in VARIATION_SELECTORS:
                j += 1
                if "".join(canon) == best:
                    best_end = j  # absorb trailing selector into the match
                continue
            canon.append(text[j])
            j += 1
            candidate = "".join(canon)
            if candidate in self.entries:
                best, best_end = candidate, j
        return best_end, best


def _parse_codepoints(spec: str, path: str, line_no: int) -> list[str]:
    """Expand a 'CODEPOINT(S)' field, supporting 'A..B' ranges."""
    spec = spec.strip()
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            lo_i, hi_i = int(lo, 16), int(hi, 16)
            if hi_i < lo_i:
                raise ValueError("descending range")
            return [chr(c) for c in range(lo_i, hi_i + 1)]
        return ["".join(chr(int(part, 16)) for part in spec.split())]
    except ValueError as exc:
        raise InventoryFormatError(f"{path}:{line_no}: bad codepoint field {spec!r}: {exc}") from exc


def load_inventory(emoji_data_file, category_map_file) -> EmojiInventory:
    """Load the emoji list and its category map.

    Unparseable lines are fatal (with line numbers).  Entries missing from
    the category map get the 'Uncategorized' label with a warning; entries
    containing skin-tone modifier codepoints are dropped with a warning.
    """
    entries: list[str] = []
    seen: set[str] = set()
    skin_dropped = 0
    with open(emoji_data_file, encoding="utf-8-sig") as f:
        for line_no, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split(";")
            if not fields[0].strip():
                raise InventoryFormatError(f"{emoji_data_file}:{line_no}: empty codepoint field")
            for seq in _parse_codepoints(fields[0], str(emoji_data_file), line_no):
                if any(ord(ch) in SKIN_TONE_RANGE for ch in seq):
                    skin_dropped += 1
                    continue
                canonical = strip_variation_selectors(seq)
                if canonical not in seen:
                    seen.add(canonical)
                    entries.append(canonical)

    category_of: dict[str, str] = {}
    with open(category_map_file, encoding="utf-8-sig") as f:
        for line_no, raw in enumerate(f, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[1].strip():
                raise InventoryFormatError(
                    f"{category_map_file}:{line_no}: expected 'CODEPOINT(S)<tab>Category'"
                )
            (seq,) = _parse_codepoints(parts[0], str(category_map_file), line_no)
            category_of[strip_variation_selectors(seq)] = parts[1].strip()

    warnings = []
    if skin_dropped:
        warnings.append(f"dropped {skin_dropped} skin-tone modifier entries")
    missing = [e for e in entries if e not in category_of]
    if missing:
        warnings.append(f"{len(missing)} entries missing from category map, set to {UNCATEGORIZED}")
    return EmojiInventory(
        entries=frozenset(entries),
        category_of={e: category_of.get(e, UNCATEGORIZED) for e in entries},
        warnings=tuple(warnings),
    )


def load_default_inventory() -> EmojiInventory:
    return load_inventory(default_data_path(), default_category_path())


@dataclass
class FrequencyTable:
    """Exact per-corpus counts of inventory emoji, and the display category
    of every emoji counted."""

    counts: dict[str, Counter]
    categories: dict[str, str]

    @property
    def corpora(self) -> tuple[str, ...]:
        return tuple(self.counts)

    def total(self, corpus_id: str) -> int:
        return sum(self.counts[corpus_id].values())

    def count(self, corpus_id: str, emoji: str) -> int:
        return self.counts[corpus_id].get(emoji, 0)

    def normalized(self, corpus_id: str) -> dict[str, float]:
        total = self.total(corpus_id)
        if total == 0:
            raise EmptyCorpusError(f"corpus {corpus_id!r} has no emoji; normalization undefined")
        return {e: n / total for e, n in sorted(self.counts[corpus_id].items())}

    def top(self, corpus_id: str, k: int) -> list[tuple[str, int]]:
        return sorted(self.counts[corpus_id].items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def by_category(self, corpus_id: str) -> dict[str, int]:
        """Aggregate counts by display category label."""
        agg: Counter = Counter()
        for emoji, n in self.counts[corpus_id].items():
            agg[self.categories[emoji]] += n
        return dict(sorted(agg.items()))


def count_frequencies(
    streams_by_corpus: Mapping[str, Iterable], inventory: EmojiInventory
) -> FrequencyTable:
    """Count inventory emoji tokens per corpus, from its token streams
    (`TokenStream`s, token sequences or a `TypeStreams`) through its type
    table: each emoji in the order the corpus first has it, and its category."""
    counts = {}
    for corpus_id, streams in streams_by_corpus.items():
        types = TypeStreams.of(streams)
        pairs = zip(types.types, types.counts.tolist())
        counts[corpus_id] = Counter({t: n for t, n in pairs if t in inventory.entries})
    return FrequencyTable(counts, {e: inventory.category(e) for c in counts.values() for e in c})


@dataclass(frozen=True)
class SharedEmojiSet:
    """Emoji present in every corpus with total count >= `shared_set`'s threshold."""

    emoji: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.emoji)


def shared_set(table: FrequencyTable, threshold: int) -> SharedEmojiSet:
    """Deterministic ordering: descending total count, ties by codepoint."""
    totals = sum(table.counts.values(), Counter())
    members = sorted((e for e, n in totals.items()
                      if n >= threshold and all(c[e] >= 1 for c in table.counts.values())),
                     key=lambda e: (-totals[e], e))
    return SharedEmojiSet(tuple(members))
