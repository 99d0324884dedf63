"""Category lexicons in .dic layout, wildcard expansion, Ekman word lists.

The .dic layout is the standard one: a header between two '%' lines maps
numeric category ids to names, then body lines map a word (or stem wildcard
like `happ*`) to one or more ids.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from importlib import resources
from typing import Iterable, Mapping, Sequence

# every Ekman axis label starts with it, and no lexicon category name may:
# the tensor tells its category axes from its Ekman axes by this prefix
EKMAN_AXIS_PREFIX = "ekman:"


class LexiconFormatError(ValueError):
    """Raised for malformed .dic or Ekman files, with a line number."""


class SchemaError(ValueError):
    """Raised when no shared category schema can be built."""


def _validate_pattern(pattern: str, path: str, line_no: int) -> None:
    if not pattern:
        raise LexiconFormatError(f"{path}:{line_no}: empty word pattern")
    star = pattern.find("*")
    if star != -1 and (star != len(pattern) - 1 or len(pattern) == 1):
        raise LexiconFormatError(
            f"{path}:{line_no}: wildcard '*' only allowed in final position of a stem: {pattern!r}"
        )


def parse_lexicon(path) -> dict[str, tuple[str, ...]]:
    """Parse a .dic file into category name -> its word patterns, sorted; a
    pattern may sit in many categories.  Body lines referencing undeclared
    ids, and category names starting with `EKMAN_AXIS_PREFIX`, are fatal."""
    with open(path, encoding="utf-8-sig") as f:
        lines = f.read().splitlines()

    delims = [i for i, line in enumerate(lines) if line.strip() == "%"]
    if len(delims) < 2:
        raise LexiconFormatError(f"{path}: header must be enclosed by two '%' lines")
    head_start, head_end = delims[0], delims[1]

    id_to_name: dict[int, str] = {}
    names_seen: set[str] = set()
    for line_no in range(head_start + 1, head_end):
        line = lines[line_no].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 2 or not parts[0].isdigit():
            raise LexiconFormatError(f"{path}:{line_no + 1}: expected 'id name' in header")
        cid, name = int(parts[0]), parts[1]
        if name.startswith(EKMAN_AXIS_PREFIX):
            raise LexiconFormatError(f"{path}:{line_no + 1}: category name {name!r} starts "
                                     f"with {EKMAN_AXIS_PREFIX!r}, reserved for Ekman axes")
        if name in names_seen:
            raise LexiconFormatError(f"{path}:{line_no + 1}: duplicate category name {name!r}")
        if cid in id_to_name:
            raise LexiconFormatError(f"{path}:{line_no + 1}: duplicate category id {cid}")
        names_seen.add(name)
        id_to_name[cid] = name

    patterns: dict[str, set[str]] = {name: set() for name in id_to_name.values()}
    for line_no in range(head_end + 1, len(lines)):
        line = lines[line_no].strip()
        if not line or line.startswith("//"):
            continue
        parts = line.split()
        word, ids = parts[0], parts[1:]
        _validate_pattern(word, str(path), line_no + 1)
        if not ids:
            raise LexiconFormatError(f"{path}:{line_no + 1}: word {word!r} has no category ids")
        for raw in ids:
            if not raw.isdigit() or int(raw) not in id_to_name:
                raise LexiconFormatError(
                    f"{path}:{line_no + 1}: undeclared category id {raw!r} for word {word!r}"
                )
            patterns[id_to_name[int(raw)]].add(word)  # duplicate lines merge by union

    return {name: tuple(sorted(pats)) for name, pats in patterns.items()}


def expand_patterns(lexicon: Mapping[str, Sequence[str]],
                    vocabulary: Iterable[str]) -> dict[str, frozenset[str]]:
    """Each category's in-vocabulary tokens (none, for a category no token
    matches: `build_tensor` decides what an empty category means); the stem
    `happ*` matches the prefix 'happ'."""
    vocab_sorted = sorted(set(vocabulary))
    vocab_set = set(vocab_sorted)

    def prefix_matches(prefix: str) -> list[str]:
        lo = bisect_left(vocab_sorted, prefix)
        out = []
        for i in range(lo, len(vocab_sorted)):
            if not vocab_sorted[i].startswith(prefix):
                break
            out.append(vocab_sorted[i])
        return out

    tokens: dict[str, frozenset[str]] = {}
    for name in sorted(lexicon):
        found: set[str] = set()
        for pat in lexicon[name]:
            if pat.endswith("*"):
                found.update(prefix_matches(pat[:-1]))
            elif pat in vocab_set:
                found.add(pat)
        tokens[name] = frozenset(found)
    return tokens


def shared_schema(lexicons: Sequence[Mapping[str, Sequence[str]]]) -> tuple[str, ...]:
    """Lexicographically ordered intersection of the lexicons' category
    names (one lexicon's names, sorted, when there is one).

    This order is what downstream orthonormalization consumes, so it must
    be deterministic.
    """
    common = set.intersection(*(set(lex) for lex in lexicons))
    if not common:
        raise SchemaError("lexicons share no category names")
    return tuple(sorted(common))


# --- Ekman emotion words --------------------------------------------------

def load_ekman(path) -> dict[str, list[tuple[str, str]]]:
    """Load `{"en": {"anger": ["anger", "angry"], ...}, ...}` as language ->
    its (axis label, word) pairs: emotions sorted, each noun then adjective."""
    with open(path, encoding="utf-8-sig") as f:
        try:
            data = json.load(f)
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
            raise LexiconFormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise LexiconFormatError(f"{path}: expected a JSON object keyed by language")
    axes = {}
    for lang, emotions in data.items():
        if not (isinstance(emotions, dict) and all(
                isinstance(forms, list) and len(forms) == 2
                and all(isinstance(word, str) and word for word in forms)
                for forms in emotions.values())):
            raise LexiconFormatError(
                f"{path}: {lang!r} must map each emotion to a [noun, adjective] list")
        axes[lang] = [(f"{EKMAN_AXIS_PREFIX}{emotion}:{form}", word)
                      for emotion in sorted(emotions)
                      for form, word in zip(("noun", "adjective"), emotions[emotion])]
    return axes


def default_ekman_path():
    return resources.files("crossmoji.data") / "ekman_words.json"
