"""Seeded input generators for the crossmoji benchmark workloads.

Every generator writes posts, lexicons and a run config into a directory
and returns a `Workload` describing what the benchmark must check.  The
same seed always yields byte-identical files.

- `planted`: the two-culture planted co-occurrence recipe (a ring of six
  verbal categories; emoji E1 tied to catA in both cultures, E2 tied to
  catA in the West but to catD in the East).
- `feed`: one global JSON-lines feed read by four country corpora, with
  noise records (other countries and languages, reposts, malformed lines)
  and a flat-Zipf vocabulary of thousands of types per corpus.  The
  generator tallies, from what it wrote, the exact ingest counts every
  corpus must report.
- `rerun`: the `feed` recipe with fewer records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

E1 = "\U0001F4B8"  # tied to catA in both cultures
E2 = "\U0001F4B0"  # tied to catA in the West, catD in the East

CATEGORY_WORDS = {
    "catA": ["moneyish", "cashish", "payish", "bankish"],
    "catB": ["famish", "momish", "dadish", "kinish"],
    "catC": ["eatish", "foodish", "yumish", "dineish"],
    "catD": ["playish", "gameish", "funish", "toyish"],
    "catE": ["workish", "deskish", "taskish", "jobish"],
    "catF": ["moveish", "runish", "walkish", "rideish"],
}
CATS = sorted(CATEGORY_WORDS)
FILLERS = [f"filler{i}" for i in range(12)]
CATEGORY_EMOJI = {
    "catB": ["\U0001F46A", "\U0001F475"],
    "catC": ["\U0001F35C", "\U0001F35A"],
    "catD": ["\U0001F3AE", "\U0001F3B2"],
    "catE": ["\U0001F4BC", "\U0001F4CA"],
    "catF": ["\U0001F698", "\U0001F6B2"],
}
# first-release emoji that carry no planted meaning in the feed
FREE_EMOJI = [chr(c) for c in (
    0x1F602, 0x2764, 0x1F60D, 0x1F60A, 0x1F62D, 0x1F44D, 0x1F64F, 0x1F618,
    0x1F601, 0x1F389, 0x1F525, 0x2728, 0x1F495, 0x1F612, 0x1F629, 0x1F44C,
    0x1F614, 0x1F609, 0x1F60E, 0x1F4AF, 0x1F3B6, 0x1F60C, 0x1F633, 0x1F631,
    0x1F621, 0x1F4AA, 0x1F440, 0x1F338,
)]


@dataclass
class Workload:
    """Generated inputs plus what the benchmark checks the outputs against."""

    config: Path
    # corpus id -> counts.json fields the ingest stage must report exactly
    expected_counts: dict = field(default_factory=dict)


def write_lexicon(path: Path, words_by_category: dict) -> None:
    lines = ["%"]
    lines += [f"{i}\t{cat}" for i, cat in enumerate(CATS, start=1)]
    lines.append("%")
    for i, cat in enumerate(CATS, start=1):
        lines += [f"{word}\t{i}" for word in words_by_category[cat]]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_config(directory: Path, config: dict) -> Path:
    path = directory / "config.json"
    path.write_text(json.dumps(config, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    return path


def set_top_k(config_path: Path, top_k: int) -> None:
    """The `rerun` edit: change only `top_k`, which only analysis reads."""
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["top_k"] = top_k
    _write_config(config_path.parent, config)


# --- planted ------------------------------------------------------------------

def _planted_posts(rng, words_by_category, fillers, e2_category, patterns):
    """One culture's posts: ring-mixed and pure verbal posts, emoji posts
    tied to one category each, and filler posts, shuffled."""
    def pick(words, n):
        return [words[i] for i in rng.integers(0, len(words), size=n)]

    def plain(words):
        return " ".join(pick(words, int(rng.integers(4, 7))))

    def with_emoji(words, emoji):
        tokens = pick(words, 3)
        tokens.insert(int(rng.integers(0, 4)), emoji)
        return " ".join(tokens)

    posts = []
    for _ in range(patterns):
        for i, cat in enumerate(CATS):
            ring_next = CATS[(i + 1) % len(CATS)]
            posts.append(plain(words_by_category[cat] + words_by_category[ring_next]))
            posts.append(plain(words_by_category[cat]))
        for cat, emoji in [("catA", E1), (e2_category, E2)] + [
                (c, e) for c, pair in CATEGORY_EMOJI.items() for e in pair]:
            posts.append(with_emoji(words_by_category[cat], emoji))
        posts.append(plain(fillers))
    order = rng.permutation(len(posts))
    return [posts[i] for i in order]


def write_planted(directory: Path, seed: int) -> Workload:
    """Criterion-6 scale two-culture setup: 120 posts per pattern, 3 runs,
    dim 50, 3 epochs."""
    directory.mkdir(parents=True, exist_ok=True)
    write_lexicon(directory / "demo.dic", CATEGORY_WORDS)
    for k, (name, country, e2_category) in enumerate(
            (("west", "US", "catA"), ("east", "JP", "catD"))):
        rng = np.random.default_rng([seed, k])
        posts = _planted_posts(rng, CATEGORY_WORDS, FILLERS, e2_category, patterns=120)
        with open(directory / f"{name}.jsonl", "w", encoding="utf-8") as f:
            for i, text in enumerate(posts):
                f.write(json.dumps({"post_id": f"{country}-{i}", "text": text,
                                    "country": country, "lang": "en"},
                                   ensure_ascii=False) + "\n")
    config = {
        "seed": seed, "runs": 3, "shared_threshold": 3, "top_k": 15, "out_dir": "out",
        "training": {"dim": 50, "epochs": 3, "lr0": 0.025, "lr_min": 1e-4,
                     "window": 3, "negatives": 4, "subsample": 0.0, "min_count": 3},
        "corpora": [
            {"id": "US", "culture": "West", "input": "west.jsonl",
             "lang": "en", "country": "US", "lexicon": "demo.dic"},
            {"id": "JP", "culture": "East", "input": "east.jsonl",
             "lang": "en", "country": "JP", "lexicon": "demo.dic"},
        ],
    }
    return Workload(config=_write_config(directory, config))


# --- feed ---------------------------------------------------------------------

# (corpus id, culture, language, country, pre_tokenized)
FEED_CORPORA = (
    ("US", "West", "en", "US", False),
    ("GB", "West", "en", "GB", False),
    ("JP", "East", "ja", "JP", True),
    ("CN", "East", "zh", "CN", True),
)
# records none of the corpora keep: (country, language) pairs
NOISE_SOURCES = (("FR", "fr"), ("DE", "de"), ("BR", "pt-BR"), ("KR", "ko"),
                 ("US", "es"), ("GB", "fr"), ("JP", "en"), ("CN", "en-GB"), ("IN", "en"))
LANG_TAGS = {"en": ("en", "en-US", "en-GB"), "ja": ("ja", "ja-JP"), "zh": ("zh", "zh-CN", "zh-Hans")}
MALFORMED = (
    '{"post_id": "bad", "text": "cut off',
    '[1, 2, 3]',
    '{"post_id": "bad", "text": "no language", "country": "US"}',
    '{"post_id": "bad", "text": "   ", "country": "US", "lang": "en"}',
    'not json at all',
    '{"post_id": "bad", "text": "no country", "country": "", "lang": "en"}',
)
EMOTICONS = (":)", ":-(", ";D", "<3", ":P", "^_^", "T_T", ":/")
TYPES_PER_LANGUAGE = 2500
ZIPF_EXPONENT = 0.5  # flat: over a thousand types reach min_count per corpus


def _word_types(n: int, units, salt: int, reserved: set) -> list[str]:
    """`n` distinct words of two or three units, none of them in `reserved`."""
    rng = np.random.default_rng(salt)
    out, seen = [], set(reserved)
    while len(out) < n:
        word = "".join(units[i] for i in rng.integers(0, len(units),
                                                      size=int(rng.integers(2, 4))))
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


SYLLABLES = [c + v for c in "bcdfghjklmnprstvwz" for v in "aeiou"]
# no character here starts an inventory emoji
KANA = "".join(map(chr, range(0x3041, 0x3097))) + "".join(map(chr, range(0x30A1, 0x30FB)))
HANZI = "".join(map(chr, range(0x4E00, 0x4E00 + 3000)))


class _Language:
    """Word types, lexicon words and Zipf sampling for one language."""

    def __init__(self, code: str):
        self.code = code
        if code == "en":
            self.categories = CATEGORY_WORDS
            self.fillers = FILLERS
            reserved = {w for ws in CATEGORY_WORDS.values() for w in ws}
            self.types = _word_types(TYPES_PER_LANGUAGE, SYLLABLES, 101, reserved)
            self.pre_tokenized = False
        else:
            alphabet, salt = (KANA, 7) if code == "ja" else (HANZI, 11)
            words = _word_types(4 * len(CATS) + len(FILLERS), alphabet, salt, set())
            self.categories = {cat: words[4 * i:4 * i + 4] for i, cat in enumerate(CATS)}
            self.fillers = words[4 * len(CATS):]
            self.types = _word_types(TYPES_PER_LANGUAGE, alphabet, salt + 1, set(words))
            self.pre_tokenized = True
        weights = 1.0 / np.arange(3, len(self.types) + 3) ** ZIPF_EXPONENT
        self.cdf = np.cumsum(weights / weights.sum())
        emoji_weights = 1.0 / np.arange(1, len(FREE_EMOJI) + 1)
        self.emoji_cdf = np.cumsum(emoji_weights / emoji_weights.sum())

    def zipf_post(self, rng) -> str:
        n = int(rng.integers(8, 21))
        words = [self.types[i] for i in np.searchsorted(self.cdf, rng.random(n))]
        if rng.random() < 0.6:  # glue one or two emoji onto a word
            emoji = "".join(FREE_EMOJI[i] for i in np.searchsorted(
                self.emoji_cdf, rng.random(int(rng.integers(1, 3)))))
            words[int(rng.integers(0, n))] += emoji
        if rng.random() < 0.15:
            words.insert(int(rng.integers(1, n)), f"https://t.co/x{int(rng.integers(1e6))}")
        if rng.random() < 0.2:
            words.insert(int(rng.integers(1, n)), f"@user{int(rng.integers(500))}")
        if not self.pre_tokenized and rng.random() < 0.1:
            words.append(EMOTICONS[int(rng.integers(len(EMOTICONS)))])
        return " ".join(words)


def _primary(lang: str) -> str:
    return lang.split("-")[0].lower()


def _expected_fate(corpus_lang: str, corpus_country: str,
                   record_country: str, record_lang: str, repost: bool) -> str:
    """The filter chain's documented order: language, country, repost."""
    if _primary(record_lang) != corpus_lang:
        return "dropped_lang"
    if record_country.upper() != corpus_country:
        return "dropped_country"
    if repost:
        return "dropped_retweet"
    return "posts_after_filter"


def write_feed(directory: Path, seed: int, records: int = 7000) -> Workload:
    """A global feed file, four corpora filtering it, lexicons and config."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 2])
    languages = {code: _Language(code) for code in ("en", "ja", "zh")}
    planted_rows = {}
    for code, lang in languages.items():
        e2_category = "catA" if code == "en" else "catD"
        planted_rows[code] = _planted_posts(
            np.random.default_rng([seed, 3, len(code), ord(code[0])]),
            lang.categories, lang.fillers, e2_category, patterns=records // 40 + 1)

    # fixed shares, shuffled: every seed gives each corpus the same post count
    n_bad, n_each = records // 100, records * 87 // 400
    sources = ([None] * n_bad
               + [(country, code) for _, _, code, country, _ in FEED_CORPORA] * n_each)
    sources += [NOISE_SOURCES[j % len(NOISE_SOURCES)] for j in range(records - len(sources))]
    sources = [sources[j] for j in rng.permutation(records)]
    reposts = rng.permutation(records) < records // 10

    tally = {cid: {"posts_read": records, "parse_errors": n_bad, "dropped_lang": 0,
                   "dropped_country": 0, "dropped_retweet": 0, "posts_after_filter": 0}
             for cid, *_ in FEED_CORPORA}
    posts_of = {code: 0 for code in languages}
    with open(directory / "feed.jsonl", "w", encoding="utf-8") as f:
        for i, (source, repost) in enumerate(zip(sources, reposts)):
            if source is None:
                f.write(MALFORMED[i % len(MALFORMED)] + "\n")
                continue
            country, code = source
            lang = languages.get(_primary(code), languages["en"])
            tags = LANG_TAGS.get(code, (code,))
            record_lang = tags[int(rng.integers(len(tags)))]
            record_country = country.lower() if rng.random() < 0.05 else country
            posts_of[lang.code] += 1
            if posts_of[lang.code] % 5 == 0:  # a fifth carry the planted contrast
                text = planted_rows[lang.code][posts_of[lang.code] // 5]
            else:
                text = lang.zipf_post(rng)
            if repost:
                marker = f"RT @user{int(rng.integers(500))}: "
                if lang.pre_tokenized and rng.random() < 0.5:
                    marker = f"@user{int(rng.integers(500))}// "
                text = marker + text
            f.write(json.dumps({"post_id": str(i), "text": text, "country": record_country,
                                "lang": record_lang}, ensure_ascii=False) + "\n")
            for cid, _, corpus_lang, corpus_country, _ in FEED_CORPORA:
                tally[cid][_expected_fate(corpus_lang, corpus_country,
                                          record_country, record_lang, bool(repost))] += 1

    for code, lang in languages.items():
        write_lexicon(directory / f"lexicon_{code}.dic", lang.categories)
    config = {
        "seed": seed, "runs": 2, "shared_threshold": 20, "top_k": 10, "out_dir": "out",
        "training": {"dim": 100, "epochs": 1, "subsample": 1e-4, "min_count": 5},
        "corpora": [
            {"id": cid, "culture": culture, "input": "feed.jsonl", "lang": code,
             "country": country, "lexicon": f"lexicon_{code}.dic", "pre_tokenized": pre}
            for cid, culture, code, country, pre in FEED_CORPORA
        ],
    }
    return Workload(config=_write_config(directory, config), expected_counts=tally)


def write_rerun(directory: Path, seed: int) -> Workload:
    """The `rerun` input: a `feed` of 4,000 records."""
    return write_feed(directory, seed, records=4000)
