"""Synthetic corpora and configs for pipeline-level tests.

The two-culture fixture plants controlled word/emoji co-occurrences.
Verbal categories form a ring: posts mixing each category with its ring
neighbor appear identically in both cultures, so every category (and any
emoji tied to it) acquires a structured, culture-consistent similarity
profile.  Each emoji co-occurs exclusively with one category's words;
E2's category is catA in the West but the ring-opposite catD in the East,
while E1 sticks to catA everywhere.
"""

import json
from collections import Counter
from pathlib import Path

import numpy as np

from crossmoji.inventory import FrequencyTable


def scan_count_oracle(text, inventory):
    """Scan-only longest-match emoji counter, independent of split_text."""
    entries = inventory.entries
    max_len = max(len(e) for e in entries)
    stripped = [c for c in text if ord(c) not in (0xFE0E, 0xFE0F)]
    found = Counter()
    i = 0
    while i < len(stripped):
        best = None
        for k in range(max_len, 0, -1):
            cand = "".join(stripped[i : i + k])
            if cand in entries:
                best = cand
                break
        if best:
            found[best] += 1
            i += len(best)
        else:
            i += 1
    return found


def frequency_table(counts_by_corpus, inventory) -> FrequencyTable:
    """The `FrequencyTable` of `{corpus: {emoji: count}}`, counts as given."""
    return FrequencyTable(inventory, {c: Counter(n) for c, n in counts_by_corpus.items()})


def bom_copy(path: Path) -> Path:
    """A copy of the file at `path`, beside it, that starts with a UTF-8
    byte-order mark."""
    copy = path.with_name("bom-" + path.name)
    copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return copy


# six planted categories, each with four words, arranged in a ring
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

# emoji per category (from the shipped first-release inventory)
E1 = "\U0001F4B8"   # tied to catA in BOTH cultures
E2 = "\U0001F4B0"   # tied to catA in the West, catD in the East
CATEGORY_EMOJI = {
    "catB": ["\U0001F46A", "\U0001F475"],
    "catC": ["\U0001F35C", "\U0001F35A"],
    "catD": ["\U0001F3AE", "\U0001F3B2"],
    "catE": ["\U0001F4BC", "\U0001F4CA"],
    "catF": ["\U0001F698", "\U0001F6B2"],
}
ALL_EMOJI = [E1, E2] + [e for pair in CATEGORY_EMOJI.values() for e in pair]


def write_mixed_feed(path: Path, copies: int = 3) -> Path:
    """One JSON-lines file of US and JP posts (both `en`) that uses every
    line end text-mode reading knows ("\\n", "\\r\\n" and a bare "\\r"),
    with blank lines, malformed lines, a repost, other languages, a
    pre-tokenized post and no final line end.  A malformed line starts
    with a multi-byte UTF-8 character and one ends with one, so a cut
    after any "\\n" lands next to one."""
    def record(i, text, country="US", **extra):
        return json.dumps({"post_id": f"{country}-{i}", "text": text, "country": country,
                           "lang": extra.pop("lang", "en"), **extra}, ensure_ascii=False)

    chunks = []
    for i in range(copies):
        chunks += [
            record(i, "hello \U0001F604 world") + "\r\n",
            "\u00fcnot json at all\n",
            "\n",
            "   \r\n",
            record(i, "bare return \U0001F4B8") + "\r",
            record(i, "ramen \U0001F35C tonight", "JP") + "\n",
            record(i, "RT @x: copy") + "\n",
            "{broken \u2713\n",
            record(i, "bonjour \U0001F604", lang="fr") + "\n",
            record(i, "Tokyo NOW \U0001F35C", "JP", pre_tokenized=True) + "\r\n",
            record(i, "see http://a.b ok @sam :)") + "\n",
        ]
    chunks.append(record(copies, "last \U0001F35C\U0001F604", "JP"))
    path.write_bytes("".join(chunks).encode("utf-8"))
    return path


def write_demo_lexicon(path: Path) -> Path:
    lines = ["%"]
    for i, cat in enumerate(CATS, start=1):
        lines.append(f"{i}\t{cat}")
    lines.append("%")
    for i, cat in enumerate(CATS, start=1):
        for word in CATEGORY_WORDS[cat]:
            lines.append(f"{word}\t{i}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _emoji_post(rng, words, emoji):
    picked = list(rng.choice(words, size=3))
    spot = int(rng.integers(0, 4))
    picked.insert(spot, emoji)
    return " ".join(picked)


def _plain_post(rng, words):
    return " ".join(rng.choice(words, size=int(rng.integers(4, 7))))


def synthetic_culture_corpus(
    path: Path, country: str, seed: int, posts_per_pattern: int = 60,
    e2_category: str = "catA",
) -> Path:
    """Write a JSON-lines corpus with planted word/emoji co-occurrences."""
    rng = np.random.default_rng(seed)
    posts = []
    for _ in range(posts_per_pattern):
        # ring-mixed and pure verbal posts: identical structure in every culture
        for i, cat in enumerate(CATS):
            ring_next = CATS[(i + 1) % len(CATS)]
            posts.append(_plain_post(rng, CATEGORY_WORDS[cat] + CATEGORY_WORDS[ring_next]))
            posts.append(_plain_post(rng, CATEGORY_WORDS[cat]))
        # each emoji co-occurs exclusively with its category's words
        posts.append(_emoji_post(rng, CATEGORY_WORDS["catA"], E1))
        posts.append(_emoji_post(rng, CATEGORY_WORDS[e2_category], E2))
        for cat, emoji_pair in CATEGORY_EMOJI.items():
            for emoji in emoji_pair:
                posts.append(_emoji_post(rng, CATEGORY_WORDS[cat], emoji))
        posts.append(_plain_post(rng, FILLERS))
    rng.shuffle(posts)
    with open(path, "w", encoding="utf-8") as f:
        for i, text in enumerate(posts):
            f.write(json.dumps(
                {"post_id": f"{country}-{i}", "text": text,
                 "country": country, "lang": "en"}, ensure_ascii=False) + "\n")
    return path


def _write_setup(
    tmp_path: Path, corpora, posts_per_pattern: int, runs: int, dim: int, epochs: int,
    seed: int, threshold: int, lr0: float,
) -> Path:
    """Lexicon, one synthetic corpus per (id, culture, input file, E2's
    category) of `corpora`, the k-th from seed `seed + k`, and a config."""
    write_demo_lexicon(tmp_path / "demo.dic")
    for k, (corpus_id, _, name, e2_category) in enumerate(corpora):
        synthetic_culture_corpus(tmp_path / name, corpus_id, seed=seed + k,
                                 posts_per_pattern=posts_per_pattern, e2_category=e2_category)
    config = {
        "seed": seed,
        "runs": runs,
        "shared_threshold": threshold,
        "top_k": 15,
        "out_dir": "out",
        "training": {
            "dim": dim, "epochs": epochs, "lr0": lr0, "lr_min": 1e-4,
            "window": 3, "negatives": 4, "subsample": 0.0, "min_count": 3,
        },
        "corpora": [
            {"id": corpus_id, "culture": culture, "input": name,
             "lang": "en", "country": corpus_id, "lexicon": "demo.dic"}
            for corpus_id, culture, name, _ in corpora
        ],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return cfg_path


def write_two_culture_setup(
    tmp_path: Path, posts_per_pattern: int = 60, runs: int = 2,
    dim: int = 24, epochs: int = 2, seed: int = 7, threshold: int = 3, lr0: float = 0.025,
) -> Path:
    """Corpora + lexicon + config for a full two-culture pipeline run."""
    corpora = [("US", "West", "west.jsonl", "catA"), ("JP", "East", "east.jsonl", "catD")]
    return _write_setup(tmp_path, corpora, posts_per_pattern, runs, dim, epochs, seed, threshold,
                        lr0)


def write_four_corpus_setup(
    tmp_path: Path, posts_per_pattern: int = 15, runs: int = 2,
    dim: int = 16, epochs: int = 2, seed: int = 7, threshold: int = 3, lr0: float = 0.1,
) -> Path:
    """Two corpora per culture (US and GB West, JP and CN East), so every
    pair bucket of the analytics (in-West, in-East, cross) has pairs; E2
    is tied to catA in the West and catD in the East.  At the default
    budget an `lr0` of 0.025 leaves every run at its initial loss."""
    corpora = [("US", "West", "us.jsonl", "catA"), ("GB", "West", "gb.jsonl", "catA"),
               ("JP", "East", "jp.jsonl", "catD"), ("CN", "East", "cn.jsonl", "catD")]
    return _write_setup(tmp_path, corpora, posts_per_pattern, runs, dim, epochs, seed, threshold,
                        lr0)


TOP_LEVEL_KEYS = ("runs", "top_k", "shared_threshold", "training", "corpora",
                  "top-k", "out_dir", "emoji_data", "seed")


def edit_config(path: Path, key, value) -> None:
    """Set one key of a config file: the keys of `TOP_LEVEL_KEYS` at top
    level, any other key in its `training` object.  With key None, replace
    the whole file by the text `value`."""
    if key is None:
        path.write_text(value, encoding="utf-8")
        return
    raw = json.loads(path.read_text(encoding="utf-8"))
    (raw if key in TOP_LEVEL_KEYS else raw["training"])[key] = value
    path.write_text(json.dumps(raw), encoding="utf-8")
