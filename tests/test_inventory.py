"""Inventory loading, emoji splitting, frequency counting, shared set."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossmoji.corpus import TokenStream
from crossmoji.fileio import TypeStreams
from crossmoji.inventory import (
    EmptyCorpusError,
    EmojiInventory,
    InventoryFormatError,
    count_frequencies,
    load_default_inventory,
    load_inventory,
    shared_set,
)

from util import bom_copy, frequency_table, scan_count_oracle


@pytest.fixture(scope="module")
def full_inventory():
    return load_default_inventory()


def write_inventory(tmp_path, data_lines, cat_lines):
    data = tmp_path / "emoji.txt"
    cats = tmp_path / "cats.tsv"
    data.write_text("\n".join(data_lines) + "\n", encoding="utf-8")
    cats.write_text("\n".join(cat_lines) + "\n", encoding="utf-8")
    return data, cats


# --- loading -----------------------------------------------------------------

def test_single_line_yields_one_entry(tmp_path):
    data, cats = write_inventory(tmp_path, ["1F600 ; emoji"], ["1F600\tSmileys"])
    inv = load_inventory(data, cats)
    assert inv.entries == frozenset(["\U0001F600"])
    assert inv.category("\U0001F600") == "Smileys"


def test_range_line_expands(tmp_path):
    data, cats = write_inventory(tmp_path, ["2194..2199 ; emoji"],
                                 [f"{cp:04X}\tSymbols" for cp in range(0x2194, 0x219A)])
    inv = load_inventory(data, cats)
    assert len(inv) == 6
    assert "↘" in inv.entries


def test_full_default_file_has_1281_entries(full_inventory):
    assert len(full_inventory) == 1281


def test_no_skin_tone_codepoints_in_default(full_inventory):
    for entry in full_inventory.entries:
        assert not any(0x1F3FB <= ord(c) <= 0x1F3FF for c in entry)


def test_every_default_entry_categorized(full_inventory):
    labels = set(full_inventory.category_of.values())
    assert "Uncategorized" not in labels
    assert labels == {"Smileys", "People", "Food & Drink", "Travel & Places",
                      "Activities", "Objects", "Symbols", "Nature", "Flags"}


def test_unparseable_line_is_fatal_with_line_number(tmp_path):
    data, cats = write_inventory(tmp_path, ["1F600 ; emoji", "ZZZZ ; emoji"],
                                 ["1F600\tSmileys"])
    with pytest.raises(InventoryFormatError, match=":2"):
        load_inventory(data, cats)


def test_missing_category_warns_and_uncategorizes(tmp_path):
    data, cats = write_inventory(tmp_path, ["1F600 ; emoji", "1F601 ; emoji"],
                                 ["1F600\tSmileys"])
    inv = load_inventory(data, cats)
    assert inv.category("\U0001F601") == "Uncategorized"
    assert any("missing" in w for w in inv.warnings)


def test_skin_tone_entries_dropped_with_warning(tmp_path):
    data, cats = write_inventory(tmp_path, ["1F600 ; emoji", "1F3FB ; emoji"],
                                 ["1F600\tSmileys"])
    inv = load_inventory(data, cats)
    assert len(inv) == 1
    assert any("skin-tone" in w for w in inv.warnings)


# --- split_text: canonical emoji ------------------------------------------------

def split(inventory, text):
    return list(inventory.split_text(text))


def test_variation_selector_stripped(full_inventory):
    assert split(full_inventory, "❤️") == [("❤", True)]


def test_plain_emoji_identity(full_inventory):
    assert split(full_inventory, "\U0001F600") == [("\U0001F600", True)]


def test_plain_letter_flagged_non_emoji(full_inventory):
    assert split(full_inventory, "A") == [("A", False)]


def test_normalize_emoji_idempotent(full_inventory):
    # splitting a piece again gives that piece back
    for seq in ["❤️", "\U0001F600", "A", "A️"]:
        once = split(full_inventory, seq)
        assert [split(full_inventory, piece) for piece, _ in once] == [[p] for p in once]


def test_flag_pair_and_keycap_match(full_inventory):
    assert split(full_inventory, "\U0001F1FA\U0001F1F8") == [("\U0001F1FA\U0001F1F8", True)]
    assert split(full_inventory, "#⃣") == [("#⃣", True)]
    assert split(full_inventory, "#️⃣") == [("#⃣", True)]


# --- split_text -------------------------------------------------------------------

def test_split_text_multiset_matches_scan_oracle(full_inventory):
    texts = [
        "good\U0001F600morning",
        "I❤️NY",
        "flags \U0001F1FA\U0001F1F8\U0001F1EF\U0001F1F5 back to back",
        "keycap #️⃣ then 1⃣ done",
        "\U0001F600\U0001F600\U0001F600",
        "no emoji here at all",
        "mixed \U0001F35C noodles and \U0001F602\U0001F602 tears",
    ]
    for text in texts:
        got = Counter(piece for piece, is_emoji in full_inventory.split_text(text) if is_emoji)
        assert got == scan_count_oracle(text, full_inventory), text


_INV = load_default_inventory()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(
    ["a", "b", " ", "\U0001F600", "\U0001F602", "❤", "️",
     "\U0001F1FA", "\U0001F1F8", "#", "⃣", "\U0001F35C"]),
    max_size=25))
def test_split_text_oracle_property(chars):
    text = "".join(chars)
    got = Counter(p for p, e in _INV.split_text(text) if e)
    assert got == scan_count_oracle(text, _INV)


def test_split_text_reassembles_vs_free_text(full_inventory):
    text = "hello \U0001F600 world"  # no variation selectors involved
    pieces = list(full_inventory.split_text(text))
    assert "".join(p for p, _ in pieces) == text


def test_zwj_sequence_decomposes_to_singletons(full_inventory):
    # family ZWJ sequence is not in the 1.0-era inventory: decompose
    text = "\U0001F468‍\U0001F469"
    got = [p for p, e in full_inventory.split_text(text) if e]
    assert got == ["\U0001F468", "\U0001F469"]


# --- counting -----------------------------------------------------------------

def test_direct_count_example(full_inventory):
    streams = {"X": [("\U0001F604", "\U0001F604", "\U0001F698")]}
    table = count_frequencies(streams, full_inventory)
    assert table.count("X", "\U0001F604") == 2
    assert table.count("X", "\U0001F698") == 1
    assert table.total("X") == 3


def test_empty_corpus_flagged(full_inventory):
    table = count_frequencies({"X": [("plain", "words")]}, full_inventory)
    assert table.corpora == ("X",) and table.total("X") == 0
    with pytest.raises(EmptyCorpusError):
        table.normalized("X")


def test_planted_fixture_matches_scan_oracle(full_inventory):
    rng_tokens = ["\U0001F600", "\U0001F602", "word", "\U0001F35C", "x", "❤"]
    streams = []
    expected = Counter()
    for i in range(100):
        toks = [rng_tokens[(i * 7 + j) % len(rng_tokens)] for j in range(i % 9)]
        for t in toks:
            if t in full_inventory.entries:
                expected[t] += 1
        streams.append(tuple(toks))
    table = count_frequencies({"F": streams}, full_inventory)
    assert table.counts["F"] == expected


def test_counts_from_type_tables_equal_token_streams_in_key_order(full_inventory):
    # project counts each corpus from its stream file's type table: the same
    # table as from its token streams, each emoji in the order first seen
    posts = {"A": [("word", "\U0001F602", "❤"), ("\U0001F600", "\U0001F602"), ("x",)],
             "B": [("\U0001F35C",), ("❤", "word", "\U0001F35C", "\U0001F600")]}
    want = count_frequencies(
        {c: [TokenStream(str(i), p) for i, p in enumerate(ps)] for c, ps in posts.items()},
        full_inventory)
    assert {c: list(n.items()) for c, n in want.counts.items()} == {
        "A": [("\U0001F602", 2), ("❤", 1), ("\U0001F600", 1)],
        "B": [("\U0001F35C", 2), ("❤", 1), ("\U0001F600", 1)]}
    for streams in ({c: TypeStreams.of(ps) for c, ps in posts.items()}, posts):
        got = count_frequencies(streams, full_inventory)
        assert list(got.counts) == ["A", "B"]
        assert ({c: list(n.items()) for c, n in got.counts.items()}
                == {c: list(n.items()) for c, n in want.counts.items()})


def test_normalized_sums_to_one(full_inventory):
    streams = {"X": [("\U0001F600",) * 3 + ("\U0001F602",) * 7]}
    table = count_frequencies(streams, full_inventory)
    assert sum(table.normalized("X").values()) == pytest.approx(1.0, abs=1e-9)


def test_category_aggregation_sums_to_total(full_inventory):
    streams = {"X": [("\U0001F600", "\U0001F35C", "\U0001F698", "\U0001F600")]}
    table = count_frequencies(streams, full_inventory)
    assert sum(table.by_category("X").values()) == table.total("X")


# --- shared set --------------------------------------------------------------------

def test_shared_set_threshold_and_presence(full_inventory):
    e1, e2, e3 = "\U0001F604", "\U0001F63A", "\U0001F698"
    table = frequency_table({
        "A": {e1: 800, e2: 500, e3: 5000},
        "B": {e1: 700, e2: 400},
    }, full_inventory)
    got = shared_set(table, 1000)
    assert e1 in got.emoji          # everywhere, total 1500
    assert e2 not in got.emoji      # total 900 < threshold
    assert e3 not in got.emoji      # absent from corpus B
    assert got.emoji == (e1,)


def test_shared_set_ordering_desc_total_then_codepoint(full_inventory):
    e1, e2, e3 = "\U0001F600", "\U0001F601", "\U0001F602"
    table = frequency_table({
        "A": {e1: 5, e2: 9, e3: 5},
        "B": {e1: 5, e2: 3, e3: 5},
    }, full_inventory)
    got = shared_set(table, 1)
    # e2 leads on total 12; e1 and e3 tie at 10 and order by codepoint
    assert got.emoji == (e2, e1, e3)


def test_shared_set_skips_an_explicit_zero_count(full_inventory):
    # y has a total of 3 but a count of 0 in A, so it is not in every corpus
    x, y = "\U0001F600", "\U0001F601"
    table = frequency_table({"A": {x: 2, y: 0}, "B": {x: 1, y: 3}}, full_inventory)
    assert shared_set(table, 1).emoji == (x,)


def test_shared_set_monotone_in_threshold(full_inventory):
    e = ["\U0001F600", "\U0001F601", "\U0001F602", "\U0001F603"]
    table = frequency_table({
        "A": {e[0]: 10, e[1]: 300, e[2]: 2, e[3]: 800},
        "B": {e[0]: 10, e[1]: 200, e[2]: 1, e[3]: 900},
    }, full_inventory)
    previous = None
    for threshold in (1, 3, 20, 500, 1000, 5000):
        members = set(shared_set(table, threshold).emoji)
        if previous is not None:
            assert members <= previous
        previous = members


def test_empty_codepoint_field_fatal(tmp_path):
    data, cats = write_inventory(tmp_path, ["; emoji"], ["1F600\tSmileys"])
    with pytest.raises(InventoryFormatError, match="empty codepoint"):
        load_inventory(data, cats)


def test_descending_range_fatal(tmp_path):
    data, cats = write_inventory(tmp_path, ["2199..2194 ; emoji"], ["2194\tSymbols"])
    with pytest.raises(InventoryFormatError, match="descending"):
        load_inventory(data, cats)


@pytest.mark.parametrize("marked", ["data", "categories"])
def test_byte_order_mark_is_not_a_format_error(tmp_path, marked):
    data, cats = write_inventory(tmp_path, ["1F600 ; emoji", "2194..2195 ; emoji"],
                                 ["1F600\tSmileys", "2194\tSymbols"])
    want = load_inventory(data, cats)
    assert want.entries == frozenset(["\U0001F600", "\u2194", "\u2195"])
    if marked == "data":
        assert load_inventory(bom_copy(data), cats) == want
    else:
        assert load_inventory(data, bom_copy(cats)) == want


def test_bad_category_map_line_fatal(tmp_path):
    data = tmp_path / "emoji.txt"
    data.write_text("1F600 ; emoji\n")
    cats = tmp_path / "cats.tsv"
    cats.write_text("1F600 Smileys\n")  # space, not tab
    with pytest.raises(InventoryFormatError, match="tab"):
        load_inventory(data, cats)
