"""LIWC-style .dic parsing, wildcard expansion, shared schema, Ekman lists."""

import itertools
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossmoji.lexicon import (
    LexiconFormatError,
    SchemaError,
    default_ekman_path,
    expand_patterns,
    load_ekman,
    parse_lexicon,
    shared_schema,
)

from util import bom_copy


def write_dic(tmp_path, text, name="lex.dic"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


MINIMAL = "%\n1\tposemo\n%\nhappy\t1\n"


# --- parsing -----------------------------------------------------------------

def test_minimal_file(tmp_path):
    assert parse_lexicon(write_dic(tmp_path, MINIMAL)) == {"posemo": ("happy",)}


def test_many_to_many_stems(tmp_path):
    text = "%\n1\tposemo\n2\taffect\n%\nhapp*\t1\t2\n"
    lex = parse_lexicon(write_dic(tmp_path, text))
    assert "happ*" in lex["posemo"]
    assert "happ*" in lex["affect"]


def test_missing_closing_percent_fatal(tmp_path):
    with pytest.raises(LexiconFormatError, match="%"):
        parse_lexicon(write_dic(tmp_path, "%\n1\tposemo\nhappy\t1\n"))


def test_undeclared_id_fatal_with_line_number(tmp_path):
    text = "%\n1\tposemo\n%\nhappy\t1\nodd\t9\n"
    with pytest.raises(LexiconFormatError, match=":5"):
        parse_lexicon(write_dic(tmp_path, text))


def test_duplicate_word_lines_merge_by_union(tmp_path):
    text = "%\n1\tposemo\n2\tnegemo\n%\nmixed\t1\nmixed\t2\n"
    lex = parse_lexicon(write_dic(tmp_path, text))
    assert "mixed" in lex["posemo"]
    assert "mixed" in lex["negemo"]


def test_duplicate_category_names_rejected(tmp_path):
    with pytest.raises(LexiconFormatError, match="duplicate"):
        parse_lexicon(write_dic(tmp_path, "%\n1\tposemo\n2\tposemo\n%\nx\t1\n"))
    # one id given twice would silently lose the first category
    with pytest.raises(LexiconFormatError, match=":3: duplicate category id 1"):
        parse_lexicon(write_dic(tmp_path, "%\n1\tposemo\n1\tnegemo\n%\nx\t1\n"))


def test_category_name_with_the_ekman_prefix_rejected(tmp_path):
    # the tensor counts its category axes by label prefix: an `ekman:a`
    # category took the place of `zeta` in every icon profile
    path = write_dic(tmp_path, "%\n1\tcatB\n2\tekman:a\n3\tzeta\n%\nx\t1\t2\t3\n")
    with pytest.raises(LexiconFormatError,
                       match=re.escape(f"{path}:3: category name 'ekman:a' starts with 'ekman:'")):
        parse_lexicon(path)
    assert list(parse_lexicon(write_dic(tmp_path, "%\n1\tekman\n2\tEkman:a\n%\nx\t1\t2\n")))


def test_interior_wildcard_rejected(tmp_path):
    with pytest.raises(LexiconFormatError, match="wildcard"):
        parse_lexicon(write_dic(tmp_path, "%\n1\tposemo\n%\nha*py\t1\n"))


def test_bare_star_rejected(tmp_path):
    with pytest.raises(LexiconFormatError, match="wildcard"):
        parse_lexicon(write_dic(tmp_path, "%\n1\tposemo\n%\n*\t1\n"))


def test_demo_lexicon_ships_and_parses():
    from crossmoji.lexicon import resources

    path = resources.files("crossmoji.data") / "demo_liwc_en.dic"
    lex = parse_lexicon(path)
    assert {"posemo", "negemo", "family", "money", "ingest", "anger"} <= set(lex)


# --- expansion ------------------------------------------------------------------

def test_prefix_semantics():
    lex = {"posemo": ("happ*",)}
    got = expand_patterns(lex, ["happy", "happiness", "hat"])
    assert got["posemo"] == frozenset({"happy", "happiness"})


def test_out_of_vocab_literal_reported():
    # the literal "joy" is not in the vocabulary and adds no token
    lex = {"posemo": ("joy", "glee")}
    got = expand_patterns(lex, ["happy", "glee"])
    assert got["posemo"] == frozenset({"glee"})


def test_zero_token_category_flagged_degenerate():
    # the category stays, empty: build_tensor decides what that means
    lex = {"a": ("xyzzy*",), "b": ("hat",)}
    got = expand_patterns(lex, ["hat", "cap"])
    assert got["a"] == frozenset()
    assert got["b"] == frozenset({"hat"})


def brute_force_expand(patterns, vocab):
    out = set()
    for pat in patterns:
        if pat.endswith("*"):
            out.update(v for v in vocab if v.startswith(pat[:-1]))
        elif pat in vocab:
            out.add(pat)
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet="abcf", min_size=1, max_size=5), min_size=1, max_size=30),
       st.lists(st.text(alphabet="abcf", min_size=1, max_size=4), min_size=1, max_size=8))
def test_expansion_matches_brute_force_oracle(vocab, stems):
    patterns = tuple(dict.fromkeys(s + "*" for s in stems)) + ("abc", "f")
    lex = {"cat": patterns}
    got = expand_patterns(lex, vocab)
    assert got["cat"] == frozenset(brute_force_expand(patterns, set(vocab)))


def test_expansion_subset_of_vocabulary():
    lex = {"c": ("a*", "b", "qq*")}
    vocab = ["aa", "ab", "b", "c"]
    got = expand_patterns(lex, vocab)
    assert got["c"] <= set(vocab)


# --- shared schema ---------------------------------------------------------------

def lex_with(names):
    return {n: ("w",) for n in names}


def test_schema_intersection_sorted():
    got = shared_schema([lex_with(["C", "A", "B"]), lex_with(["B", "D", "C"])])
    assert got == ("B", "C")


def test_schema_identical_lexicons_all_categories():
    got = shared_schema([lex_with(["b", "a"]), lex_with(["a", "b"])])
    assert got == ("a", "b")


def test_schema_disjoint_fatal():
    with pytest.raises(SchemaError):
        shared_schema([lex_with(["a"]), lex_with(["b"])])


def test_schema_of_one_lexicon_is_its_sorted_names():
    assert shared_schema([lex_with(["b", "c", "a"])]) == ("a", "b", "c")


def test_schema_commutative():
    lexes = [lex_with(["a", "b", "c"]), lex_with(["b", "c", "d"]), lex_with(["c", "b"])]
    results = {shared_schema(list(p)) for p in itertools.permutations(lexes)}
    assert results == {("b", "c")}


# --- ekman ------------------------------------------------------------------------

def test_default_ekman_words():
    assert load_ekman(default_ekman_path())["en"] == [
        ("ekman:anger:noun", "anger"), ("ekman:anger:adjective", "angry"),
        ("ekman:disgust:noun", "disgust"), ("ekman:disgust:adjective", "disgusted"),
        ("ekman:fear:noun", "fear"), ("ekman:fear:adjective", "terrified"),
        ("ekman:happiness:noun", "happiness"), ("ekman:happiness:adjective", "happy"),
        ("ekman:sadness:noun", "sadness"), ("ekman:sadness:adjective", "sad"),
        ("ekman:surprise:noun", "surprise"), ("ekman:surprise:adjective", "surprised"),
    ]


def test_ekman_axes_are_twelve_labelled_pairs():
    axes = load_ekman(default_ekman_path())["en"]
    assert len(axes) == 12
    labels = [a for a, _ in axes]
    assert "ekman:anger:noun" in labels and "ekman:happiness:adjective" in labels


def test_ekman_rejects_wrong_arity(tmp_path):
    path = tmp_path / "ek.json"
    for words in ([], ["anger"], ["anger", "angry", "irate"]):
        path.write_text(json.dumps({"en": {"anger": words}}))
        with pytest.raises(LexiconFormatError):
            load_ekman(path)


def test_bad_header_line_fatal(tmp_path):
    with pytest.raises(LexiconFormatError, match="header"):
        parse_lexicon(write_dic(tmp_path, "%\nposemo 1\n%\nhappy\t1\n"))


def test_word_without_ids_fatal(tmp_path):
    with pytest.raises(LexiconFormatError, match="no category ids"):
        parse_lexicon(write_dic(tmp_path, "%\n1\tposemo\n%\nhappy\n"))


def test_ekman_file_must_be_object(tmp_path):
    path = tmp_path / "ek.json"
    path.write_text('["anger"]')
    with pytest.raises(LexiconFormatError, match="object"):
        load_ekman(path)


@pytest.mark.parametrize("text", [
    '{"en": 5}',
    '{"en": {"anger": [1, 2]}}',
    '{"en": {"anger": "angry"}}',
    '{"en": {"anger": ["anger"]}}',
], ids=["language-not-object", "words-not-strings", "pair-not-list", "one-word"])
def test_ekman_file_of_wrong_shape_names_file(tmp_path, text):
    path = tmp_path / "ek.json"
    path.write_text(text)
    with pytest.raises(LexiconFormatError, match="ek.json"):
        load_ekman(path)


def test_lexicon_with_byte_order_mark_parses_as_without(tmp_path):
    dic = write_dic(tmp_path, "%\n1\tposemo\n2\taffect\n%\nhapp*\t1\t2\nglad\t1\n")
    assert parse_lexicon(bom_copy(dic)) == parse_lexicon(dic)


def test_ekman_file_with_byte_order_mark_loads_as_without(tmp_path):
    path = tmp_path / "ek.json"
    path.write_bytes(default_ekman_path().read_bytes())
    assert load_ekman(bom_copy(path)) == load_ekman(path)


@pytest.mark.parametrize("data", [b'{"en": {"anger": ["anger", "angry"]}', b"\xff{}",
                                  b"[" * 100_000 + b"]" * 100_000],
                         ids=["unclosed", "not-utf8", "deep"])
def test_ekman_file_that_is_not_json_names_file(tmp_path, data):
    path = tmp_path / "ek.json"
    path.write_bytes(data)
    with pytest.raises(LexiconFormatError, match="ek.json: not valid JSON"):
        load_ekman(path)
