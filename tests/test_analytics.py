"""Correlation primitives and tensor-level analytics.

The oracles here are deliberately naive: O(n^2) comparison-counting ranks,
the definitional covariance formula, and full pairwise enumeration.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossmoji.analytics import (
    UndefinedCorrelationError,
    average_ranks,
    build_report,
    category_scc,
    country_similarity_matrix,
    culture_triples,
    frequency_analysis,
    icon_scc,
    pearson,
    spearman,
)
from crossmoji.embedding import EmbeddingModel, TrainParams, Vocabulary
from crossmoji.inventory import EmojiInventory, FrequencyTable, SharedEmojiSet
from crossmoji.projection import SimilarityTensor, build_tensor, culture_average


# --- oracles ---------------------------------------------------------------

def rank_oracle(values):
    """Rank by counting comparisons; ties get the average of their span."""
    out = []
    for v in values:
        smaller = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        out.append(smaller + (equal + 1) / 2.0)
    return out


def pearson_oracle(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / (vx ** 0.5 * vy ** 0.5)


def spearman_oracle(x, y):
    return pearson_oracle(rank_oracle(x), rank_oracle(y))


# --- spearman / pearson ----------------------------------------------------

def test_spearman_monotone_is_one():
    assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)


def test_spearman_reversed_is_minus_one():
    assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)


def test_spearman_frozen_example():
    # classic formula 1 - 6*sum(d^2)/(n(n^2-1)) with d = (-1, 1, -1, 1)
    assert spearman([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6, abs=1e-15)


def test_pearson_self_and_negation():
    x = [1.0, 2.0, 5.0, 3.0]
    assert pearson(x, x) == pytest.approx(1.0)
    assert pearson(x, [-v for v in x]) == pytest.approx(-1.0)


def test_pearson_frozen_example():
    x, y = [1.0, 2.0, 3.0], [1.0, 2.0, 4.0]
    assert pearson(x, y) == pytest.approx(pearson_oracle(x, y), abs=1e-15)


def test_average_ranks_with_ties():
    assert list(average_ranks([10, 20, 20, 30])) == [1.0, 2.5, 2.5, 4.0]
    assert list(average_ranks([5, 5, 5])) == [2.0, 2.0, 2.0]


def tie_span_ranks(values):
    """Rank by walking the sorted values; each span of equal values gets
    the mean of its 1-based ranks."""
    order = sorted(range(len(values)), key=lambda k: values[k])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in order[i : j + 1]:
            ranks[k] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5, 1e300]),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=30))
@example([0.0])
@example([0.0, -0.0, 1.0, -0.0])
def test_average_ranks_match_the_tie_span_reference_bit_for_bit(values):
    got = average_ranks(values)
    assert got.dtype == np.float64
    assert got.tobytes() == np.array(tie_span_ranks(values), dtype=np.float64).tobytes()


@pytest.mark.parametrize("bad", [
    ([1, 2], [1, 2]),            # too short
    ([1, 2, 3], [1, 2]),         # length mismatch
    ([1, 1, 1], [1, 2, 3]),      # zero rank variance
    ([1, np.nan, 3], [1, 2, 3]),
])
def test_undefined_correlations(bad):
    with pytest.raises(UndefinedCorrelationError):
        spearman(*bad)


def test_pearson_zero_variance():
    with pytest.raises(UndefinedCorrelationError):
        pearson([2, 2, 2], [1, 2, 3])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=3, max_size=20),
       st.data())
def test_spearman_matches_oracle(x, data):
    y = data.draw(st.lists(st.integers(min_value=-50, max_value=50),
                           min_size=len(x), max_size=len(x)))
    try:
        got = spearman(x, y)
    except UndefinedCorrelationError:
        assert len(set(x)) == 1 or len(set(y)) == 1
        return
    assert got == pytest.approx(spearman_oracle(x, y), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-100, max_value=100), min_size=3, max_size=20),
       st.data())
def test_spearman_invariant_under_increasing_transform(x, data):
    # integer inputs keep 3v+7 exact, hence genuinely strictly increasing
    y = data.draw(st.lists(st.integers(min_value=-100, max_value=100),
                           min_size=len(x), max_size=len(x)))
    fx = [3.0 * v + 7.0 for v in x]
    try:
        assert spearman(x, y) == pytest.approx(spearman(fx, y), abs=1e-12)
    except UndefinedCorrelationError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-100, max_value=100), min_size=3, max_size=20),
       st.floats(min_value=0.5, max_value=4), st.floats(min_value=-5, max_value=5),
       st.data())
def test_pearson_affine_invariance(x, a, b, data):
    # integer data keeps the spread well above rounding error under a*x+b
    y = data.draw(st.lists(st.integers(min_value=-100, max_value=100),
                           min_size=len(x), max_size=len(x)))
    try:
        r1 = pearson(x, y)
        r2 = pearson([a * v + b for v in x], y)
    except UndefinedCorrelationError:
        return
    assert r1 == pytest.approx(r2, abs=1e-9)


# --- tensor-level analytics -------------------------------------------------

def tiny_inventory():
    emoji = ["😀", "😢", "🍕", "🚗", "⚽", "💰"]
    cats = {"😀": "Smileys", "😢": "Smileys", "🍕": "Food & Drink",
            "🚗": "Travel & Places", "⚽": "Activities", "💰": "Objects"}
    return EmojiInventory(entries=frozenset(emoji), category_of=cats)


def make_tensor(per_corpus_values, axes, targets, culture_of):
    """per_corpus_values: corpus -> (axes x targets) array, single run."""
    per_run = {c: np.asarray(v, dtype=float)[None, :, :] for c, v in per_corpus_values.items()}
    return SimilarityTensor(
        axes=tuple(axes), targets=tuple(targets),
        corpora=tuple(per_corpus_values), culture_of=culture_of, per_run=per_run,
    )


def test_category_scc_identical_cultures():
    values = np.array([[0.9, 0.5, 0.1, -0.2, 0.3, 0.7],
                       [0.2, 0.8, -0.5, 0.6, 0.0, 0.1],
                       [-0.1, 0.2, 0.9, 0.4, -0.3, 0.5]])
    tensor = make_tensor({"W1": values, "E1": values}, ["a", "b", "c"],
                         list("123456"), {"W1": "West", "E1": "East"})
    rho, top = category_scc(tensor)
    assert all(v == pytest.approx(1.0) for v in rho.values())
    assert top[("West", "a")] == top[("East", "a")]
    assert top[("West", "a")][0][0] == "1"  # highest similarity first


def test_category_scc_rank_reversed_axis():
    west = np.array([[0.1, 0.2, 0.3, 0.4], [0.5, 0.2, 0.9, 0.1]])
    east = west.copy()
    east[0] = west[0][::-1]
    tensor = make_tensor({"W1": west, "E1": east}, ["a", "b"],
                         list("wxyz"), {"W1": "West", "E1": "East"})
    rho, _ = category_scc(tensor)
    assert rho["a"] == pytest.approx(-1.0)
    assert rho["b"] == pytest.approx(1.0)


def test_category_scc_fixture_matches_hand_ranks():
    west = np.array([[0.9, 0.1, 0.5, 0.3, 0.7, 0.2],
                     [0.2, 0.4, 0.6, 0.8, 0.1, 0.3],
                     [0.5, 0.5, 0.2, 0.9, 0.4, 0.6]])
    east = np.array([[0.8, 0.2, 0.4, 0.1, 0.9, 0.3],
                     [0.3, 0.2, 0.7, 0.6, 0.4, 0.1],
                     [0.1, 0.8, 0.3, 0.7, 0.2, 0.5]])
    tensor = make_tensor({"W1": west, "E1": east}, ["a", "b", "c"],
                         list("123456"), {"W1": "West", "E1": "East"})
    rho, _ = category_scc(tensor)
    for i, axis in enumerate(["a", "b", "c"]):
        assert rho[axis] == pytest.approx(spearman_oracle(list(west[i]), list(east[i])), abs=1e-12)


def test_constant_axis_has_no_correlation_but_keeps_its_top_lists():
    # dim-1 models give such an axis: every cosine is +1 or -1.  It used to
    # fail the whole report with "zero variance"
    targets = ["😀", "😢", "🍕", "🚗"]
    west = np.array([[0.9, 0.1, 0.5, 0.3], [1.0, 1.0, 1.0, 1.0], [0.2, 0.4, 0.6, 0.8]])
    east = np.array([[0.8, 0.2, 0.4, 0.1], [0.3, 0.2, 0.7, 0.6], [0.1, 0.8, 0.3, 0.7]])
    culture_of = {"W1": "West", "E1": "East"}
    tensor = make_tensor({"W1": west, "E1": east}, ["a", "b", "c"], targets, culture_of)
    rho, top = category_scc(tensor)
    assert list(rho) == ["a", "c"]
    assert [e for e, _ in top[("East", "b")]] == ["🍕", "🚗", "😀", "😢"]
    assert len(top[("West", "b")]) == 4
    inv, table = make_table({"W1": dict.fromkeys(targets, 5), "E1": dict.fromkeys(targets, 5)})
    tensor = dataclasses.replace(tensor, profiles={"W1": np.arange(6.0), "E1": np.arange(6.0)[::-1]})
    report = build_report(tensor, table, inv, SharedEmojiSet(tuple(targets), 1), culture_of,
                          top_k=3)
    assert report.category_rho == rho
    assert report.top5 == top
    assert [w for w in report.warnings if "axis" in w] == [
        "category correlation skipped for axis b: its West or East profile is constant, "
        "or has fewer than 3 emoji"]


def test_icon_scc_identical_and_reversed_profiles():
    inv = tiny_inventory()
    west = np.array([[0.9, 0.1], [0.5, 0.3], [0.2, 0.8]])  # 3 axes x 2 targets
    east = west.copy()
    east[:, 1] = west[:, 1][::-1]  # reverse target "😢"'s profile
    tensor = make_tensor({"W1": west, "E1": east}, ["a", "b", "c"],
                         ["😀", "😢"], {"W1": "West", "E1": "East"})
    report = icon_scc(tensor, inv)
    assert report.scc["😀"] == pytest.approx(1.0)
    assert report.scc["😢"] == pytest.approx(-1.0)
    mean, std = report.by_category["Smileys"]
    assert mean == pytest.approx(0.0)
    assert std == pytest.approx(1.0)


def test_icon_scc_is_transposed_category_machinery():
    rng = np.random.default_rng(7)
    west = rng.uniform(-1, 1, (4, 5))
    east = rng.uniform(-1, 1, (4, 5))
    targets = ["😀", "😢", "🍕", "🚗", "⚽"]
    tensor = make_tensor({"W1": west, "E1": east}, list("abcd"), targets,
                         {"W1": "West", "E1": "East"})
    report = icon_scc(tensor, tiny_inventory())
    # transpose then reuse the category path: same numbers
    transposed = make_tensor({"W1": west.T, "E1": east.T}, targets, list("abcd"),
                             {"W1": "West", "E1": "East"})
    rho_t, _ = category_scc(transposed)
    for j, t in enumerate(targets):
        assert report.scc[t] == pytest.approx(rho_t[t], abs=1e-12)


def test_icon_scc_guards_tiny_schema():
    tensor = make_tensor(
        {"W1": np.ones((1, 4)), "E1": np.ones((1, 4))}, ["a"], list("wxyz"),
        {"W1": "West", "E1": "East"})
    with pytest.raises(UndefinedCorrelationError):
        icon_scc(tensor, tiny_inventory())


def test_ekman_axes_excluded_from_icon_profiles():
    rng = np.random.default_rng(3)
    west = rng.uniform(-1, 1, (5, 4))
    east = rng.uniform(-1, 1, (5, 4))
    axes = ["a", "b", "c", "ekman:anger:noun", "ekman:anger:adjective"]
    targets = ["😀", "😢", "🍕", "🚗"]
    tensor = make_tensor({"W1": west, "E1": east}, axes, targets,
                         {"W1": "West", "E1": "East"})
    report = icon_scc(tensor, tiny_inventory())
    for j, t in enumerate(targets):
        expected = spearman_oracle(list(west[:3, j]), list(east[:3, j]))
        assert report.scc[t] == pytest.approx(expected, abs=1e-12)


# --- culture triples ---------------------------------------------------------

def five_country_tensor(values_by_corpus, axes, targets):
    culture_of = {"US": "West", "UK": "West", "CA": "West", "CN": "East", "JP": "East"}
    return make_tensor(values_by_corpus, axes, targets, culture_of)


def test_triples_all_identical():
    base = np.array([[0.9, 0.1, 0.5, 0.2]])
    tensor = five_country_tensor({c: base for c in ["US", "UK", "CA", "CN", "JP"]},
                                 ["a"], list("wxyz"))
    assert culture_triples(tensor)["a"] == (
        pytest.approx(1.0), pytest.approx(1.0), pytest.approx(1.0))


def test_triples_cross_reversed():
    west = np.array([[0.1, 0.2, 0.3, 0.4]])
    east = np.array([[0.4, 0.3, 0.2, 0.1]])
    tensor = five_country_tensor(
        {"US": west, "UK": west, "CA": west, "CN": east, "JP": east},
        ["a"], list("wxyz"))
    in_w, in_e, cross = culture_triples(tensor)["a"]
    assert in_w == pytest.approx(1.0)
    assert in_e == pytest.approx(1.0)
    assert cross == pytest.approx(-1.0)


def test_triples_match_pairwise_enumeration_oracle():
    rng = np.random.default_rng(11)
    corpora = ["US", "UK", "CA", "CN", "JP"]
    data = {c: rng.uniform(-1, 1, (2, 6)) for c in corpora}
    tensor = five_country_tensor(data, ["a", "b"], list("123456"))
    got = culture_triples(tensor)
    west, east = ["US", "UK", "CA"], ["CN", "JP"]
    for i, axis in enumerate(["a", "b"]):
        buckets = {"w": [], "e": [], "x": []}
        for k, l1 in enumerate(corpora):
            for l2 in corpora[k + 1:]:
                s = spearman_oracle(list(data[l1][i]), list(data[l2][i]))
                if l1 in west and l2 in west:
                    buckets["w"].append(s)
                elif l1 in east and l2 in east:
                    buckets["e"].append(s)
                else:
                    buckets["x"].append(s)
        assert got[axis][0] == pytest.approx(sum(buckets["w"]) / 3, abs=1e-12)
        assert got[axis][1] == pytest.approx(sum(buckets["e"]) / 1, abs=1e-12)
        assert got[axis][2] == pytest.approx(sum(buckets["x"]) / 6, abs=1e-12)


# --- frequency analysis -------------------------------------------------------

def make_table(counts_by_corpus):
    inv = tiny_inventory()
    table = FrequencyTable(inventory=inv)
    for corpus, counts in counts_by_corpus.items():
        table.add_corpus(corpus)
        table.counts[corpus].update(counts)
    return inv, table


def test_frequency_identical_cultures_scc_one():
    counts = {"😀": 30, "😢": 20, "🍕": 10, "🚗": 5}
    inv, table = make_table({"W1": counts, "E1": counts})
    shared = SharedEmojiSet(emoji=tuple(counts), threshold=1)
    rep = frequency_analysis(table, inv, shared, {"W1": "West", "E1": "East"})
    assert rep.overall_scc == pytest.approx(1.0)


def test_frequency_shares_sum_to_one_per_culture():
    inv, table = make_table({
        "W1": {"😀": 3, "🍕": 2}, "W2": {"😀": 1, "🚗": 4}, "E1": {"😢": 5, "😀": 5},
    })
    shared = SharedEmojiSet(emoji=("😀",), threshold=1)
    rep = frequency_analysis(table, inv, shared,
                             {"W1": "West", "W2": "West", "E1": "East"})
    for culture in ("West", "East"):
        assert sum(rep.culture_shares[culture].values()) == pytest.approx(1.0, abs=1e-9)
        assert sum(rep.category_shares[culture].values()) == pytest.approx(1.0, abs=1e-9)
    # culture counts aggregate across member corpora: West 😀 = 4 of 10
    assert rep.culture_shares["West"]["😀"] == pytest.approx(0.4)


def test_frequency_scc_matches_rank_oracle():
    west_counts = {"😀": 50, "😢": 40, "🍕": 30, "🚗": 20, "⚽": 10}
    east_counts = {"😀": 10, "😢": 45, "🍕": 35, "🚗": 15, "⚽": 25}
    inv, table = make_table({"W1": west_counts, "E1": east_counts})
    shared = SharedEmojiSet(emoji=tuple(west_counts), threshold=1)
    rep = frequency_analysis(table, inv, shared, {"W1": "West", "E1": "East"})
    w = [west_counts[e] for e in shared.emoji]
    e = [east_counts[e] for e in shared.emoji]
    assert rep.overall_scc == pytest.approx(spearman_oracle(w, e), abs=1e-12)


def test_frequency_small_category_omitted():
    inv, table = make_table({"W1": {"😀": 5, "🍕": 5}, "E1": {"😀": 5, "🍕": 5}})
    shared = SharedEmojiSet(emoji=("😀", "🍕"), threshold=1)
    rep = frequency_analysis(table, inv, shared, {"W1": "West", "E1": "East"})
    assert "Smileys" in rep.omitted_categories


# --- country similarity matrix -----------------------------------------------

def random_model(rng, tokens, dim=8):
    """A one-run model of random vectors for `tokens` and the category
    token "word"."""
    vectors = {t: rng.normal(size=dim) for t in [*tokens, "word"]}
    vocab = Vocabulary(tokens=tuple(vectors), counts=(5,) * len(vectors),
                       corpus_tokens=5 * len(vectors))
    return EmbeddingModel(vocab=vocab, syn0=np.array(list(vectors.values())),
                          params=TrainParams(dim=dim, epochs=1, seed=1, window=1, negatives=1))


def profile_tensor(run_models, tokens, culture_of):
    """The tensor, with its cosine profiles, over one category axis."""
    return build_tensor(run_models, {c: {"cat": ["word"]} for c in run_models}, ["cat"],
                        tokens, culture_of)


def test_country_matrix_identical_models_off_diagonal_one():
    rng = np.random.default_rng(0)
    tokens = ["😀", "😢", "🍕", "🚗"]
    model = random_model(rng, tokens)
    out = country_similarity_matrix(
        profile_tensor({"A": [model], "B": [model]}, tokens, {"A": "West", "B": "East"}))
    assert out.matrix[0, 1] == pytest.approx(1.0)
    assert np.allclose(np.diag(out.matrix), 1.0)


def test_country_matrix_matches_brute_force_recompute():
    rng = np.random.default_rng(5)
    tokens = ["😀", "😢", "🍕", "🚗", "⚽"]
    models = {c: [random_model(rng, tokens)] for c in ["A", "B", "C"]}
    out = country_similarity_matrix(
        profile_tensor(models, tokens, {"A": "West", "B": "West", "C": "East"}))

    def profile(model):
        vals = []
        for i in range(len(tokens)):
            for j in range(i + 1, len(tokens)):
                u, v = model.vector(tokens[i]), model.vector(tokens[j])
                vals.append(float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v))))
        return vals

    for a in range(3):
        for b in range(3):
            corpus_a, corpus_b = out.corpora[a], out.corpora[b]
            expected = 1.0 if a == b else pearson_oracle(
                profile(models[corpus_a][0]), profile(models[corpus_b][0]))
            assert out.matrix[a, b] == pytest.approx(expected, abs=1e-12)
    # cross summary: mean over the 2 cross pairs (A,C), (B,C)
    expected_cross = (out.matrix[0, 2] + out.matrix[1, 2]) / 2
    assert out.cross_pair_mean == pytest.approx(expected_cross, abs=1e-12)


def test_triples_buckets_and_cross_pair_mean_are_culture_averages():
    # the same literal mean as every other reported average, to the bit
    rng = np.random.default_rng(12)
    tokens = ["😀", "😢", "🍕", "🚗", "⚽"]
    corpora = ["US", "UK", "CA", "CN", "JP"]
    culture_of = {"US": "West", "UK": "West", "CA": "West", "CN": "East", "JP": "East"}
    tensor = profile_tensor({c: [random_model(rng, tokens)] for c in corpora},
                            tokens, culture_of)
    means = {c: tensor.corpus_mean(c) for c in corpora}
    cross = [("US", "CN"), ("US", "JP"), ("UK", "CN"), ("UK", "JP"), ("CA", "CN"), ("CA", "JP")]
    in_west = [("US", "UK"), ("US", "CA"), ("UK", "CA")]
    for i, axis in enumerate(tensor.axes):
        got = culture_triples(tensor)[axis]
        assert got[0] == culture_average([spearman(means[a][i], means[b][i]) for a, b in in_west])
        assert got[1] == culture_average([spearman(means["CN"][i], means["JP"][i])])
        assert got[2] == culture_average([spearman(means[a][i], means[b][i]) for a, b in cross])
    out = country_similarity_matrix(tensor)
    index = {c: k for k, c in enumerate(out.corpora)}
    assert isinstance(out.cross_pair_mean, float)
    assert out.cross_pair_mean == culture_average(
        [out.matrix[index[a], index[b]] for a, b in cross])


def test_country_matrix_symmetric_under_permutation():
    rng = np.random.default_rng(9)
    tokens = ["😀", "😢", "🍕", "🚗"]
    models = {c: [random_model(rng, tokens)] for c in ["A", "B", "C"]}
    cultures = {"A": "West", "B": "West", "C": "East"}
    out1 = country_similarity_matrix(profile_tensor(models, tokens, cultures))
    reordered = {c: models[c] for c in ["C", "A", "B"]}
    out2 = country_similarity_matrix(profile_tensor(reordered, tokens, cultures))
    for i, ci in enumerate(out1.corpora):
        for j, cj in enumerate(out1.corpora):
            i2, j2 = out2.corpora.index(ci), out2.corpora.index(cj)
            assert out1.matrix[i, j] == pytest.approx(out2.matrix[i2, j2], abs=1e-12)


def test_country_matrix_excludes_missing_emoji_symmetrically():
    rng = np.random.default_rng(2)
    tokens = ["😀", "😢", "🍕", "🚗"]
    full = random_model(rng, tokens)
    partial = random_model(rng, tokens[:-1])  # 🚗 missing here
    tensor = profile_tensor({"A": [full], "B": [partial]}, tokens, {"A": "West", "B": "East"})
    out = country_similarity_matrix(tensor)
    assert out.excluded == ("🚗",)
    assert out.emoji_used == ("😀", "😢", "🍕")
    # both profiles cover the same 3 pairs
    assert [p.shape for p in tensor.profiles.values()] == [(3,), (3,)]
