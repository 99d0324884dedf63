"""Category vectors, Gram-Schmidt, cosine, and tensor construction."""

import numpy as np
import pytest

from crossmoji.embedding import EmbeddingModel, TrainParams, Vocabulary
from crossmoji.projection import (
    DegenerateCategoryError,
    RankDeficiencyError,
    UndefinedSimilarityError,
    build_tensor,
    category_vector,
    cosine,
    culture_average,
    gram_schmidt,
    read_tensor_csv,
    write_tensor_csv,
)


def model_from(vectors, seed=1, dim=None):
    """Construct an EmbeddingModel directly from a token -> vector map."""
    tokens = tuple(vectors)
    syn0 = np.array([vectors[t] for t in tokens], dtype=float)
    dim = dim or syn0.shape[1]
    params = TrainParams(dim=dim, epochs=1, seed=seed, window=1, negatives=1)
    vocab = Vocabulary(tokens=tokens, counts=(5,) * len(tokens), min_count=1,
                       corpus_tokens=5 * len(tokens))
    return EmbeddingModel(vocab=vocab, syn0=syn0, params=params)


# --- category_vector --------------------------------------------------------

def test_single_token_category_vector_is_that_vector():
    m = model_from({"joy": [1.0, 2.0, 3.0]})
    assert np.array_equal(category_vector(["joy"], m), [1.0, 2.0, 3.0])


def test_opposite_vectors_cancel_to_zero():
    m = model_from({"up": [1.0, -2.0], "down": [-1.0, 2.0]})
    vec = category_vector(["up", "down"], m)
    assert np.allclose(vec, 0.0)


def test_three_vector_mean_matches_hand_sum():
    vecs = {"a": [1.0, 4.0, -2.0], "b": [3.0, 0.0, 6.0], "c": [-1.0, 2.0, 5.0]}
    m = model_from(vecs)
    expected = [(1 + 3 - 1) / 3, (4 + 0 + 2) / 3, (-2 + 6 + 5) / 3]
    assert np.allclose(category_vector(["a", "b", "c"], m), expected)


def test_empty_category_raises():
    m = model_from({"a": [1.0, 0.0]})
    with pytest.raises(DegenerateCategoryError):
        category_vector([], m)


# --- gram_schmidt ------------------------------------------------------------

def test_orthonormal_input_is_fixed_point():
    eye = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
    out = gram_schmidt(eye)
    assert np.allclose(out, np.stack(eye), atol=1e-12)


def test_two_dimensional_hand_case():
    out = gram_schmidt([np.array([1.0, 0.0]), np.array([1.0, 1.0])])
    assert np.allclose(out, [[1.0, 0.0], [0.0, 1.0]], atol=1e-12)


def test_random_vectors_orthonormal_and_span_preserving():
    rng = np.random.default_rng(42)
    for _ in range(20):
        k = rng.integers(2, 21)
        vectors = rng.normal(size=(k, 100))
        q = gram_schmidt(list(vectors))
        assert np.max(np.abs(q @ q.T - np.eye(k))) <= 1e-10
        # each input reconstructs from the basis
        residual = vectors - (vectors @ q.T) @ q
        assert np.max(np.linalg.norm(residual, axis=1)) <= 1e-8


def test_output_k_lies_in_span_of_first_k_inputs():
    rng = np.random.default_rng(1)
    vectors = rng.normal(size=(5, 12))
    q = gram_schmidt(list(vectors))
    for k in range(1, 6):
        sub = vectors[:k]
        coef, *_ = np.linalg.lstsq(sub.T, q[k - 1], rcond=None)
        assert np.linalg.norm(sub.T @ coef - q[k - 1]) < 1e-8


def test_rank_deficiency_names_offender():
    v = np.array([1.0, 2.0, 0.0])
    with pytest.raises(RankDeficiencyError, match="money"):
        gram_schmidt([v, 2.0 * v], labels=["posemo", "money"])


def test_more_vectors_than_dimensions_rejected():
    with pytest.raises(RankDeficiencyError):
        gram_schmidt([np.ones(2), np.ones(2), np.ones(2)])


# --- cosine -------------------------------------------------------------------

def test_cosine_identical_is_one():
    v = np.array([0.3, -0.7, 2.0])
    assert cosine(v, v) == pytest.approx(1.0)


def test_cosine_orthogonal_is_zero():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)


def test_cosine_45_degrees():
    assert cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(
        0.7071067811865476)


def test_cosine_zero_norm_rejected():
    with pytest.raises(UndefinedSimilarityError):
        cosine(np.zeros(3), np.ones(3))


def test_cosine_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        u, v = rng.normal(size=8), rng.normal(size=8)
        a, b = rng.uniform(0.01, 100, size=2)
        assert cosine(a * u, b * v) == pytest.approx(cosine(u, v), abs=1e-12)


# --- culture averaging ----------------------------------------------------------

def test_culture_average_exact_one_third_form():
    vals = [np.array([0.2]), np.array([0.4]), np.array([0.6])]
    assert culture_average(vals)[0] == 0.4  # exact, not approx


# --- tensor construction ---------------------------------------------------------

def two_culture_models(rng, runs=2, dim=6):
    tokens = ["happy", "joy", "sad", "tear", "cash", "😀", "😢", "💰"]
    models = {}
    for corpus in ("W1", "E1"):
        models[corpus] = [
            model_from({t: rng.normal(size=dim) for t in tokens}, seed=r)
            for r in range(runs)
        ]
    expansions = {
        corpus: {"posemo": ["happy", "joy"], "negemo": ["sad", "tear"], "money": ["cash"]}
        for corpus in models
    }
    return models, expansions


def test_tensor_identical_runs_average_equals_single_run():
    rng = np.random.default_rng(3)
    models, expansions = two_culture_models(rng, runs=1)
    # duplicate the single run: average over equal runs is that run
    doubled = {c: [ms[0], ms[0]] for c, ms in models.items()}
    t1 = build_tensor(models, expansions, ["money", "negemo", "posemo"],
                      ["😀", "😢", "💰"], {"W1": "West", "E1": "East"})
    t2 = build_tensor(doubled, expansions, ["money", "negemo", "posemo"],
                      ["😀", "😢", "💰"], {"W1": "West", "E1": "East"})
    for corpus in ("W1", "E1"):
        assert np.allclose(t1.corpus_mean(corpus), t2.corpus_mean(corpus), atol=1e-15)


def test_tensor_run_average_matches_recompute_oracle():
    rng = np.random.default_rng(4)
    models, expansions = two_culture_models(rng, runs=2)
    schema = ["money", "negemo", "posemo"]
    targets = ["😀", "😢", "💰"]
    cultures = {"W1": "West", "E1": "East"}
    both = build_tensor(models, expansions, schema, targets, cultures)
    for corpus in ("W1", "E1"):
        singles = [
            build_tensor({corpus: [m]}, {corpus: expansions[corpus]}, schema,
                         targets, {corpus: cultures[corpus]}).per_run[corpus][0]
            for m in models[corpus]
        ]
        expected = (singles[0] + singles[1]) / 2.0
        assert np.allclose(both.corpus_mean(corpus), expected, atol=1e-12)


def test_tensor_values_bounded_and_axes_orthonormalized():
    rng = np.random.default_rng(5)
    models, expansions = two_culture_models(rng)
    t = build_tensor(models, expansions, ["money", "negemo", "posemo"],
                     ["😀", "😢", "💰"], {"W1": "West", "E1": "East"})
    for cube in t.per_run.values():
        assert np.all(cube <= 1.0) and np.all(cube >= -1.0)
    assert t.orthonormal
    assert t.n_categories == 3


def test_tensor_raw_mode_matches_direct_cosines():
    rng = np.random.default_rng(6)
    models, expansions = two_culture_models(rng, runs=1)
    t = build_tensor(models, expansions, ["money", "negemo", "posemo"],
                     ["😀", "😢", "💰"], {"W1": "West", "E1": "East"},
                     orthonormalize=False)
    m = models["W1"][0]
    for i, cat in enumerate(t.axes):
        cat_vec = category_vector(sorted(expansions["W1"][cat]), m)
        for j, target in enumerate(t.targets):
            assert t.per_run["W1"][0, i, j] == pytest.approx(
                cosine(cat_vec, m.vector(target)), abs=1e-12)


def test_tensor_drops_degenerate_category_symmetrically():
    rng = np.random.default_rng(7)
    models, expansions = two_culture_models(rng, runs=1)
    expansions["E1"] = dict(expansions["E1"])
    expansions["E1"]["money"] = []  # degenerate only in the East corpus
    t = build_tensor(models, expansions, ["money", "negemo", "posemo"],
                     ["😀", "😢"], {"W1": "West", "E1": "East"})
    assert "money" not in t.axes
    assert "money" in t.dropped_categories
    assert t.axes == ("negemo", "posemo")


def test_tensor_excludes_missing_targets_and_reports():
    rng = np.random.default_rng(8)
    models, expansions = two_culture_models(rng, runs=1)
    t = build_tensor(models, expansions, ["negemo", "posemo"],
                     ["😀", "🤿"], {"W1": "West", "E1": "East"})
    assert t.targets == ("😀",)
    assert t.excluded_targets == ("🤿",)


def test_tensor_ekman_axes_raw_not_orthonormalized():
    rng = np.random.default_rng(9)
    models, expansions = two_culture_models(rng, runs=1)
    ekman = {c: [("ekman:joyfeel:noun", "joy")] for c in models}
    t = build_tensor(models, expansions, ["negemo", "posemo"],
                     ["😀", "😢"], {"W1": "West", "E1": "East"}, ekman_axes=ekman)
    assert t.axes == ("negemo", "posemo", "ekman:joyfeel:noun")
    assert t.n_categories == 2
    m = models["W1"][0]
    j = t.targets.index("😀")
    expected = cosine(m.vector("joy"), m.vector("😀"))
    assert t.per_run["W1"][0, 2, j] == pytest.approx(expected, abs=1e-12)


def test_category_vectors_raw_vs_orthonormal():
    from crossmoji.projection import build_category_vectors

    rng = np.random.default_rng(21)
    vocab = {t: rng.normal(size=8) for t in ["a1", "a2", "b1", "b2", "c1"]}
    m = model_from(vocab)
    expanded = {"catA": ["a1", "a2"], "catB": ["b1", "b2"], "catC": ["c1"]}
    schema = ["catA", "catB", "catC"]

    # one row per category, in schema order
    raw = build_category_vectors(m, schema, expanded, orthonormalize=False)
    assert raw.shape == (3, 8)
    assert np.allclose(raw[0], (vocab["a1"] + vocab["a2"]) / 2)
    assert np.allclose(raw[2], vocab["c1"])

    ortho = build_category_vectors(m, schema, expanded)
    gram = ortho @ ortho.T
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-10
    # raw vectors reconstruct from the basis (span preserved)
    residual = raw - (raw @ ortho.T) @ ortho
    assert np.max(np.linalg.norm(residual, axis=1)) <= 1e-8


def test_tensor_invariant_under_positive_vector_rescaling():
    # ranks and values of s are unchanged when all token vectors scale by a > 0
    rng = np.random.default_rng(12)
    models, expansions = two_culture_models(rng, runs=1)
    scaled = {
        corpus: [model_from(
            {t: 3.5 * m.syn0[m.vocab.index[t]] for t in m.vocab.tokens}, seed=9)
            for m in ms]
        for corpus, ms in models.items()
    }
    kwargs = dict(schema=["money", "negemo", "posemo"],
                  targets=["😀", "😢", "💰"],
                  culture_of={"W1": "West", "E1": "East"})
    t1 = build_tensor(models, expansions, kwargs["schema"], kwargs["targets"],
                      kwargs["culture_of"])
    t2 = build_tensor(scaled, expansions, kwargs["schema"], kwargs["targets"],
                      kwargs["culture_of"])
    for corpus in t1.corpora:
        assert np.allclose(t1.per_run[corpus], t2.per_run[corpus], atol=1e-12)


def test_tensor_csv_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    models, expansions = two_culture_models(rng, runs=2)
    t = build_tensor(models, expansions, ["money", "negemo", "posemo"],
                     ["😀", "😢", "💰"], {"W1": "West", "E1": "East"})
    path = tmp_path / "tensor.csv"
    write_tensor_csv(t, path)
    back = read_tensor_csv(path, {"W1": "West", "E1": "East"})
    assert back.axes == t.axes
    assert back.targets == t.targets
    for corpus in t.corpora:
        assert np.array_equal(back.per_run[corpus], t.per_run[corpus])
    assert np.array_equal(back.culture_mean("West"), t.culture_mean("West"))


def test_tensor_rejects_differing_run_counts():
    rng = np.random.default_rng(30)
    models, expansions = two_culture_models(rng, runs=2)
    models["E1"] = models["E1"][:1]
    with pytest.raises(ValueError, match="run counts"):
        build_tensor(models, expansions, ["posemo"], ["😀"],
                     {"W1": "West", "E1": "East"})


def test_tensor_rejects_all_targets_missing():
    rng = np.random.default_rng(31)
    models, expansions = two_culture_models(rng, runs=1)
    with pytest.raises(ValueError, match="target"):
        build_tensor(models, expansions, ["posemo"], ["🤿"],
                     {"W1": "West", "E1": "East"})


def test_tensor_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_tensor_csv(path, {})
