"""Category vectors, Gram-Schmidt, and tensor construction."""

from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from crossmoji.embedding import EmbeddingModel, TrainParams, Vocabulary
from crossmoji.projection import (
    DegenerateCategoryError,
    RankDeficiencyError,
    SimilarityTensor,
    build_tensor,
    category_vector,
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
    vocab = Vocabulary(tokens=tokens, counts=(5,) * len(tokens), corpus_tokens=5 * len(tokens))
    return EmbeddingModel(vocab=vocab, syn0=syn0, params=params)


def cosine(u, v) -> float:
    """The reference cosine of two nonzero vectors."""
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


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


# --- culture averaging ----------------------------------------------------------

def test_culture_average_exact_one_third_form():
    vals = [np.array([0.2]), np.array([0.4]), np.array([0.6])]
    assert culture_average(vals)[0] == 0.4  # exact, not approx
    assert culture_average([0.2, 0.4, 0.6]) == 0.4  # plain numbers too


@pytest.mark.parametrize("runs", range(1, 7))
def test_run_and_culture_means_are_a_left_to_right_sum_times_one_over_n(runs):
    # the reported averages keep their bits only if every mean adds its
    # terms in order from the first and then scales once by 1/n
    def literal_mean(terms):
        return reduce(np.add, terms) * (1.0 / len(terms))

    rng = np.random.default_rng(runs)
    corpora = ("US", "UK", "CA")
    tensor = SimilarityTensor(
        axes=("a", "b", "c"), targets=tuple("vwxyz"), corpora=corpora,
        culture_of=dict.fromkeys(corpora, "West"),
        per_run={c: rng.uniform(-1, 1, (runs, 3, 5)) for c in corpora})
    for c in corpora:
        assert np.array_equal(tensor.corpus_mean(c), literal_mean(list(tensor.per_run[c])))
    assert np.array_equal(tensor.culture_mean("West"),
                          literal_mean([literal_mean(list(tensor.per_run[c])) for c in corpora]))


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
    assert t.n_categories == 3


def test_tensor_entries_are_cosines_with_gram_schmidt_rows():
    rng = np.random.default_rng(6)
    models, expansions = two_culture_models(rng, runs=2)
    schema = ["money", "negemo", "posemo"]
    t = build_tensor(models, expansions, schema, ["😀", "😢", "💰"],
                     {"W1": "West", "E1": "East"})
    assert t.axes == tuple(schema)
    for corpus, runs in models.items():
        for r, m in enumerate(runs):
            basis = gram_schmidt([category_vector(sorted(expansions[corpus][c]), m)
                                  for c in schema])
            for i in range(len(schema)):
                for j, target in enumerate(t.targets):
                    assert t.per_run[corpus][r, i, j] == pytest.approx(
                        cosine(basis[i], m.vector(target)), abs=1e-12)


def test_tensor_builds_each_category_vector_once(monkeypatch):
    from crossmoji import projection

    calls = []
    monkeypatch.setattr(projection, "category_vector",
                        lambda tokens, model: calls.append(1) or category_vector(tokens, model))
    rng = np.random.default_rng(13)
    models, expansions = two_culture_models(rng, runs=2)
    build_tensor(models, expansions, ["money", "negemo", "posemo"], ["😀"],
                 {"W1": "West", "E1": "East"})
    assert len(calls) == 3 * 2 * 2  # categories x corpora x runs


def test_tensor_drops_category_dependent_in_one_corpus_everywhere():
    rng = np.random.default_rng(14)
    models, expansions = two_culture_models(rng, runs=2)
    # in W1 the union of posemo and negemo, in E1 an independent token set
    expansions["W1"] = dict(expansions["W1"], zunion=["happy", "joy", "sad", "tear"])
    expansions["E1"] = dict(expansions["E1"], zunion=["cash", "joy"])
    schema = ["money", "negemo", "posemo", "zunion"]
    t = build_tensor(models, expansions, schema, ["😀", "😢"], {"W1": "West", "E1": "East"})
    assert t.axes == ("money", "negemo", "posemo")
    assert t.dropped_categories["zunion"].startswith("linearly dependent on the kept "
                                                     "categories in W1")
    for cube in t.per_run.values():
        assert cube.shape == (2, 3, 2)


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


@pytest.mark.parametrize("ekman, usable, excluded", [
    # E1 has no word list, so no label is in both corpora
    ({"W1": [("ekman:a", "joy"), ("ekman:b", "sad")]}, (), ("ekman:a", "ekman:b")),
    # E1's word for b is not in its vocabulary; a is kept
    ({"W1": [("ekman:a", "joy"), ("ekman:b", "sad")],
      "E1": [("ekman:a", "happy"), ("ekman:b", "kanashii")]}, ("ekman:a",), ("ekman:b",)),
    # labels keep the order they are first seen in, corpus by corpus
    ({"W1": [("ekman:z", "joy"), ("ekman:m", "tear")],
      "E1": [("ekman:y", "cash"), ("ekman:m", "sad"), ("ekman:z", "happy"), ("ekman:a", "joy")]},
     ("ekman:z", "ekman:m"), ("ekman:y", "ekman:a")),
], ids=["no-word-list", "word-missing-in-one-corpus", "first-seen-order"])
def test_tensor_ekman_axis_selection(ekman, usable, excluded):
    rng = np.random.default_rng(16)
    models, expansions = two_culture_models(rng, runs=1)
    t = build_tensor(models, expansions, ["negemo", "posemo"],
                     ["😀", "😢"], {"W1": "West", "E1": "East"}, ekman_axes=ekman)
    assert t.axes == ("negemo", "posemo") + usable
    assert t.excluded_axes == excluded


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


def test_float32_models_give_the_bits_of_their_float64_copies():
    # models hold float32 parameters; the rows compared downstream are
    # upcast, so the tensor and its profiles are those of float64 models
    rng = np.random.default_rng(13)
    models, expansions = two_culture_models(rng, runs=2)
    narrow = {corpus: [replace(m, syn0=m.syn0.astype(np.float32)) for m in ms]
              for corpus, ms in models.items()}
    wide = {corpus: [replace(m, syn0=m.syn0.astype(np.float64)) for m in ms]
            for corpus, ms in narrow.items()}
    args = (["money", "negemo", "posemo"], ["😀", "😢", "💰"], {"W1": "West", "E1": "East"})
    t32, t64 = build_tensor(narrow, expansions, *args), build_tensor(wide, expansions, *args)
    for corpus in ("W1", "E1"):
        assert t32.per_run[corpus].dtype == np.float64
        assert np.array_equal(t32.per_run[corpus].view(np.uint64),
                              t64.per_run[corpus].view(np.uint64))
        assert t32.profiles[corpus].dtype == np.float64
        assert np.array_equal(t32.profiles[corpus].view(np.uint64),
                              t64.profiles[corpus].view(np.uint64))


def test_tensor_profiles_equal_a_per_run_recompute_bit_for_bit():
    # per corpus: the upper triangle of the targets' cosine matrix in each
    # run, summed over the runs in order and times 1/R
    rng = np.random.default_rng(15)
    models, expansions = two_culture_models(rng, runs=3)
    targets = ["😀", "😢", "💰"]
    t = build_tensor(models, expansions, ["money", "negemo", "posemo"], targets,
                     {"W1": "West", "E1": "East"})
    assert t.targets == tuple(targets)
    pairs = np.triu_indices(len(targets), k=1)
    for corpus, runs in models.items():
        total = None
        for m in runs:
            rows = np.stack([m.vector(e) for e in targets])
            unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
            sims = np.clip(unit @ unit.T, -1.0, 1.0)[pairs]
            total = sims if total is None else total + sims
        expected = total * (1.0 / len(runs))
        assert t.profiles[corpus].shape == (3,)
        assert np.array_equal(t.profiles[corpus].view(np.uint64), expected.view(np.uint64))
        oracle = [sum(cosine(m.vector(targets[i]), m.vector(targets[j])) for m in runs) / 3
                  for i, j in zip(*pairs)]
        assert t.profiles[corpus] == pytest.approx(oracle, abs=1e-12)


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
