"""Vocabulary, CBOW trainer, gradient correctness, persistence."""

import io
import json
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from crossmoji.corpus import TokenStream
from crossmoji.embedding import (
    EmbeddingModel,
    EmptyVocabularyError,
    ModelFormatError,
    TokenNotFoundError,
    TrainParams,
    build_vocabulary,
    cbow_gradients,
    cbow_loss,
    encode_streams,
    learning_rate,
    load_model,
    neighbors,
    save_model,
    train_cbow,
    train_run_set,
)


def streams(*sentences):
    return [TokenStream(post_id=str(i), tokens=tuple(s.split()))
            for i, s in enumerate(sentences)]


# --- vocabulary -------------------------------------------------------------

def test_min_count_two_keeps_only_repeats():
    vocab = build_vocabulary(streams("a a b"), min_count=2)
    assert vocab.tokens == ("a",)
    assert vocab.counts == (2,)


def test_min_count_one_keeps_all():
    vocab = build_vocabulary(streams("a a b"), min_count=1)
    assert dict(zip(vocab.tokens, vocab.counts)) == {"a": 2, "b": 1}
    assert vocab.corpus_tokens == 3


def test_vocabulary_matches_hash_count_oracle():
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(40)]
    sents = [" ".join(rng.choice(words, size=rng.integers(3, 12)))
             for _ in range(200)]
    vocab = build_vocabulary(streams(*sents), min_count=3)
    oracle: dict[str, int] = {}
    for s in sents:
        for t in s.split():
            oracle[t] = oracle.get(t, 0) + 1
    expected = {t: c for t, c in oracle.items() if c >= 3}
    assert dict(zip(vocab.tokens, vocab.counts)) == expected
    assert vocab.corpus_tokens == sum(oracle.values())


def test_empty_vocabulary_fatal():
    with pytest.raises(EmptyVocabularyError):
        build_vocabulary(streams("a b c"), min_count=5)


def test_vocabulary_orders_by_count_then_token():
    vocab = build_vocabulary(streams("c b a", "b a d", "d e e"), min_count=1)
    assert vocab.tokens == ("a", "b", "d", "e", "c")
    assert vocab.counts == (2, 2, 2, 2, 1)


def test_encoding_drops_out_of_vocabulary_tokens_and_emptied_posts():
    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(30)]
    sents = [" ".join(rng.choice(words, size=rng.integers(1, 6))) for _ in range(300)]
    sents += ["", "w0 w0 w0 w0 w0 w0 w0 w0 w0 w0 w0 w0 w0 w0 w0 w0 w0 w0 w0 w0 w0 w0"]
    vocab = build_vocabulary(streams(*sents), min_count=30)
    ids, lengths = encode_streams(streams(*sents), vocab)
    want_ids, want_lengths = [], []
    for s in sents:
        sentence = [vocab.index[t] for t in s.split() if t in vocab]
        if sentence:
            want_ids += sentence
            want_lengths.append(len(sentence))
    assert 0 < len(want_lengths) < len(sents)  # some posts have no token left
    assert ids.dtype == np.int32  # as a stream file stores them
    assert ids.tolist() == want_ids and lengths.tolist() == want_lengths


def test_indices_dense():
    vocab = build_vocabulary(streams("a a b b c"), min_count=1)
    assert sorted(vocab.index.values()) == [0, 1, 2]


# --- loss kernel and gradients ------------------------------------------------

def finite_difference(func, x, eps=1e-6):
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    g = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = func()
        flat[i] = orig - eps
        lo = func()
        flat[i] = orig
        g[i] = (hi - lo) / (2 * eps)
    return grad


def test_gradients_match_central_differences():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(10):
        n_ctx = int(rng.integers(1, 6))
        n_out = int(rng.integers(2, 7))
        d = int(rng.integers(3, 12))
        ctx = rng.normal(scale=1.0, size=(n_ctx, d))
        out = rng.normal(scale=1.0, size=(n_out, d))
        loss, g_ctx, g_out = cbow_gradients(ctx, out)
        assert loss == pytest.approx(cbow_loss(ctx, out), rel=1e-12)
        fd_ctx = finite_difference(lambda: cbow_loss(ctx, out), ctx)
        fd_out = finite_difference(lambda: cbow_loss(ctx, out), out)
        for analytic, fd in ((g_ctx, fd_ctx), (g_out, fd_out)):
            denom = max(np.linalg.norm(fd), 1e-12)
            rel = np.linalg.norm(analytic - fd) / denom
            worst = max(worst, rel)
    assert worst < 1e-4


def test_small_step_in_negative_gradient_never_increases_loss():
    rng = np.random.default_rng(7)
    for _ in range(20):
        ctx = rng.normal(size=(3, 8))
        out = rng.normal(size=(4, 8))
        loss, g_ctx, g_out = cbow_gradients(ctx, out)
        step = 1e-4
        new_loss = cbow_loss(ctx - step * g_ctx, out - step * g_out)
        assert new_loss <= loss + 1e-12


# --- subsampling ----------------------------------------------------------------

def test_subsample_disabled_is_exact_passthrough():
    from crossmoji.embedding import subsample_keep_probabilities

    counts = np.array([10**6, 500, 3, 0])
    assert subsample_keep_probabilities(counts, 0.0, 10**6) is None
    assert subsample_keep_probabilities(counts, None, 10**6) is None
    keep = subsample_keep_probabilities(counts, 1e-3, 10**6)
    assert keep is not None
    # frequent tokens get discounted, rare ones always kept
    assert keep[0] < 1.0
    assert keep[2] == 1.0
    expected = (np.sqrt(counts[0] / 1000.0) + 1) * (1000.0 / counts[0])
    assert keep[0] == pytest.approx(expected, abs=1e-15)
    # the formula at several counts, with a threshold count of 200
    threshold = 200.0
    counts = np.array([1, 10, 200, 1000, 50000])
    keep = subsample_keep_probabilities(counts, threshold / 10**6, 10**6)
    for count, got in zip(counts, keep):
        expected = min(1.0, (np.sqrt(count / threshold) + 1) * (threshold / count))
        assert got == pytest.approx(expected, abs=1e-15)
    # a token seen once is kept even against a 100-count threshold
    assert subsample_keep_probabilities(np.array([1, 10**9]), 1e-7, 10**9)[0] == 1.0


def test_same_seed_same_model():
    sents = streams(*(["the cat sat on the mat"] * 30))
    vocab = build_vocabulary(sents, min_count=1)
    p = TrainParams(dim=8, epochs=2, window=2, negatives=2, subsample=0.0, seed=5)
    encoded = encode_streams(sents, vocab)
    m1, m2 = train_cbow(encoded, vocab, p), train_cbow(encoded, vocab, p)
    assert m1.syn0.dtype == np.float32
    assert np.array_equal(m1.syn0, m2.syn0)


TRAIN_AND_SAVE = """
import sys
from dataclasses import replace
import numpy as np
from crossmoji.embedding import TrainParams, build_vocabulary, encode_streams, save_model, train_cbow
rng = np.random.default_rng(3)
words = [f"w{i}" for i in range(40)]
posts = [[words[i] for i in rng.zipf(1.5, size=12) % 40] for _ in range(300)]
vocab = build_vocabulary(posts, min_count=1)
params = TrainParams(dim=int(sys.argv[2]), epochs=2, window=3, negatives=4, subsample=0.0,
                     seed=2)
save_model(train_cbow(encode_streams(posts, vocab), vocab, params), sys.argv[1])
"""


@pytest.mark.parametrize("dim", [32, 31])
def test_model_bytes_do_not_depend_on_blas_threads(tmp_path, dim):
    # a BLAS call in the training step (matmul, @, dot) would make the bits
    # depend on the library's thread count; an even width scatter-adds
    # complex64 pairs, an odd one float32 elements
    paths = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads}
        paths.append(tmp_path / f"threads{threads}.vec")
        subprocess.run([sys.executable, "-c", TRAIN_AND_SAVE, str(paths[-1]), str(dim)],
                       env=env, check=True)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_training_step_makes_no_blas_call():
    # at the sizes above no BLAS library threads, so the test before cannot
    # see a matmul; this one reads the training code for one
    import ast
    import inspect

    import crossmoji.embedding as embedding

    blas = {"matmul", "dot", "vdot", "inner", "tensordot", "einsum_path"}
    for fn in (embedding.train_cbow, embedding._Chunk, embedding._apply_batch,
               embedding._scatter_add, embedding._chunk_positions):
        for node in ast.walk(ast.parse(inspect.getsource(fn))):
            assert not isinstance(node, ast.MatMult), fn.__name__
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            assert name not in blas, (fn.__name__, name)
            if isinstance(node, ast.Call):  # optimize= may hand an einsum to BLAS
                assert all(kw.arg != "optimize" for kw in node.keywords), fn.__name__


# --- learning rate schedule -------------------------------------------------------

def test_linear_lr_decay_trace(monkeypatch):
    # train_cbow takes each sentence's rate from `learning_rate`, at the
    # tokens consumed before the sentence, of the tokens of all epochs
    import crossmoji.embedding as embedding

    sents = streams(*(["a b c d e"] * 40))
    vocab = build_vocabulary(sents, min_count=1)
    params = TrainParams(dim=4, epochs=3, window=2, negatives=2, subsample=0.0, seed=1)
    asked = []
    monkeypatch.setattr(embedding, "learning_rate", lambda done, total, p: asked.append(
        (done.tolist(), total)) or learning_rate(done, total, p))
    train_cbow(encode_streams(sents, vocab), vocab, params)
    total = 5 * 40 * 3
    assert {t for _, t in asked} == {total}
    done = [n for chunk, _ in asked for n in chunk]
    assert done == list(range(0, total, 5))  # once per sentence, every epoch
    alpha = learning_rate(np.array(done), total, params).tolist()
    for n, a in zip(done, alpha):
        expected = max(params.lr0 + (n / total) * (params.lr_min - params.lr0), params.lr_min)
        assert a == pytest.approx(expected, abs=1e-15)
    assert alpha[0] == pytest.approx(params.lr0)
    assert alpha[-1] < params.lr0 * 0.05  # decayed nearly to the floor
    assert learning_rate(np.array([total, 2 * total]), total, params).tolist() == [
        params.lr_min] * 2


# --- training behaviour -------------------------------------------------------------

def test_loss_decreases_between_epochs():
    sents = streams(*(["the quick brown fox jumps over the lazy dog"] * 50))
    vocab = build_vocabulary(sents, min_count=1)
    params = TrainParams(dim=16, epochs=2, window=3, negatives=3, subsample=0.0, seed=3)
    model = train_cbow(encode_streams(sents, vocab), vocab, params)
    assert len(model.epoch_losses) == 2
    assert model.epoch_losses[1] < model.epoch_losses[0]


def test_untrained_loss_counts_only_the_negatives_the_mask_leaves_in():
    # on two types a shared negative often equals its row's center and is
    # masked, so vectors that barely move end far below (1 + K) ln 2, at the
    # loss the kernel gives all scores 0
    rng = np.random.default_rng(5)
    sents = streams(*(" ".join(rng.choice(["a", "b"], 8)) for _ in range(200)))
    vocab = build_vocabulary(sents, min_count=1)
    params = TrainParams(dim=8, epochs=2, lr0=1e-7, lr_min=1e-8, window=2, negatives=4,
                         subsample=0.0, seed=1)
    model = train_cbow(encode_streams(sents, vocab), vocab, params)
    assert len(model.untrained_losses) == 2
    assert model.epoch_losses[-1] == pytest.approx(model.untrained_losses[-1], abs=1e-4)
    assert model.untrained_losses[-1] < 0.7 * (1 + params.negatives) * np.log(2)
    # no random draw depends on it: a run that learns has the same values
    learns = train_cbow(encode_streams(sents, vocab), vocab, replace(params, lr0=0.025))
    assert learns.untrained_losses == model.untrained_losses


def test_planted_synonyms_become_neighbors():
    rng = np.random.default_rng(11)
    contexts = [["green", "fresh", "leafy"], ["fast", "shiny", "loud"],
                ["warm", "soft", "cozy"]]
    pair = ("cat", "feline")  # interchangeable in identical contexts
    sents = []
    for _ in range(1500):
        topic = contexts[rng.integers(0, 3)]
        word = pair[rng.integers(0, 2)]
        ctx = list(rng.permutation(topic))
        sents.append(" ".join(ctx[:2] + [word] + ctx[2:]))
    st = streams(*sents)
    vocab = build_vocabulary(st, min_count=1)
    params = TrainParams(dim=20, epochs=3, window=2, negatives=4, subsample=0.0, seed=2)
    model = train_cbow(encode_streams(st, vocab), vocab, params)
    top3 = [t for t, _ in neighbors(model, "cat", 3)]
    assert "feline" in top3


def test_deterministic_mode_bit_identical():
    sents = streams(*(["alpha beta gamma delta epsilon"] * 25))
    vocab = build_vocabulary(sents, min_count=1)
    params = TrainParams(dim=12, epochs=2, window=2, negatives=3, seed=9)
    m1 = train_cbow(encode_streams(sents, vocab), vocab, params)
    m2 = train_cbow(encode_streams(sents, vocab), vocab, params)
    assert np.array_equal(m1.syn0, m2.syn0)
    assert m1.epoch_losses == m2.epoch_losses


def test_run_set_shares_vocab_with_distinct_seeds():
    sents = streams(*(["a b c d"] * 20))
    vocab = build_vocabulary(sents, min_count=1)
    params = TrainParams(dim=6, epochs=1, window=2, negatives=2, seed=100)
    models = train_run_set(sents, vocab, params, n_runs=3)
    assert [m.params.seed for m in models] == [100, 101, 102]
    assert all(m.vocab is vocab for m in models)
    assert not np.array_equal(models[0].syn0, models[1].syn0)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        TrainParams(lr0=1e-5, lr_min=1e-4)
    with pytest.raises(ValueError):
        TrainParams(dim=0)


def test_single_token_vocabulary_rejected():
    sents = streams("a a a a")
    vocab = build_vocabulary(sents, min_count=2)
    with pytest.raises(EmptyVocabularyError, match="negatives"):
        train_cbow(encode_streams(sents, vocab), vocab,
                   TrainParams(dim=4, epochs=1, window=2, negatives=2))


def test_position_update_accumulates_duplicate_indices():
    # a token occurring twice in one window gets twice the update, and so
    # does a negative sampled twice for one block, or by two blocks, and a
    # row's context or center id repeated by other rows.  Oracle: an explicit
    # loop over every occurrence, with all gradients taken at the parameters
    # before the step.
    from crossmoji.embedding import GROUP, _apply_batch, _Chunk, _sigmoid, _Workspace

    rng = np.random.default_rng(8)
    syn0 = rng.normal(size=(6, 6)).astype(np.float32)
    syn1 = rng.normal(size=(6, 6)).astype(np.float32)
    n = GROUP + 2  # two blocks, the second ragged
    ctx = rng.integers(0, 6, size=(n, 4))
    ctx[0] = [0, 2, 0, 4]     # token 0 twice in row 0
    ctx[GROUP] = [2, 0, 3, 3]  # token 3 twice; 0 and 2 again across rows and blocks
    mask = rng.random((n, 4)) < 0.7
    mask[:, 0] = True
    centers = np.full(n, 5)  # no negative is a center
    centers[1] = 1           # but this one: the row masks both 1s of its block
    negs = np.array([[1, 3, 3],   # negative 3 twice within block 0
                     [4, 3, 1]])  # 3 and 1 again in block 1
    alpha = rng.uniform(0.01, 0.1, size=n)

    # the oracle runs in float64, on float64 copies of the float32 inputs
    at0, at1 = syn0.astype(np.float64), syn1.astype(np.float64)
    exp0, exp1 = at0.copy(), at1.copy()
    expected_loss = 0.0
    for b in range(n):
        real = ctx[b][mask[b]]
        outs = [centers[b]] + [i for i in negs[b // GROUP] if i != centers[b]]
        h = at0[real].mean(axis=0)
        scores = at1[outs] @ h
        g = _sigmoid(scores)
        g[0] -= 1.0
        grad_h = g @ at1[outs]
        for k, idx in enumerate(outs):
            exp1[idx] -= alpha[b] * g[k] * h
        for idx in real:
            exp0[idx] -= (alpha[b] / len(real)) * grad_h
        expected_loss += np.logaddexp(0, -scores[0]) + np.logaddexp(0, scores[1:]).sum()

    chunk = _Chunk.of(centers, ctx, mask, alpha, negs)
    loss = _apply_batch(syn0, syn1, chunk, 0, _Workspace.of(n, window=2, negatives=3, dim=6))
    assert loss == pytest.approx(expected_loss, rel=1e-5)
    assert np.allclose(syn0, exp0, rtol=1e-5, atol=1e-5)
    assert np.allclose(syn1, exp1, rtol=1e-5, atol=1e-5)


def test_ragged_batch_gradients_equal_stacked_single_positions():
    rng = np.random.default_rng(21)
    B, C, K, d = 7, 6, 4, 5
    ctx = rng.normal(size=(B, C, d))
    out = rng.normal(size=(B, K + 1, d))
    mask = np.zeros((B, C), dtype=bool)
    for b in range(B):  # 1 to C real slots per row, scattered among padding
        mask[b, rng.choice(C, size=1 + b % C, replace=False)] = True
    loss, g_ctx, g_out = cbow_gradients(ctx, out, mask)
    assert loss.shape == (B,)
    for b in range(B):
        row_loss, row_ctx, row_out = cbow_gradients(ctx[b][mask[b]], out[b])
        assert loss[b] == pytest.approx(row_loss, rel=1e-12)
        assert np.allclose(g_ctx[b][mask[b]], row_ctx, rtol=1e-12, atol=1e-15)
        assert not g_ctx[b][~mask[b]].any()
        assert np.allclose(g_out[b], row_out, rtol=1e-12, atol=1e-15)


def flat_float32_add_at(matrix, rows, updates):
    """matrix[rows[i]] += updates[i] as one float32 np.add.at over flat
    element indices, in slot order: the reference bits."""
    dim = matrix.shape[1]
    cells = rows.reshape(-1, 1) * dim + np.arange(dim)
    np.add.at(matrix.reshape(-1), cells.reshape(-1), updates.reshape(-1))


def bits(a):
    return a.view(np.uint32)


@pytest.mark.parametrize("dim", [4, 5])
def test_scatter_add_has_the_bits_of_a_flat_float32_add_at(dim):
    # an even width goes through complex64 pairs, an odd one stays float32
    from crossmoji.embedding import _scatter_add

    rng = np.random.default_rng(3)
    matrix = rng.normal(size=(6, dim)).astype(np.float32)
    rows = np.array([[0, 2, 0, 5],   # 0 twice within a row
                     [2, 0, 3, 3],   # 3 twice, 0 and 2 again across rows
                     [5, 5, 1, 0]])
    # magnitudes far apart, so that any other accumulation order rounds differently
    updates = (rng.normal(size=rows.shape + (dim,))
               * 10.0 ** rng.integers(-8, 9, size=rows.shape + (dim,))).astype(np.float32)
    expected = matrix.copy()
    flat_float32_add_at(expected, rows, updates)
    _scatter_add(matrix, rows, updates, np.empty(updates.size, dtype=np.intp))
    assert np.array_equal(bits(matrix), bits(expected))


@pytest.mark.parametrize("dim", [6, 5])
def test_shared_negative_step_equals_per_row_gradients(dim):
    # oracle: each row's own gradients from the 2-D cbow_gradients, with
    # outputs [center] + the negatives of its block that are not its
    # center, scaled by -alpha and accumulated
    from crossmoji.embedding import GROUP, _apply_batch, _Chunk, _Workspace

    rng = np.random.default_rng(9)
    V, n, window, negatives = 7, 2 * GROUP + 5, 3, 3  # a ragged last block
    syn0 = rng.normal(size=(V, dim)).astype(np.float32)
    syn1 = rng.normal(size=(V, dim)).astype(np.float32)
    centers = rng.integers(0, V, size=n)
    ctx = rng.integers(0, V, size=(n, 2 * window))
    mask = rng.random((n, 2 * window)) < 0.6
    mask[:, 0] = True
    negs = rng.integers(0, V, size=(3, negatives))
    alpha = rng.uniform(0.01, 0.05, size=n)
    clashes = sum(int((negs[b // GROUP] == centers[b]).sum()) for b in range(n))
    assert clashes > 0

    # the oracle runs in float64, on float64 copies of the float32 inputs
    at0, at1 = syn0.astype(np.float64), syn1.astype(np.float64)
    exp0, exp1 = at0.copy(), at1.copy()
    expected_loss = 0.0
    for b in range(n):
        real = ctx[b][mask[b]]
        outs = np.r_[centers[b], [i for i in negs[b // GROUP] if i != centers[b]]]
        loss, grad_ctx, grad_out = cbow_gradients(at0[real], at1[outs])
        expected_loss += loss
        np.add.at(exp0, real, -alpha[b] * grad_ctx)
        np.add.at(exp1, outs, -alpha[b] * grad_out)

    chunk = _Chunk.of(centers, ctx, mask, alpha, negs)
    work = _Workspace.of(n, window=window, negatives=negatives, dim=dim)
    got = _apply_batch(syn0, syn1, chunk, 0, work)
    assert got == pytest.approx(expected_loss, rel=1e-5)
    assert np.allclose(syn0, exp0, rtol=1e-5, atol=1e-5)
    assert np.allclose(syn1, exp1, rtol=1e-5, atol=1e-5)


def test_chunk_positions_match_per_position_window_oracle():
    # oracle: the per-sentence, per-position window loop, fed the same
    # subsampling and shrink draws (one generator, same order)
    from crossmoji.embedding import _chunk_positions

    rng = np.random.default_rng(5)
    lengths = np.array([1, 7, 2, 5, 3])
    ids = rng.integers(0, 9, size=lengths.sum())
    keep_prob = np.linspace(0.3, 1.0, 9)
    window = 3
    centers, ctx, mask, sentence = _chunk_positions(ids, lengths, keep_prob, window,
                                                    np.random.default_rng(77))

    oracle_rng = np.random.default_rng(77)
    kept = oracle_rng.random(len(ids)) < keep_prob[ids]
    shrink = oracle_rng.integers(1, window + 1, size=int(kept.sum()))
    expected, k = [], 0
    ends = np.cumsum(lengths)
    for s, (lo, hi) in enumerate(zip(ends - lengths, ends)):
        sent = ids[lo:hi][kept[lo:hi]]
        for pos in range(len(sent)):
            w = shrink[k]
            k += 1
            window_ids = list(sent[max(0, pos - w):pos]) + list(sent[pos + 1:pos + 1 + w])
            if window_ids:
                expected.append((int(sent[pos]), window_ids, s))
    got = [(int(c), list(row[m]), int(sn)) for c, row, m, sn in zip(centers, ctx, mask, sentence)]
    assert got == expected
    assert len(got) > 5


def test_every_batch_of_a_chunk_steps_as_a_chunk_of_its_own():
    # the per-chunk arrays are sliced right for every batch: the batches of
    # one chunk give the bits of one chunk per batch
    from crossmoji.embedding import BATCH, GROUP, _apply_batch, _Chunk, _Workspace

    rng = np.random.default_rng(12)
    n, window, negatives, dim = 2 * BATCH + 21, 2, 3, 6
    syn0 = rng.normal(size=(30, dim)).astype(np.float32)
    syn1 = rng.normal(size=(30, dim)).astype(np.float32)
    centers = rng.integers(0, 30, size=n)
    ctx = rng.integers(0, 30, size=(n, 2 * window))
    mask = rng.random((n, 2 * window)) < 0.5
    mask[:, 1] = True
    negs = rng.integers(0, 30, size=(-(-n // GROUP), negatives))
    alpha = rng.uniform(0.01, 0.05, size=n)
    work = _Workspace.of(BATCH, window, negatives, dim)
    whole = (syn0.copy(), syn1.copy())
    chunk = _Chunk.of(centers, ctx, mask, alpha, negs)
    losses = [_apply_batch(*whole, chunk, b, work) for b in range(0, n, BATCH)]
    for b, loss in zip(range(0, n, BATCH), losses):
        rows, blocks = slice(b, b + BATCH), slice(b // GROUP, (b + BATCH) // GROUP)
        own = _Chunk.of(centers[rows], ctx[rows], mask[rows], alpha[rows], negs[blocks])
        assert _apply_batch(syn0, syn1, own, 0, work) == loss
    assert np.array_equal(bits(syn0), bits(whole[0]))
    assert np.array_equal(bits(syn1), bits(whole[1]))


def test_masked_clash_adds_no_loss_and_no_negative_update():
    # both rows have center 0 and share the block's negatives [0, 0, 2]: the
    # two 0s add nothing, so syn1[0] moves by the positive updates alone
    from crossmoji.embedding import _apply_batch, _Chunk, _sigmoid, _Workspace

    rng = np.random.default_rng(4)
    syn0 = rng.normal(size=(4, 6)).astype(np.float32)
    syn1 = rng.normal(size=(4, 6)).astype(np.float32)
    centers, ctx = np.array([0, 0]), np.array([[1, 3], [3, 2]])
    mask = np.ones((2, 2), dtype=bool)
    alpha = np.array([0.05, 0.02])
    # the oracle runs in float64, on float64 copies of the float32 inputs
    at0, at1 = syn0.astype(np.float64), syn1.astype(np.float64)
    h = at0[ctx].mean(axis=1)
    pos, neg = h @ at1[0], h @ at1[2]
    expected_loss = (np.logaddexp(0, -pos) + np.logaddexp(0, neg)).sum()
    expected0 = at1[0] - ((alpha * (_sigmoid(pos) - 1.0))[:, None] * h).sum(axis=0)
    expected2 = at1[2] - ((alpha * _sigmoid(neg))[:, None] * h).sum(axis=0)
    untouched = syn1[[1, 3]].copy()

    chunk = _Chunk.of(centers, ctx, mask, alpha, np.array([[0, 0, 2]]))
    loss = _apply_batch(syn0, syn1, chunk, 0, _Workspace.of(2, window=1, negatives=3, dim=6))
    assert loss == pytest.approx(expected_loss, rel=1e-5)
    assert np.allclose(syn1[0], expected0, rtol=1e-5, atol=1e-5)
    assert np.allclose(syn1[2], expected2, rtol=1e-5, atol=1e-5)
    assert np.array_equal(syn1[[1, 3]], untouched)


def test_non_finite_parameters_fatal_with_diagnostics():
    from crossmoji.embedding import TrainingDivergedError, _check_finite

    syn0 = np.ones((3, 4))
    syn1 = np.ones((3, 4))
    syn0[1, 2] = np.nan
    syn1[0, 0] = np.inf
    with pytest.raises(TrainingDivergedError, match="epoch 3"):
        _check_finite(syn0, syn1, epoch=3)


# --- neighbors -------------------------------------------------------------------

def model_with_rows(rows):
    from crossmoji.embedding import EmbeddingModel, Vocabulary

    tokens = tuple(rows)
    syn0 = np.array([rows[t] for t in tokens], dtype=float)
    vocab = Vocabulary(tokens=tokens, counts=(1,) * len(tokens), corpus_tokens=len(tokens))
    return EmbeddingModel(vocab=vocab, syn0=syn0, params=TrainParams(dim=syn0.shape[1]))


def test_neighbors_k_zero_empty():
    m = model_with_rows({"x": [1.0, 0.0], "y": [0.0, 1.0]})
    assert neighbors(m, "x", 0) == []


def test_identical_rows_are_perfect_neighbors():
    m = model_with_rows({"x": [1.0, 2.0], "y": [1.0, 2.0], "z": [-1.0, 0.5]})
    assert neighbors(m, "x", 1) == [("y", pytest.approx(1.0))]


def test_neighbors_descending_and_self_excluded():
    m = model_with_rows({"a": [1.0, 0.0], "b": [0.9, 0.1], "c": [0.0, 1.0]})
    got = neighbors(m, "a", 3)
    assert [t for t, _ in got] == ["b", "c"]
    sims = [s for _, s in got]
    assert sims == sorted(sims, reverse=True)


def test_neighbors_oov_error():
    m = model_with_rows({"x": [1.0, 0.0]})
    with pytest.raises(TokenNotFoundError):
        neighbors(m, "nope", 2)


# --- persistence ---------------------------------------------------------------------

TINY_SENTENCES = streams(*(["red green blue yellow"] * 15))


def tiny_vocab():
    return build_vocabulary(TINY_SENTENCES, min_count=1)


def trained_tiny_model():
    vocab = tiny_vocab()
    params = TrainParams(dim=5, epochs=2, window=2, negatives=2, seed=42)
    return train_cbow(encode_streams(TINY_SENTENCES, vocab), vocab, params)


def test_round_trip_bit_identical(tmp_path):
    model = trained_tiny_model()
    path = tmp_path / "m.vec"
    save_model(model, path)
    back = load_model(path, tiny_vocab())
    assert back.vocab == model.vocab
    assert model.syn0.dtype == back.syn0.dtype == np.float32
    assert np.array_equal(bits(back.syn0), bits(model.syn0))
    assert back.params == model.params
    assert back.epoch_losses == model.epoch_losses
    # the metadata holds no vocabulary, and the file the (|V|, d) input
    # matrix alone, little-endian float32
    header, _, npy = path.read_bytes().partition(b"\n")
    assert list(json.loads(header)) == ["format", "params", "epoch_losses"]
    matrix = np.lib.format.read_array(io.BytesIO(npy))
    assert matrix.shape == (len(model.vocab), model.dim)
    assert matrix.dtype.str == "<f4"


def test_restrict_keeps_the_named_rows_in_vocabulary_order():
    model = trained_tiny_model()
    tokens = model.vocab.tokens
    wanted = [tokens[3], "absent", tokens[0], tokens[3]]
    cut = model.restrict(wanted)
    assert type(cut) is EmbeddingModel
    assert cut.vocab.tokens == (tokens[0], tokens[3])
    assert cut.vocab.counts == (model.vocab.counts[0], model.vocab.counts[3])
    assert cut.vocab.corpus_tokens == model.vocab.corpus_tokens
    assert (cut.params, cut.epoch_losses) == (model.params, model.epoch_losses)
    for token in cut.vocab.tokens:
        assert np.array_equal(bits(cut.vector(token)), bits(model.vector(token)))
    assert "absent" not in cut.vocab and tokens[1] not in cut.vocab
    assert cut.syn0.dtype == np.float32 and cut.syn0.shape == (2, model.dim)
    assert not np.shares_memory(cut.syn0, model.syn0)  # the full matrix can go
    assert model.restrict([]).syn0.shape == (0, model.dim)


def test_save_then_save_again_identical_bytes(tmp_path):
    model = trained_tiny_model()
    p1, p2 = tmp_path / "a.vec", tmp_path / "b.vec"
    save_model(model, p1)
    save_model(load_model(p1, model.vocab), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_that_fails_mid_write_leaves_no_file(tmp_path, monkeypatch):
    # the model goes to a temporary name and is renamed only once whole
    def torn_save(f, array, allow_pickle=True):
        f.write(b"\x93NUMPY partial")
        raise OSError("disk full")

    path = tmp_path / "m.vec"
    model = trained_tiny_model()
    monkeypatch.setattr(np, "save", torn_save)
    with pytest.raises(OSError, match="disk full"):
        save_model(model, path)
    assert list(tmp_path.iterdir()) == []


def saved_tiny_model(tmp_path):
    """A saved model: its file's metadata line and the .npy bytes after it."""
    model = trained_tiny_model()
    path = tmp_path / "m.vec"
    save_model(model, path)
    header, _, matrix = path.read_bytes().partition(b"\n")
    return model, json.loads(header), matrix


def write_model_file(path, meta, matrix):
    path.write_bytes(json.dumps(meta).encode("utf-8") + b"\n" + matrix)
    return path


def npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def assert_format_error(path, match="", vocab=None):
    with pytest.raises(ModelFormatError, match=re.escape(f"{path}: ") + ".*" + match):
        load_model(path, vocab or tiny_vocab())


def test_truncated_file_fatal(tmp_path):
    _, meta, matrices = saved_tiny_model(tmp_path)
    # inside the .npy magic, inside its header, inside the data
    for cut in (3, 40, len(matrices) - 8):
        assert_format_error(write_model_file(tmp_path / "trunc.vec", meta, matrices[:cut]),
                            "EOF|read all data")


def test_header_only_file_fatal(tmp_path):
    _, meta, _ = saved_tiny_model(tmp_path)
    assert_format_error(write_model_file(tmp_path / "h.vec", meta, b""), "EOF")


def test_wrong_format_marker_fatal(tmp_path):
    for i, text in enumerate(["3 5\nfoo 1 2 3 4 5\n", "[1, 2]\n", "\n", ""]):
        (tmp_path / f"x{i}.vec").write_text(text)
        assert_format_error(tmp_path / f"x{i}.vec")


def test_future_format_version_rejected(tmp_path):
    _, meta, matrices = saved_tiny_model(tmp_path)
    meta["format"] = "crossmoji-model 9"
    assert_format_error(write_model_file(tmp_path / "v9.vec", meta, matrices),
                        "not a crossmoji-model 5 file")


def test_format_2_file_with_output_matrix_rejected(tmp_path):
    # the parent's layout: the input and output matrices stacked as (2, |V|, d)
    model, meta, _ = saved_tiny_model(tmp_path)
    meta["format"] = "crossmoji-model 2"
    stacked = npy_bytes(np.stack([model.syn0, np.zeros_like(model.syn0)]))
    assert_format_error(write_model_file(tmp_path / "v2.vec", meta, stacked),
                        "not a crossmoji-model 5 file")


def test_format_3_float64_file_rejected(tmp_path):
    # the parent's layout: the same (|V|, d) input matrix, as float64
    model, meta, _ = saved_tiny_model(tmp_path)
    meta["format"] = "crossmoji-model 3"
    wide = npy_bytes(model.syn0.astype(np.float64))
    assert_format_error(write_model_file(tmp_path / "v3.vec", meta, wide),
                        "not a crossmoji-model 5 file")


def test_format_4_file_with_vocabulary_rejected(tmp_path):
    # the parent's layout: the same matrix, with the vocabulary in the metadata
    model, meta, matrices = saved_tiny_model(tmp_path)
    vocab = model.vocab
    meta |= {"format": "crossmoji-model 4", "min_count": 1,
             "corpus_tokens": vocab.corpus_tokens, "tokens": list(vocab.tokens),
             "counts": list(vocab.counts)}
    assert_format_error(write_model_file(tmp_path / "v4.vec", meta, matrices),
                        "not a crossmoji-model 5 file")


def test_parent_text_format_file_rejected(tmp_path):
    path = tmp_path / "old.vec"
    path.write_text("# crossmoji-model 1\n# dim: 2\n# seed: 1\n2 2\n"
                    "a 0.5 -0.25\nb 0.125 1.0\n# counts\na 3\nb 2\n"
                    "# output\na 0.0 0.0\nb 0.0 0.0\n")
    assert_format_error(path)


def test_dimension_mismatch_fatal(tmp_path):
    _, meta, matrices = saved_tiny_model(tmp_path)
    meta["params"]["dim"] = 7
    assert_format_error(write_model_file(tmp_path / "bad.vec", meta, matrices),
                        r"\(4, 5\), expected \(4, 7\)")


def test_wrong_row_width_fatal(tmp_path):
    model, meta, _ = saved_tiny_model(tmp_path)
    narrow = model.syn0[:, :-1]  # drop one column
    assert_format_error(write_model_file(tmp_path / "narrow.vec", meta, npy_bytes(narrow)),
                        r"input matrix is \(4, 4\), expected \(4, 5\)")


def test_vocabulary_of_the_wrong_size_fatal(tmp_path):
    # a model file is read with its corpus's vocabulary: one row per token
    _, meta, matrices = saved_tiny_model(tmp_path)
    path = write_model_file(tmp_path / "m.vec", meta, matrices)
    for sentence, rows in (("red green blue yellow stranger", 5), ("red green blue", 3)):
        assert_format_error(path, rf"\(4, 5\), expected \({rows}, 5\)",
                            build_vocabulary(streams(sentence), min_count=1))


@pytest.mark.parametrize("edit, match", [
    (lambda meta: meta.pop("epoch_losses"), "metadata lacks 'epoch_losses'"),
    (lambda meta: meta["params"].update(mode="parallel"), "unexpected keyword argument 'mode'"),
], ids=["missing-key", "unknown-param"])
def test_inconsistent_metadata_fatal(tmp_path, edit, match):
    _, meta, matrices = saved_tiny_model(tmp_path)
    edit(meta)
    assert_format_error(write_model_file(tmp_path / "odd.vec", meta, matrices), match)


def test_garbled_or_foreign_matrices_fatal(tmp_path):
    model, meta, matrices = saved_tiny_model(tmp_path)
    for name, data, match in [
        ("magic", b"XX" + matrices[2:], "magic"),
        ("float64", npy_bytes(model.syn0.astype(np.float64)), "float64"),
        ("big-endian", npy_bytes(model.syn0.astype(">f4")), "expected float32"),
        ("pickled", npy_bytes(np.array([None, 1], dtype=object)), "pickle"),
        ("trailing", matrices + b"\0", "trailing bytes"),
    ]:
        assert_format_error(write_model_file(tmp_path / f"{name}.vec", meta, data), match)
