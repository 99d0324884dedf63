"""CBOW embeddings with negative sampling, trained from token streams.

The mean of the context input vectors predicts the center token against
`negatives` sampled non-context tokens under a logistic loss:

    L = -log sigmoid(h . o_pos) - sum_k log sigmoid(-h . o_neg_k)

where h is the context mean.  Gradients are the exact analytic gradients of
L (the context update is the output-side error divided by the context
size), so they check out against finite differences.

Training is minibatch SGD (Ji et al., arXiv:1604.04661): positions are taken
`BATCH` at a time, `cbow_gradients` evaluates every gradient of a batch at
the same parameters, and each matrix then gets one scatter-add.  One seeded
generator drives all sampling, so a fixed seed reproduces a model exactly.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .corpus import TypeStreams
from .fileio import atomic_write, read_arrays, write_arrays

MODEL_FORMAT = "crossmoji-model 3"

BATCH = 256  # positions per minibatch step
CHUNK_TOKENS = 4096  # positions are built for about this many tokens at a time


class EmptyVocabularyError(ValueError):
    """No token survived the min_count cut."""


class TokenNotFoundError(KeyError):
    """Lookup of a token absent from the vocabulary."""


class TrainingDivergedError(RuntimeError):
    """NaN/Inf detected in the parameter matrices."""


class ModelFormatError(ValueError):
    """Unreadable or inconsistent model file."""


@dataclass(frozen=True)
class Vocabulary:
    """Dense-indexed token counts; tokens below min_count are excluded."""

    tokens: tuple[str, ...]
    counts: tuple[int, ...]
    min_count: int
    corpus_tokens: int  # all stream tokens, including ones below min_count

    def __post_init__(self):
        object.__setattr__(self, "index", {t: i for i, t in enumerate(self.tokens)})

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    @property
    def kept_tokens(self) -> int:
        return sum(self.counts)

    def count(self, token: str) -> int:
        return self.counts[self.index[token]]


def vocabulary_of(streams: TypeStreams, min_count: int) -> Vocabulary:
    """The vocabulary of a type table's exact counts; deterministic index
    order (count desc, then token)."""
    kept = [(t, c) for t, c in zip(streams.types, streams.counts.tolist()) if c >= min_count]
    if not kept:
        raise EmptyVocabularyError(
            f"no token reaches min_count={min_count} (saw {len(streams.types)} distinct tokens)"
        )
    kept.sort(key=lambda tc: (-tc[1], tc[0]))
    return Vocabulary(
        tokens=tuple(t for t, _ in kept),
        counts=tuple(c for _, c in kept),
        min_count=min_count,
        corpus_tokens=len(streams.ids),
    )


def build_vocabulary(streams: Iterable, min_count: int) -> Vocabulary:
    """`vocabulary_of` token streams (`TokenStream`s or token sequences)."""
    return vocabulary_of(TypeStreams.of(streams), min_count)


@dataclass(frozen=True)
class TrainParams:
    dim: int = 100
    epochs: int = 10
    lr0: float = 0.025
    lr_min: float = 1e-4
    window: int = 5
    negatives: int = 5
    subsample: float = 1e-4
    seed: int = 1

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (self.lr0 > self.lr_min > 0):
            raise ValueError("require lr0 > lr_min > 0")
        if self.window < 1 or self.negatives < 1 or self.epochs < 1:
            raise ValueError("window, negatives and epochs must be >= 1")


@dataclass
class EmbeddingModel:
    """One training run: its input matrix (the token representation used
    downstream) and the exact parameters that produced it.  The output
    matrix only serves training and is not kept."""

    vocab: Vocabulary
    syn0: np.ndarray  # |V| x d input vectors
    params: TrainParams
    epoch_losses: tuple[float, ...] = ()
    train_seconds: float = 0.0  # wall time of the training run; not saved

    @property
    def dim(self) -> int:
        return int(self.syn0.shape[1])

    def vector(self, token: str) -> np.ndarray:
        try:
            return self.syn0[self.vocab.index[token]]
        except KeyError:
            raise TokenNotFoundError(token) from None


# --- loss kernel ----------------------------------------------------------

def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def cbow_loss(context_vectors: np.ndarray, output_vectors: np.ndarray) -> float:
    """Negative-sampling loss; output_vectors[0] is the center token's output
    vector, the rest are sampled negatives."""
    h = context_vectors.mean(axis=0)
    scores = output_vectors @ h
    # -log sigmoid(x) = log(1 + exp(-x)), computed stably
    loss = np.logaddexp(0.0, -scores[0]) + np.logaddexp(0.0, scores[1:]).sum()
    return float(loss)


def cbow_gradients(context_vectors: np.ndarray, output_vectors: np.ndarray,
                   mask: Optional[np.ndarray] = None, out: Optional[tuple] = None):
    """Loss plus exact gradients w.r.t. the context and output vectors.

    One position: context_vectors (C, d) and output_vectors (1 + K, d), the
    center's output vector first; returns a float loss.  A batch: the same
    with a leading batch axis, (B, C, d) and (B, 1 + K, d), plus a (B, C)
    `mask` of the real context slots of each row (None: all are real);
    returns a (B,) loss array and zero gradients on the padded slots, written
    into the (context, output) gradient arrays `out` when given.  `out` may be
    the input arrays themselves: they are read before it is written."""
    if context_vectors.ndim == 2:
        loss, grad_ctx, grad_out = cbow_gradients(context_vectors[None],
                                                  output_vectors[None])
        return float(loss[0]), grad_ctx[0], grad_out[0]
    if mask is None:
        mask = np.ones(context_vectors.shape[:2], dtype=bool)
    weights = mask / mask.sum(axis=1, keepdims=True)  # 1/context size on real slots
    h = np.einsum("bc,bcd->bd", weights, context_vectors)
    scores = np.einsum("bkd,bd->bk", output_vectors, h)
    g = _sigmoid(scores)
    g[:, 0] -= 1.0  # (sigmoid - label); label 1 for the center, 0 for negatives
    grad_h = np.einsum("bk,bkd->bd", g, output_vectors)
    grad_ctx, grad_out = out if out is not None else (None, None)
    grad_out = np.multiply(g[:, :, None], h[:, None, :], out=grad_out)
    grad_ctx = np.multiply(weights[:, :, None], grad_h[:, None, :], out=grad_ctx)
    # -log sigmoid(x) = log(1 + exp(-x)), computed stably
    loss = np.logaddexp(0.0, -scores[:, 0]) + np.logaddexp(0.0, scores[:, 1:]).sum(axis=1)
    return loss, grad_ctx, grad_out


def subsample_keep_probabilities(
    counts_in_stream: np.ndarray, subsample: float, stream_tokens: int
) -> Optional[np.ndarray]:
    """Per-vocab-index keep probabilities; None disables subsampling entirely
    (exact pass-through: every token participates)."""
    if not subsample or subsample <= 0:
        return None
    threshold_count = subsample * stream_tokens
    counts = counts_in_stream.astype(np.float64).copy()
    counts[counts == 0] = 1.0
    keep = (np.sqrt(counts / threshold_count) + 1.0) * (threshold_count / counts)
    return np.minimum(keep, 1.0)


def _negative_table(vocab: Vocabulary, power: float = 0.75) -> np.ndarray:
    weights = np.array(vocab.counts, dtype=np.float64) ** power
    cum = np.cumsum(weights)
    return cum / cum[-1]


def encode_types(streams: TypeStreams, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """What `train_cbow` trains on: the in-vocabulary token ids (int64) of
    all posts back to back, and the length of each post; posts without an
    in-vocabulary token are dropped."""
    lookup = np.array([vocab.index.get(t, -1) for t in streams.types], dtype=np.int64)
    ids = lookup[streams.ids]
    kept = ids >= 0
    post = np.repeat(np.arange(len(streams.lengths)), streams.lengths)
    lengths = np.bincount(post[kept], minlength=len(streams.lengths))
    return ids[kept], lengths[lengths > 0]


def encode_streams(streams: Iterable, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """`encode_types` of token streams (`TokenStream`s or token sequences)."""
    return encode_types(TypeStreams.of(streams), vocab)


def _chunk_positions(ids: np.ndarray, lengths: np.ndarray, keep_prob: Optional[np.ndarray],
                     window: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Every training position of a run of sentences stored back to back.

    Each token is kept with its subsampling probability, then each kept token
    draws its window shrink w in [1, window] and becomes a center whose
    context is the kept tokens up to w away in its own sentence.  Returns the
    centers, their (P, 2 * window) context ids and mask of real slots, and
    the sentence of each position; a center without context is no position."""
    sentence = np.repeat(np.arange(len(lengths)), lengths)
    if keep_prob is not None:
        kept = rng.random(len(ids)) < keep_prob[ids]
        ids, sentence = ids[kept], sentence[kept]
    kept_lengths = np.bincount(sentence, minlength=len(lengths))
    flat = np.arange(len(ids))
    pos = flat - (np.cumsum(kept_lengths) - kept_lengths)[sentence]
    shrink = rng.integers(1, window + 1, size=len(ids))
    offsets = np.r_[-window:0, 1:window + 1]
    ctx_pos = pos[:, None] + offsets
    mask = ((np.abs(offsets) <= shrink[:, None]) & (ctx_pos >= 0)
            & (ctx_pos < kept_lengths[sentence][:, None]))
    ctx = ids[np.clip(flat[:, None] + offsets, 0, len(ids) - 1)]
    has_ctx = mask.any(axis=1)
    return ids[has_ctx], ctx[has_ctx], mask[has_ctx], sentence[has_ctx]


def _scatter_add(matrix: np.ndarray, rows: np.ndarray, updates: np.ndarray,
                 scale: np.ndarray, mask: Optional[np.ndarray] = None) -> None:
    """matrix[rows[b, j]] += scale[b] * updates[b, j] for every slot (b, j),
    or every slot `mask` marks; repeated rows accumulate, in slot order.

    One np.add.at over flat element indices of the (C-contiguous) matrix,
    which numpy >= 1.25 runs as a single indexed loop.  Row-wise np.add.at
    takes a slow generic path, and a sorted np.add.reduceat makes one call
    per (distinct row, column): on a wide vocabulary both measured 2-3x slower."""
    picked = np.flatnonzero(mask) if mask is not None else np.arange(rows.size)
    scaled = updates.reshape(rows.size, -1)[picked]
    scaled *= scale[picked // rows.shape[1], None]
    dim = matrix.shape[1]
    cells = rows.ravel()[picked, None] * dim + np.arange(dim)
    np.add.at(matrix.reshape(-1), cells.ravel(), scaled.ravel())


def _draw_outputs(centers: np.ndarray, neg_cum: np.ndarray, negatives: int,
                  rng: np.random.Generator) -> np.ndarray:
    """(B, 1 + negatives) output ids: each row's center, then negatives drawn
    from the unigram^0.75 table and redrawn wherever one hits its row's center."""
    outs = np.empty((len(centers), negatives + 1), dtype=np.int64)
    outs[:, 0] = centers
    outs[:, 1:] = np.searchsorted(neg_cum, rng.random((len(centers), negatives)))
    clash = outs[:, 1:] == centers[:, None]
    while clash.any():
        outs[:, 1:][clash] = np.searchsorted(neg_cum, rng.random(np.count_nonzero(clash)))
        clash = outs[:, 1:] == centers[:, None]
    return outs


def _apply_batch(syn0: np.ndarray, syn1: np.ndarray, ctx: np.ndarray, mask: np.ndarray,
                 outs: np.ndarray, alpha: np.ndarray, work: tuple) -> float:
    """One SGD step for a batch of positions; row b has learning rate alpha[b].

    All gradients are taken at the current parameters, then applied; repeated
    context or output ids, within a row or across rows, accumulate their
    updates.  `work` holds a full batch's context and output vectors, which
    their gradients then overwrite.  Returns the summed loss."""
    ctx_vecs, out_vecs = (a[: len(ctx)] for a in work)
    # mode="clip" writes straight into `out` (ids are always in range)
    np.take(syn0, ctx, axis=0, out=ctx_vecs, mode="clip")
    np.take(syn1, outs, axis=0, out=out_vecs, mode="clip")
    loss, grad_ctx, grad_out = cbow_gradients(ctx_vecs, out_vecs, mask,
                                              out=(ctx_vecs, out_vecs))
    _scatter_add(syn0, ctx, grad_ctx, -alpha, mask)
    _scatter_add(syn1, outs, grad_out, -alpha)
    return float(loss.sum())


def train_cbow(
    encoded: tuple[np.ndarray, np.ndarray],
    vocab: Vocabulary,
    params: TrainParams,
    alpha_trace: Optional[Callable[[int, float], None]] = None,
) -> EmbeddingModel:
    """Train one CBOW model for exactly `params.epochs` passes over
    `encoded`, the (ids, lengths) pair `encode_types` gives.

    The learning rate decays linearly with the number of in-vocabulary tokens
    consumed (pre-subsampling), refreshed once per sentence; `alpha_trace`,
    if given, receives (tokens consumed, learning rate) for every sentence."""
    start = time.perf_counter()
    if len(vocab) < 2:
        raise EmptyVocabularyError(
            "need at least 2 vocabulary tokens to sample negatives")
    ids, lengths = encoded
    if not len(lengths):
        raise EmptyVocabularyError("no sentence contains an in-vocabulary token")

    rng = np.random.default_rng(params.seed)
    V, d = len(vocab), params.dim
    syn0 = rng.uniform(-0.5 / d, 0.5 / d, size=(V, d))
    syn1 = np.zeros((V, d))
    neg_cum = _negative_table(vocab)
    keep_prob = subsample_keep_probabilities(np.bincount(ids, minlength=V),
                                             params.subsample, len(ids))

    total_words = len(ids) * params.epochs
    lr_span = params.lr_min - params.lr0
    ends = np.cumsum(lengths)
    starts = ends - lengths  # token offset of each sentence
    chunks = np.r_[0, np.flatnonzero(np.diff(starts // CHUNK_TOKENS)) + 1, len(lengths)]
    # reused by every batch: fresh multi-megabyte temporaries on every batch
    # cost more in page faults than the arithmetic on them
    work = (np.empty((BATCH, 2 * params.window, d)), np.empty((BATCH, params.negatives + 1, d)))
    epoch_losses: list[float] = []
    for epoch in range(params.epochs):
        loss_sum, n_positions = 0.0, 0
        for s0, s1 in zip(chunks[:-1], chunks[1:]):
            done = epoch * len(ids) + starts[s0:s1]
            alpha = np.maximum(params.lr0 + (done / total_words) * lr_span, params.lr_min)
            if alpha_trace is not None:
                for words_done, a in zip(done.tolist(), alpha.tolist()):
                    alpha_trace(words_done, a)
            centers, ctx, mask, sentence = _chunk_positions(
                ids[starts[s0] : ends[s1 - 1]], lengths[s0:s1], keep_prob,
                params.window, rng)
            row_alpha = alpha[sentence]
            for b in range(0, len(centers), BATCH):
                batch = slice(b, b + BATCH)
                outs = _draw_outputs(centers[batch], neg_cum, params.negatives, rng)
                loss_sum += _apply_batch(syn0, syn1, ctx[batch], mask[batch], outs,
                                         row_alpha[batch], work)
            n_positions += len(centers)
        epoch_losses.append(loss_sum / max(n_positions, 1))
        _check_finite(syn0, syn1, epoch)

    return EmbeddingModel(
        vocab=vocab, syn0=syn0, params=params,
        epoch_losses=tuple(epoch_losses), train_seconds=time.perf_counter() - start,
    )


def _check_finite(syn0: np.ndarray, syn1: np.ndarray, epoch: int) -> None:
    if not (np.isfinite(syn0).all() and np.isfinite(syn1).all()):
        bad0 = int(np.count_nonzero(~np.isfinite(syn0)))
        bad1 = int(np.count_nonzero(~np.isfinite(syn1)))
        raise TrainingDivergedError(
            f"non-finite parameters after epoch {epoch}: "
            f"{bad0} bad entries in the input matrix, {bad1} in the output matrix"
        )


def train_run_set(
    streams: Sequence,
    vocab: Vocabulary,
    params: TrainParams,
    n_runs: int,
) -> list[EmbeddingModel]:
    """Train `n_runs` independent models over one shared vocabulary, on
    token streams encoded once.

    Run r uses seed `params.seed + r`, so runs differ only by their
    random initialization and sampling."""
    encoded = encode_streams(streams, vocab)
    return [train_cbow(encoded, vocab, replace(params, seed=params.seed + r))
            for r in range(n_runs)]


def neighbors(model: EmbeddingModel, token: str, k: int) -> list[tuple[str, float]]:
    """k nearest vocabulary tokens by cosine on input vectors, self excluded."""
    if token not in model.vocab.index:
        raise TokenNotFoundError(token)
    if k <= 0:
        return []
    idx = model.vocab.index[token]
    norms = np.linalg.norm(model.syn0, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    sims = (model.syn0 @ model.syn0[idx]) / (safe * max(norms[idx], 1e-300))
    sims[norms == 0] = -np.inf
    sims[idx] = -np.inf
    order = np.argsort(-sims, kind="stable")[:k]
    return [(model.vocab.tokens[i], float(sims[i])) for i in order if np.isfinite(sims[i])]


# --- persistence ----------------------------------------------------------

def save_model(model: EmbeddingModel, path) -> None:
    """The `fileio.write_arrays` layout: one JSON metadata line (format tag,
    training parameters, vocabulary), then the (|V|, d) input matrix.  The
    output matrix is not saved: no stage reads it, and it would double the
    bytes written, read and hashed.  The same model always gives the same
    bytes; the file is renamed into place once complete."""
    vocab = model.vocab
    meta = {
        "format": MODEL_FORMAT,
        "params": asdict(model.params),
        "min_count": vocab.min_count,
        "corpus_tokens": vocab.corpus_tokens,
        "epoch_losses": list(model.epoch_losses),
        "tokens": list(vocab.tokens),
        "counts": list(vocab.counts),
    }
    with atomic_write(path, "wb") as f:
        write_arrays(f, meta, [model.syn0])


def load_model(path) -> EmbeddingModel:
    """Inverse of save_model; load(save(m)) reproduces m exactly.  Anything
    that does not decode to a consistent model, a file of an older format
    included, raises ModelFormatError naming `path`."""
    try:
        meta, [syn0] = read_arrays(path, MODEL_FORMAT, (np.float64,))
        params = TrainParams(**meta["params"])
        tokens, counts = tuple(meta["tokens"]), tuple(meta["counts"])
        if len(counts) != len(tokens):
            raise ModelFormatError(f"{len(counts)} counts for {len(tokens)} tokens")
        shape = (len(tokens), params.dim)
        if syn0.shape != shape:
            raise ModelFormatError(f"input matrix is {syn0.shape}, expected {shape}")
        vocab = Vocabulary(tokens=tokens, counts=counts, min_count=meta["min_count"],
                           corpus_tokens=meta["corpus_tokens"])
        epoch_losses = tuple(meta["epoch_losses"])
    except KeyError as exc:
        raise ModelFormatError(f"{path}: metadata lacks {exc}") from exc
    except (TypeError, ValueError, EOFError) as exc:  # ModelFormatError is a ValueError
        raise ModelFormatError(f"{path}: {exc}") from exc
    return EmbeddingModel(vocab=vocab, syn0=syn0, params=params, epoch_losses=epoch_losses)
