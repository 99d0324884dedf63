"""CBOW embeddings with negative sampling, trained from token streams.

The mean of the context input vectors predicts the center token against
`negatives` sampled non-context tokens under a logistic loss:

    L = -log sigmoid(h . o_pos) - sum_k log sigmoid(-h . o_neg_k)

where h is the context mean.  Gradients are the exact analytic gradients of
L (the context update is the output-side error divided by the context
size), so they check out against finite differences (`cbow_gradients`).

Training is minibatch SGD with block-shared negatives (Ji et al.,
arXiv:1604.04661): positions are taken `BATCH` at a time, every gradient of
a batch is evaluated at the same parameters, and each matrix then gets one
scatter-add.  Each block of `GROUP` consecutive positions shares its K
negatives, so a batch gathers and updates B + (B / GROUP) * K output rows,
not B * (1 + K).  A shared negative equal to a row's center is masked for
that row: it adds no loss and no gradient there.  The negatives' scores,
their part of the gradient w.r.t. h and their updates are block einsums,
never a matmul, so no BLAS library, and none of its threads, decides the
bits.  What is the same for every batch of a chunk is computed once per
chunk (`_Chunk`): the negatives, drawn at once, the clash mask, and the
1/context-size weights.  One seeded generator drives all sampling, so a
fixed seed reproduces a model exactly.

Every gradient is rank 1, so the step applies the factors and builds no
(B, 2 * window, d) context gradient: every real context slot of row b gets
the row's grad_h[b] * -alpha[b] / context size.  One workspace per
`train_cbow` call holds the gathered vectors, which their updates then
overwrite, and the scatter-add's indices.

Every parameter is float32, as in the reference word2vec (Mikolov et al.,
NeurIPS 2013): `syn0` is drawn in float64 and cast once, and the workspace
and the per-chunk float arrays are float32, so the step works in one
dtype.  An even `dim` is scatter-added as complex64 pairs: a complex add is
two independent float32 adds in the same order, so the same bits.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .fileio import TypeStreams, atomic_write, read_arrays, write_arrays

MODEL_FORMAT = "crossmoji-model 5"

BATCH = 256  # positions per minibatch step
GROUP = 16  # consecutive positions sharing their negatives; divides BATCH
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


def build_vocabulary(streams: Iterable, min_count: int) -> Vocabulary:
    """The vocabulary of token streams (`TokenStream`s, token sequences or
    a `TypeStreams`), from their exact counts; deterministic index order
    (count desc, then token)."""
    streams = TypeStreams.of(streams)
    kept = [(t, c) for t, c in zip(streams.types, streams.counts.tolist()) if c >= min_count]
    if not kept:
        raise EmptyVocabularyError(
            f"no token reaches min_count={min_count} (saw {len(streams.types)} distinct tokens)"
        )
    kept.sort(key=lambda tc: (-tc[1], tc[0]))
    return Vocabulary(
        tokens=tuple(t for t, _ in kept),
        counts=tuple(c for _, c in kept),
        corpus_tokens=len(streams.ids),
    )


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
        if self.subsample < 0:
            raise ValueError("subsample must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class EmbeddingModel:
    """One training run: its input matrix (the token representation used
    downstream) and the exact parameters that produced it.  The output
    matrix only serves training and is not kept."""

    vocab: Vocabulary
    syn0: np.ndarray  # |V| x d input vectors, float32
    params: TrainParams
    epoch_losses: tuple[float, ...] = ()
    untrained_losses: tuple[float, ...] = ()  # per epoch, the loss at all scores 0; not saved
    train_seconds: float = 0.0  # wall time of the training run; not saved

    @property
    def dim(self) -> int:
        return int(self.syn0.shape[1])

    def vector(self, token: str) -> np.ndarray:
        """The token's input vector as a float64 copy: what every comparison
        downstream stacks, so its arithmetic stays float64."""
        try:
            return self.syn0[self.vocab.index[token]].astype(np.float64)
        except KeyError:
            raise TokenNotFoundError(token) from None

    def restrict(self, tokens: Iterable[str]) -> EmbeddingModel:
        """The model over those of `tokens` in its vocabulary, in vocabulary
        order, with their counts, vectors and everything else unchanged.
        Its matrix is a copy of those rows, so this model's can be freed."""
        index = self.vocab.index
        rows = sorted({index[t] for t in tokens if t in index})
        vocab = Vocabulary(tokens=tuple(self.vocab.tokens[i] for i in rows),
                           counts=tuple(self.vocab.counts[i] for i in rows),
                           corpus_tokens=self.vocab.corpus_tokens)
        return replace(self, vocab=vocab, syn0=self.syn0[rows])


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
                   mask: Optional[np.ndarray] = None):
    """Loss plus exact gradients w.r.t. the context and output vectors.

    One position: context_vectors (C, d) and output_vectors (1 + K, d), the
    center's output vector first; returns a float loss.  A batch: the same
    with a leading batch axis, (B, C, d) and (B, 1 + K, d), plus a (B, C)
    `mask` of the real context slots of each row (None: all are real);
    returns a (B,) loss array and zero gradients on the padded slots.
    Every gradient is rank 1: context slot (b, c) gets weights[b, c] *
    grad_h[b], output slot (b, k) g[b, k] * h[b]; training applies these
    factors without building the gradients."""
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
    # -log sigmoid(x) = log(1 + exp(-x)), computed stably
    loss = np.logaddexp(0.0, -scores[:, 0]) + np.logaddexp(0.0, scores[:, 1:]).sum(axis=1)
    return loss, weights[:, :, None] * grad_h[:, None, :], g[:, :, None] * h[:, None, :]


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


def encode_streams(streams: Iterable, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """What `train_cbow` trains on, from token streams (`TokenStream`s,
    token sequences or a `TypeStreams`): the in-vocabulary token ids (int32,
    as a stream file stores them) of all posts back to back, and the length
    of each post; posts without an in-vocabulary token are dropped."""
    streams = TypeStreams.of(streams)
    lookup = np.array([vocab.index.get(t, -1) for t in streams.types], dtype=np.int32)
    ids = lookup[streams.ids]
    kept = ids >= 0
    post = np.repeat(np.arange(len(streams.lengths)), streams.lengths)
    lengths = np.bincount(post[kept], minlength=len(streams.lengths))
    return ids[kept], lengths[lengths > 0]


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
                 cells: np.ndarray) -> None:
    """matrix[rows[i]] += updates[i] for every i of the flattened `rows`,
    `updates` holding one row of the matrix's width per entry; repeated rows
    accumulate, in order.  `cells` is an intp buffer of at least
    `updates.size` entries.

    One np.add.at over flat element indices of the (C-contiguous) matrix,
    which numpy >= 1.25 runs as a single indexed loop.  Row-wise np.add.at
    takes a slow generic path, and a sorted np.add.reduceat makes one call
    per (distinct row, column): on a wide vocabulary both measured 2-3x slower.
    An even width is added as complex64 pairs: a complex add is two
    independent float32 adds, in the same order, so the bits are the same
    from half the indices."""
    if matrix.shape[1] % 2 == 0:
        matrix, updates = matrix.view(np.complex64), updates.view(np.complex64)
    width = matrix.shape[1]
    rows = rows.reshape(-1)
    cells = cells[: rows.size * width].reshape(rows.size, width)
    np.multiply(rows[:, None], width, out=cells, dtype=cells.dtype)
    cells += np.arange(width)
    np.add.at(matrix.reshape(-1), cells.reshape(-1), updates.reshape(-1))


@dataclass(frozen=True)
class _Chunk:
    """The positions of one chunk, and all that every batch of them reads
    that is the same for every batch, computed once per chunk.  Block j is
    positions GROUP * j to GROUP * j + GROUP - 1; `BATCH` is a multiple of
    `GROUP`, so no block spans two batches.  The block arrays have one row
    per position of whole blocks; the rows past the last position are
    padding, with `keep` and `neg_alpha` 0.  The float arrays are float32."""

    centers: np.ndarray  # (P,) center ids
    ctx: np.ndarray  # (P, C) context ids
    weights: np.ndarray  # (P, C) 1/context size on real slots, 0 on padding
    ctx_scale: np.ndarray  # (P,) -alpha / context size: a real slot's update over grad_h
    negs: np.ndarray  # (blocks, K) the negatives each block shares
    keep: np.ndarray  # (GROUP * blocks, K) 0.0 where a negative is its row's center, else 1.0
    neg_alpha: np.ndarray  # (GROUP * blocks,) -alpha of each row
    slot_ids: np.ndarray  # the context id of every real slot, row by row
    slot_rows: np.ndarray  # the row of every real slot within its batch
    slot_bounds: np.ndarray  # the first real slot of each batch, then their count

    @classmethod
    def of(cls, centers: np.ndarray, ctx: np.ndarray, mask: np.ndarray, alpha: np.ndarray,
           negs: np.ndarray) -> _Chunk:
        """Row p has learning rate alpha[p] and the negatives negs[p // GROUP]."""
        n = len(centers)
        padded = GROUP * len(negs)
        inv_size = 1.0 / mask.sum(axis=1)
        keep = np.zeros((padded, negs.shape[1]), np.float32)
        keep[:n] = negs[np.arange(n) // GROUP] != centers[:, None]
        neg_alpha = np.zeros(padded, np.float32)
        np.negative(alpha, out=neg_alpha[:n])
        slots = np.flatnonzero(mask)
        rows = slots // mask.shape[1]
        return cls(centers, ctx, (mask * inv_size[:, None]).astype(np.float32),
                   (-alpha * inv_size).astype(np.float32), negs, keep, neg_alpha,
                   ctx.reshape(-1)[slots], rows % BATCH,
                   np.searchsorted(rows, np.arange(0, n + BATCH, BATCH)))


@dataclass(frozen=True)
class _Workspace:
    """The arrays one `train_cbow` call reuses on every batch: fresh
    multi-megabyte temporaries on every batch cost more in page faults than
    the arithmetic on them.  The float buffers are float32."""

    ctx: np.ndarray  # (B, C, d) context vectors, then the context updates
    out: np.ndarray  # (B + B / GROUP * K, d) center and negative vectors, then their updates
    out_ids: np.ndarray  # the rows of `out`: the centers, then each block's negatives
    # B rounded up to whole blocks rows each:
    h: np.ndarray  # (B, d) context means, 0 on the rows past a ragged batch
    grad_h: np.ndarray  # (B, d) gradient w.r.t. h, then the row's context update
    scaled: np.ndarray  # (B * K,) the negatives' errors times -alpha
    cells: np.ndarray  # intp flat cell indices of one `_scatter_add`

    @classmethod
    def of(cls, batch: int, window: int, negatives: int, dim: int) -> _Workspace:
        outs = batch + -(-batch // GROUP) * negatives
        padded = -(-batch // GROUP) * GROUP
        return cls(np.empty((batch, 2 * window, dim), np.float32),
                   np.empty((outs, dim), np.float32), np.empty(outs, dtype=np.int64),
                   np.empty((padded, dim), np.float32), np.empty((padded, dim), np.float32),
                   np.empty(padded * negatives, np.float32),
                   np.empty(max(batch * 2 * window, outs) * dim, dtype=np.intp))


def _apply_batch(syn0: np.ndarray, syn1: np.ndarray, chunk: _Chunk, start: int,
                 work: _Workspace) -> float:
    """One SGD step for the positions of `chunk` from `start` (a multiple of
    `BATCH`) on, at most `BATCH` of them.

    All gradients are taken at the current parameters, then applied; repeated
    context or output ids, within a row or across rows, accumulate their
    updates.  A block's negative that equals a row's center adds nothing to
    that row's loss or gradients.  Returns the summed loss."""
    n = min(BATCH, len(chunk.centers) - start)
    blocks = -(-n // GROUP)
    m, k, d = blocks * GROUP, chunk.negs.shape[1], syn0.shape[1]
    rows, padded = slice(start, start + n), slice(start, start + m)
    ctx_vecs, out_vecs = work.ctx[:n], work.out[: n + blocks * k]
    out_ids = work.out_ids[: n + blocks * k]
    out_ids[:n] = chunk.centers[rows]
    out_ids[n:] = chunk.negs[start // GROUP : start // GROUP + blocks].reshape(-1)
    # mode="clip" writes straight into `out` (ids are always in range)
    np.take(syn0, chunk.ctx[rows], axis=0, out=ctx_vecs, mode="clip")
    np.take(syn1, out_ids, axis=0, out=out_vecs, mode="clip")
    center_vecs, neg_vecs = out_vecs[:n], out_vecs[n:].reshape(blocks, k, d)
    h, grad_h = work.h[:m], work.grad_h[:m]
    np.einsum("bc,bcd->bd", chunk.weights[rows], ctx_vecs, out=h[:n])
    h[n:] = 0.0
    h_blocks = h.reshape(blocks, GROUP, d)
    pos = np.einsum("bd,bd->b", h[:n], center_vecs)
    neg = np.einsum("ngd,nkd->ngk", h_blocks, neg_vecs).reshape(m, k)
    keep = chunk.keep[padded]
    # -log sigmoid(x) = log(1 + exp(-x)), computed stably
    loss = np.logaddexp(0.0, -pos).sum() + (np.logaddexp(0.0, neg) * keep).sum()
    g_pos = _sigmoid(pos) - 1.0  # sigmoid - label: 1 for the center, 0 for negatives
    g_neg = _sigmoid(neg)
    g_neg *= keep
    np.einsum("ngk,nkd->ngd", g_neg.reshape(blocks, GROUP, k), neg_vecs,
              out=grad_h.reshape(blocks, GROUP, d))
    grad_h[:n] += g_pos[:, None] * center_vecs
    # the output vectors are spent: their updates overwrite them
    neg_alpha = chunk.neg_alpha[padded]
    np.multiply((g_pos * neg_alpha[:n])[:, None], h[:n], out=center_vecs)
    # scaled into (block, k, g) order: the update einsum then runs about
    # twice as fast as on (block, g, k)
    scaled = work.scaled[: m * k].reshape(blocks, k, GROUP)
    np.multiply(g_neg.reshape(blocks, GROUP, k).transpose(0, 2, 1),
                neg_alpha.reshape(blocks, 1, GROUP), out=scaled)
    np.einsum("ngk,ngd->nkd", scaled.transpose(0, 2, 1), h_blocks, out=neg_vecs)
    _scatter_add(syn1, out_ids, out_vecs, work.cells)
    # every real slot of row b gets the row's grad_h[b] * -alpha[b] / context size
    step = grad_h[:n]
    step *= chunk.ctx_scale[rows, None]
    lo, hi = chunk.slot_bounds[start // BATCH : start // BATCH + 2]
    update = work.ctx.reshape(-1, d)[: hi - lo]  # the context vectors are spent
    np.take(step, chunk.slot_rows[lo:hi], axis=0, out=update, mode="clip")
    _scatter_add(syn0, chunk.slot_ids[lo:hi], update, work.cells)
    return float(loss)


def learning_rate(done: np.ndarray, total: int, params: TrainParams) -> np.ndarray:
    """The learning rate after `done` of a run's `total` in-vocabulary
    tokens (pre-subsampling): linear from `lr0` to `lr_min`, never below it."""
    return np.maximum(params.lr0 + (done / total) * (params.lr_min - params.lr0), params.lr_min)


def train_cbow(
    encoded: tuple[np.ndarray, np.ndarray],
    vocab: Vocabulary,
    params: TrainParams,
) -> EmbeddingModel:
    """Train one CBOW model for exactly `params.epochs` passes over
    `encoded`, the (ids, lengths) pair `encode_streams` gives, each sentence
    at its first token's `learning_rate`.  A score far below 0 overflows
    `exp` in `_sigmoid`, to a sigmoid of exactly 0, unreported."""
    start = time.perf_counter()
    if len(vocab) < 2:
        raise EmptyVocabularyError(
            "need at least 2 vocabulary tokens to sample negatives")
    ids, lengths = encoded
    if not len(lengths):
        raise EmptyVocabularyError("no sentence contains an in-vocabulary token")

    rng = np.random.default_rng(params.seed)
    V, d = len(vocab), params.dim
    syn0 = rng.uniform(-0.5 / d, 0.5 / d, size=(V, d)).astype(np.float32)
    syn1 = np.zeros((V, d), np.float32)
    neg_cum = _negative_table(vocab)
    keep_prob = subsample_keep_probabilities(np.bincount(ids, minlength=V),
                                             params.subsample, len(ids))

    total_words = len(ids) * params.epochs
    ends = np.cumsum(lengths)
    starts = ends - lengths  # token offset of each sentence
    chunks = np.r_[0, np.flatnonzero(np.diff(starts // CHUNK_TOKENS)) + 1, len(lengths)]
    work = _Workspace.of(BATCH, params.window, params.negatives, d)
    epoch_losses: list[float] = []
    untrained_losses: list[float] = []
    with np.errstate(over="ignore"):
        for epoch in range(params.epochs):
            loss_sum, n_positions, n_unmasked = 0.0, 0, 0
            for s0, s1 in zip(chunks[:-1], chunks[1:]):
                alpha = learning_rate(epoch * len(ids) + starts[s0:s1], total_words, params)
                centers, ctx, mask, sentence = _chunk_positions(
                    ids[starts[s0] : ends[s1 - 1]], lengths[s0:s1], keep_prob,
                    params.window, rng)
                blocks = -(-len(centers) // GROUP)  # each shares its negatives
                negs = np.searchsorted(neg_cum, rng.random((blocks, params.negatives)))
                chunk = _Chunk.of(centers, ctx, mask, alpha[sentence], negs)
                for b in range(0, len(centers), BATCH):
                    loss_sum += _apply_batch(syn0, syn1, chunk, b, work)
                n_positions += len(centers)
                n_unmasked += int(np.count_nonzero(chunk.keep))
            epoch_losses.append(loss_sum / max(n_positions, 1))
            # at all scores 0, the center and each negative the mask leaves in add ln 2
            untrained_losses.append(float(np.log(2.0)) * (1 + n_unmasked / max(n_positions, 1)))
            _check_finite(syn0, syn1, epoch)

    return EmbeddingModel(
        vocab=vocab, syn0=syn0, params=params,
        epoch_losses=tuple(epoch_losses), untrained_losses=tuple(untrained_losses),
        train_seconds=time.perf_counter() - start,
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
    """k nearest vocabulary tokens by cosine on input vectors, self excluded;
    the cosines are float64."""
    if token not in model.vocab.index:
        raise TokenNotFoundError(token)
    if k <= 0:
        return []
    idx = model.vocab.index[token]
    syn0 = model.syn0.astype(np.float64)
    norms = np.linalg.norm(syn0, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    sims = (syn0 @ syn0[idx]) / (safe * max(norms[idx], 1e-300))
    sims[norms == 0] = -np.inf
    sims[idx] = -np.inf
    order = np.argsort(-sims, kind="stable")[:k]
    return [(model.vocab.tokens[i], float(sims[i])) for i in order if np.isfinite(sims[i])]


# --- persistence ----------------------------------------------------------

def save_model(model: EmbeddingModel, path) -> None:
    """The `fileio.write_arrays` layout: one JSON metadata line (format tag,
    training parameters and epoch losses), then the (|V|, d) float32 input
    matrix, rows in vocabulary order.  The vocabulary is not saved: every
    run of a corpus shares it, and `build_vocabulary` rebuilds it from the
    corpus's stream file.  The output matrix is not saved either: no stage
    reads it, and it would double the bytes written, read and hashed.  The
    same model always gives the same bytes; the file is renamed into place
    once complete."""
    meta = {
        "format": MODEL_FORMAT,
        "params": asdict(model.params),
        "epoch_losses": list(model.epoch_losses),
    }
    with atomic_write(path, "wb") as f:
        write_arrays(f, meta, [model.syn0])


def load_model(path, vocab: Vocabulary) -> EmbeddingModel:
    """Inverse of save_model, given the vocabulary the model was trained
    over: load_model(save_model(m), m.vocab) reproduces m exactly.  Anything
    that does not decode to a model with one row per token of `vocab`, a
    file of an older format included, raises ModelFormatError naming `path`."""
    try:
        meta, [syn0] = read_arrays(path, MODEL_FORMAT, (np.float32,))
        params = TrainParams(**meta["params"])
        shape = (len(vocab), params.dim)
        if syn0.shape != shape:
            raise ModelFormatError(f"input matrix is {syn0.shape}, expected {shape}")
        epoch_losses = tuple(meta["epoch_losses"])
    except KeyError as exc:
        raise ModelFormatError(f"{path}: metadata lacks {exc}") from exc
    except (TypeError, ValueError, EOFError) as exc:  # ModelFormatError is a ValueError
        raise ModelFormatError(f"{path}: {exc}") from exc
    return EmbeddingModel(vocab=vocab, syn0=syn0, params=params, epoch_losses=epoch_losses)
