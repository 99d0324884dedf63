"""Category vectors, orthonormalization, and the similarity tensor.

A category vector is the mean of the embedding vectors of a lexicon
category's in-vocabulary tokens.  Per corpus and per run, the category
vectors are orthonormalized (Gram-Schmidt, in the schema's lexicographic
order) and cosine similarity against every target emoji is computed.
Similarities are then averaged across runs per corpus, and across corpora
per culture group.

Cross-corpus comparability rules: one Gram-Schmidt pass walks the schema
over every (corpus, run) at once and drops a category everywhere when it
has no in-vocabulary tokens in some corpus, or when its residual against
the categories kept before it is below `GRAM_SCHMIDT_TOL` in some run.
Zero vectors, categories with identical token sets and a category that is
the union of others (LIWC's `affect` of `posemo` and `negemo`) are all
that one case.  A target or Ekman word missing from any corpus vocabulary
is excluded everywhere (and reported).  Every mean of runs, corpora,
cultures and country pairs is `culture_average`'s sum * (1/n).

The same unit target rows give each corpus's emoji x emoji cosine
profile, the upper triangle of their cosine matrix averaged over runs,
which the country matrix compares.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .embedding import EmbeddingModel
from .fileio import atomic_write
from .lexicon import EKMAN_AXIS_PREFIX

# a residual norm below this makes a vector dependent on the ones before it
GRAM_SCHMIDT_TOL = 1e-10
# a target vector with a norm below this has no direction to compare
ZERO_NORM = 1e-12


class DegenerateCategoryError(ValueError):
    """A category has no usable token vectors."""


class RankDeficiencyError(ValueError):
    """Category vectors are not linearly independent."""


def category_vector(expanded_tokens: Sequence[str], model: EmbeddingModel) -> np.ndarray:
    """Component-wise arithmetic mean of the tokens' input vectors."""
    if not expanded_tokens:
        raise DegenerateCategoryError("category has no in-vocabulary tokens")
    rows = np.stack([model.vector(t) for t in expanded_tokens])
    return rows.mean(axis=0)


def _residual(v: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """A copy of `v` less its components along the orthonormal rows of
    `basis`; a second pass removes the components the first reintroduces."""
    u = np.asarray(v, dtype=np.float64).copy()
    if len(basis):
        for _ in range(2):
            u -= basis.T @ (basis @ u)
    return u


def gram_schmidt(
    vectors: Sequence[np.ndarray],
    labels: Optional[Sequence[str]] = None,
    tol: float = GRAM_SCHMIDT_TOL,
) -> np.ndarray:
    """Classical Gram-Schmidt with a re-orthogonalization pass.

    The k-th output vector lies in the span of the first k inputs.  A
    residual norm below `tol` before normalization means the input list is
    rank deficient; the error names the offending vector.
    """
    if len(vectors) == 0:
        return np.zeros((0, 0))
    d = len(vectors[0])
    if len(vectors) > d:
        raise RankDeficiencyError(f"{len(vectors)} vectors cannot be independent in {d} dimensions")
    basis = np.zeros((len(vectors), d))
    for k, v in enumerate(vectors):
        u = _residual(v, basis[:k])
        norm = np.linalg.norm(u)
        if norm < tol:
            name = labels[k] if labels is not None else f"#{k}"
            raise RankDeficiencyError(
                f"vector {name} is linearly dependent on its predecessors (residual {norm:.3e})"
            )
        basis[k] = u / norm
    return basis


def culture_average(terms: Sequence):
    """Mean of arrays or numbers as their sum, added left to right from the
    first term, times (1/n): the literal '1/n Σ' form."""
    total = terms[0]
    for a in terms[1:]:
        total = total + a
    return total * (1.0 / len(terms))


@dataclass
class SimilarityTensor:
    """Cosine similarities indexed by (corpus, run, axis, target).

    Axes are the orthonormalized schema categories followed by any Ekman
    word axes (labels prefixed 'ekman:').  `per_run[corpus]` has shape
    (runs, n_axes, n_targets); `profiles[corpus]` is the run-averaged
    upper triangle, (n_targets * (n_targets - 1) / 2,), of the cosine
    matrix of the targets (empty for a tensor read from CSV)."""

    axes: tuple[str, ...]
    targets: tuple[str, ...]
    corpora: tuple[str, ...]
    culture_of: Mapping[str, str]
    per_run: Mapping[str, np.ndarray]
    excluded_targets: tuple[str, ...] = ()
    excluded_axes: tuple[str, ...] = ()
    dropped_categories: Mapping[str, str] = field(default_factory=dict)
    profiles: Mapping[str, np.ndarray] = field(default_factory=dict)
    # (kind, name) -> read-only mean; each mean is computed once per tensor
    _means: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_categories(self) -> int:
        return sum(1 for a in self.axes if not a.startswith(EKMAN_AXIS_PREFIX))

    def _mean(self, key: tuple[str, str], terms) -> np.ndarray:
        if key not in self._means:
            self._means[key] = culture_average(terms())
            self._means[key].flags.writeable = False
        return self._means[key]

    def corpus_mean(self, corpus: str) -> np.ndarray:
        return self._mean(("corpus", corpus), lambda: list(self.per_run[corpus]))

    def culture_corpora(self, culture: str) -> tuple[str, ...]:
        return tuple(c for c in self.corpora if self.culture_of[c] == culture)

    def culture_mean(self, culture: str) -> np.ndarray:
        members = self.culture_corpora(culture)
        if not members:
            raise KeyError(f"no corpus in culture group {culture!r}")
        return self._mean(("culture", culture), lambda: [self.corpus_mean(c) for c in members])


def build_tensor(
    run_models: Mapping[str, Sequence[EmbeddingModel]],
    expansions: Mapping[str, Mapping[str, Sequence[str]]],
    schema: Sequence[str],
    targets: Sequence[str],
    culture_of: Mapping[str, str],
    ekman_axes: Optional[Mapping[str, Sequence[tuple[str, str]]]] = None,
) -> SimilarityTensor:
    """Build the similarity tensor over every (corpus, run, axis, target),
    and the targets' cosine profiles.

    run_models: corpus -> R trained models (same R everywhere).
    expansions: corpus -> category -> in-vocabulary tokens.
    ekman_axes: corpus -> [(axis_label, word)] in that corpus's language.
    """
    corpora = tuple(run_models)
    if not corpora:
        raise ValueError("no corpora supplied")
    n_runs = {c: len(ms) for c, ms in run_models.items()}
    if len(set(n_runs.values())) != 1:
        raise ValueError(f"corpora have differing run counts: {n_runs}")

    # one Gram-Schmidt pass over the schema for every (corpus, run) at once;
    # a category unusable in one of them is dropped from all.  The order
    # matters: earlier categories keep more of the shared embedding direction
    runs = [(corpus, r, model)
            for corpus in corpora for r, model in enumerate(run_models[corpus])]
    bases = [np.zeros((len(schema), model.syn0.shape[1])) for _, _, model in runs]
    kept: list[str] = []
    dropped: dict[str, str] = {}
    for cat in schema:
        empty_in = [corpus for corpus in corpora if not expansions[corpus].get(cat)]
        if empty_in:
            dropped[cat] = f"no in-vocabulary tokens in {empty_in[0]}"
            continue
        rows = []
        for (corpus, _, model), basis in zip(runs, bases):
            u = _residual(category_vector(sorted(expansions[corpus][cat]), model),
                          basis[:len(kept)])
            norm = np.linalg.norm(u)
            if norm < GRAM_SCHMIDT_TOL:
                dropped[cat] = (f"linearly dependent on the kept categories in {corpus}, "
                                f"run seed {model.params.seed}, residual {norm:.1e}")
                break
            rows.append(u / norm)
        else:
            for basis, row in zip(bases, rows):
                basis[len(kept)] = row
            kept.append(cat)
    if not kept:
        raise DegenerateCategoryError("no schema category is usable in every corpus and run")

    # Ekman word axes usable only when the word is in every corpus vocabulary
    word_of = {corpus: dict((ekman_axes or {}).get(corpus, ())) for corpus in corpora}
    ekman_labels: list[str] = []
    excluded_axes: list[str] = []
    for label in dict.fromkeys(label for corpus in corpora for label in word_of[corpus]):
        ok = all(word_of[corpus].get(label) in run_models[corpus][0].vocab for corpus in corpora)
        (ekman_labels if ok else excluded_axes).append(label)

    # targets usable only when present (nonzero) in every corpus vocabulary
    excluded_targets: list[str] = []
    usable_targets: list[str] = []
    for t in targets:
        ok = all(
            t in run_models[corpus][0].vocab
            and all(np.linalg.norm(m.vector(t)) >= ZERO_NORM for m in run_models[corpus])
            for corpus in corpora
        )
        (usable_targets if ok else excluded_targets).append(t)
    if not usable_targets:
        raise ValueError("no target is present in every corpus vocabulary")

    axes = tuple(kept + ekman_labels)
    per_run = {corpus: np.empty((n, len(axes), len(usable_targets)))
               for corpus, n in n_runs.items()}
    pairs = np.triu_indices(len(usable_targets), k=1)
    profiles: dict[str, list[np.ndarray]] = {corpus: [] for corpus in corpora}
    for (corpus, r, model), basis in zip(runs, bases):
        rows = [basis[:len(kept)]]
        if ekman_labels:
            rows.append(np.stack([model.vector(word_of[corpus][lbl]) for lbl in ekman_labels]))
        axis_matrix = np.vstack(rows)
        target_matrix = np.stack([model.vector(t) for t in usable_targets])
        a_norm = axis_matrix / np.linalg.norm(axis_matrix, axis=1, keepdims=True)
        t_norm = target_matrix / np.linalg.norm(target_matrix, axis=1, keepdims=True)
        per_run[corpus][r] = np.clip(a_norm @ t_norm.T, -1.0, 1.0)
        sims = np.clip(t_norm @ t_norm.T, -1.0, 1.0)[pairs]
        profiles[corpus].append(sims)

    return SimilarityTensor(
        axes=axes,
        targets=tuple(usable_targets),
        corpora=corpora,
        culture_of=dict(culture_of),
        per_run=per_run,
        excluded_targets=tuple(excluded_targets),
        excluded_axes=tuple(excluded_axes),
        dropped_categories=dropped,
        profiles={corpus: culture_average(p) for corpus, p in profiles.items()},
    )


# --- CSV round-trip -------------------------------------------------------

TENSOR_HEADER = ["culture_or_corpus", "run_or_avg", "category", "target", "similarity"]


def write_tensor_csv(tensor: SimilarityTensor, path) -> None:
    """One row per (axis, target) of each corpus's runs and mean, then of
    each culture's mean; a block's rows are formatted in one `writerows`."""
    blocks = []
    for corpus in tensor.corpora:
        cube = tensor.per_run[corpus]
        blocks += [(corpus, r, cube[r]) for r in range(cube.shape[0])]
        blocks.append((corpus, "avg", tensor.corpus_mean(corpus)))
    blocks += [(culture, "avg", tensor.culture_mean(culture))
               for culture in dict.fromkeys(tensor.culture_of[c] for c in tensor.corpora)]
    with atomic_write(path, newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(TENSOR_HEADER)
        for name, run, matrix in blocks:
            for axis, sims in zip(tensor.axes, matrix.tolist()):
                writer.writerows([name, run, axis, target, sim]
                                 for target, sim in zip(tensor.targets, sims))


def read_tensor_csv(path, culture_of: Mapping[str, str]) -> SimilarityTensor:
    """Rebuild a tensor from its per-run CSV rows (averages are recomputed)."""
    axes: list[str] = []
    targets: list[str] = []
    corpora: list[str] = []
    values: dict[tuple[str, int, str, str], float] = {}
    max_run = -1
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header != TENSOR_HEADER:
            raise ValueError(f"{path}: unexpected tensor CSV header {header}")
        for corpus, run, axis, target, sim in reader:
            if run == "avg":
                continue
            r = int(run)
            max_run = max(max_run, r)
            if corpus not in corpora:
                corpora.append(corpus)
            if axis not in axes:
                axes.append(axis)
            if target not in targets:
                targets.append(target)
            values[(corpus, r, axis, target)] = float(sim)
    per_run = {}
    for corpus in corpora:
        cube = np.empty((max_run + 1, len(axes), len(targets)))
        for r in range(max_run + 1):
            for i, axis in enumerate(axes):
                for j, target in enumerate(targets):
                    cube[r, i, j] = values[(corpus, r, axis, target)]
        per_run[corpus] = cube
    return SimilarityTensor(
        axes=tuple(axes),
        targets=tuple(targets),
        corpora=tuple(corpora),
        culture_of={c: culture_of[c] for c in corpora},
        per_run=per_run,
    )
