"""Correlation analytics over the similarity tensor and frequency tables.

Spearman correlations use tie-aware average ranks.  Every East-vs-West
comparison runs over the shared emoji set; per-emoji ("icon") correlations
transpose the same tensor and correlate each emoji's category profile
across cultures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .inventory import EmojiInventory, FrequencyTable, SharedEmojiSet
from .projection import EKMAN_AXIS_PREFIX, SimilarityTensor, culture_average


class UndefinedCorrelationError(ValueError):
    """Correlation undefined: length < 3, mismatch, or zero variance."""


def average_ranks(x: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values share the average of their rank span."""
    a = np.asarray(x, dtype=np.float64)
    order = np.argsort(a, kind="stable")
    ranks = np.empty(len(a))
    i = 0
    while i < len(a):
        j = i
        while j + 1 < len(a) and a[order[j + 1]] == a[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _check_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise UndefinedCorrelationError(f"length mismatch: {a.shape} vs {b.shape}")
    if len(a) < 3:
        raise UndefinedCorrelationError(f"need at least 3 values, got {len(a)}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise UndefinedCorrelationError("non-finite values")
    return a, b


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation; undefined when either variance is zero."""
    a, b = _check_pair(x, y)
    da, db = a - a.mean(), b - b.mean()
    va, vb = np.dot(da, da), np.dot(db, db)
    if va == 0.0 or vb == 0.0:
        raise UndefinedCorrelationError("zero variance")
    return float(np.clip(np.dot(da, db) / np.sqrt(va * vb), -1.0, 1.0))


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation of tie-averaged ranks."""
    a, b = _check_pair(x, y)
    return pearson(average_ranks(a), average_ranks(b))


WEST, EAST = "West", "East"


def _culture_profiles(tensor: SimilarityTensor) -> tuple[np.ndarray, np.ndarray]:
    cultures = tensor.cultures()
    if WEST not in cultures or EAST not in cultures:
        raise UndefinedCorrelationError(
            f"cross-culture analytics need both culture groups, have {cultures}"
        )
    return tensor.culture_mean(WEST), tensor.culture_mean(EAST)


def category_scc(
    tensor: SimilarityTensor, top_k: int = 5
) -> tuple[dict[str, float], dict[tuple[str, str], list[tuple[str, float]]]]:
    """Per-axis East-vs-West rank correlation over the shared emoji set,
    plus the top-k most similar emoji per axis per culture."""
    west, east = _culture_profiles(tensor)
    rho: dict[str, float] = {}
    top: dict[tuple[str, str], list[tuple[str, float]]] = {}
    for i, axis in enumerate(tensor.axes):
        rho[axis] = spearman(west[i], east[i])
        for culture, mat in ((WEST, west), (EAST, east)):
            order = np.argsort(-mat[i], kind="stable")[:top_k]
            top[(culture, axis)] = [(tensor.targets[j], float(mat[i, j])) for j in order]
    return rho, top


@dataclass
class IconReport:
    scc: dict[str, float]                      # emoji -> East/West profile SCC
    by_category: dict[str, tuple[float, float]]  # unicode category -> (mean, std)
    top: dict[str, list[tuple[str, float]]]      # unicode category -> top-5
    bottom: dict[str, list[tuple[str, float]]]


def icon_scc(tensor: SimilarityTensor, inventory: EmojiInventory, k: int = 5) -> IconReport:
    """Transpose of category_scc: per emoji, correlate its East and West
    similarity profiles across the schema's (non-Ekman) category axes."""
    n_cat = tensor.n_categories
    if n_cat < 3:
        raise UndefinedCorrelationError(
            f"icon correlations need at least 3 schema categories, have {n_cat}"
        )
    west, east = _culture_profiles(tensor)
    scc = {
        target: spearman(west[:n_cat, j], east[:n_cat, j])
        for j, target in enumerate(tensor.targets)
    }
    groups: dict[str, list[tuple[str, float]]] = {}
    for target, value in scc.items():
        groups.setdefault(inventory.category(target), []).append((target, value))
    by_category, top, bottom = {}, {}, {}
    for cat in sorted(groups):
        vals = np.array([v for _, v in groups[cat]])
        by_category[cat] = (float(vals.mean()), float(vals.std()))
        ranked = sorted(groups[cat], key=lambda tv: (-tv[1], tv[0]))
        top[cat] = ranked[:k]
        bottom[cat] = ranked[-k:][::-1]
    return IconReport(scc=scc, by_category=by_category, top=top, bottom=bottom)


@dataclass
class CountryMatrix:
    corpora: tuple[str, ...]
    matrix: np.ndarray                    # symmetric, unit diagonal
    cross_pair_mean: Optional[float]      # mean Pearson over West x East pairs
    culture_vector_corr: Optional[float]  # Pearson of culture-averaged vectors
    emoji_used: tuple[str, ...]
    excluded: tuple[str, ...]


@dataclass
class EmojiProfiles:
    """Per corpus, the upper triangle of the emoji x emoji cosine matrix
    over `emoji_used`, averaged over runs."""

    emoji_used: tuple[str, ...]
    excluded: tuple[str, ...]            # shared emoji missing from some corpus
    by_corpus: dict[str, np.ndarray]     # corpus -> (n * (n - 1) / 2,) profile


def emoji_profiles(run_models: Mapping[str, Sequence],
                   shared: SharedEmojiSet | Sequence[str]) -> EmojiProfiles:
    """The cosine profiles `country_similarity_matrix` compares.  Emoji
    missing from any corpus are excluded from all profiles symmetrically."""
    corpora = tuple(run_models)
    emoji_list = list(shared.emoji if isinstance(shared, SharedEmojiSet) else shared)
    usable = [
        e for e in emoji_list
        if all(e in run_models[c][0].vocab for c in corpora)
    ]
    excluded = tuple(e for e in emoji_list if e not in usable)
    if not usable:
        return EmojiProfiles((), excluded, {c: np.empty(0) for c in corpora})
    iu = np.triu_indices(len(usable), k=1)
    profiles: dict[str, np.ndarray] = {}
    for corpus in corpora:
        models = run_models[corpus]
        acc = None
        for model in models:
            mat = np.stack([model.vector(e) for e in usable])
            norms = np.linalg.norm(mat, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            unit = mat / norms
            sims = np.clip(unit @ unit.T, -1.0, 1.0)[iu]
            acc = sims if acc is None else acc + sims
        profiles[corpus] = acc * (1.0 / len(models))
    return EmojiProfiles(tuple(usable), excluded, profiles)


def country_similarity_matrix(profiles: EmojiProfiles,
                              culture_of: Mapping[str, str]) -> CountryMatrix:
    """Country-pairwise Pearson of emoji-emoji cosine profiles."""
    if len(profiles.emoji_used) < 3:
        raise UndefinedCorrelationError(
            f"need at least 3 shared emoji present everywhere, have {len(profiles.emoji_used)}"
        )
    corpora = tuple(profiles.by_corpus)
    vectors = profiles.by_corpus
    n = len(corpora)
    matrix = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            r = pearson(vectors[corpora[i]], vectors[corpora[j]])
            matrix[i, j] = matrix[j, i] = r

    west = [c for c in corpora if culture_of[c] == WEST]
    east = [c for c in corpora if culture_of[c] == EAST]
    cross_mean = None
    culture_corr = None
    if west and east:
        cross_vals = [matrix[corpora.index(w), corpora.index(e)] for w in west for e in east]
        total = 0.0
        for v in cross_vals:
            total += v
        cross_mean = total * (1.0 / len(cross_vals))
        culture_corr = pearson(
            culture_average([vectors[c] for c in west]),
            culture_average([vectors[c] for c in east]),
        )
    return CountryMatrix(
        corpora=corpora, matrix=matrix, cross_pair_mean=cross_mean,
        culture_vector_corr=culture_corr, emoji_used=profiles.emoji_used,
        excluded=profiles.excluded,
    )


@dataclass
class FrequencyReport:
    top_by_culture: dict[str, list[tuple[str, int, float]]]   # (emoji, count, share)
    culture_shares: dict[str, dict[str, float]]               # culture -> emoji -> share
    category_shares: dict[str, dict[str, float]]              # culture -> unicode category -> share
    overall_scc: Optional[float]                              # over the shared set
    category_scc: dict[str, float]                            # within unicode categories
    omitted_categories: tuple[str, ...]
    warnings: tuple[str, ...] = ()


def frequency_analysis(
    table: FrequencyTable,
    inventory: EmojiInventory,
    shared: SharedEmojiSet,
    culture_of: Mapping[str, str],
    top_k: int = 15,
) -> FrequencyReport:
    """Culture-level frequency shares, top-k lists, and East-West SCCs."""
    cultures = FrequencyTable(inventory)  # the corpus counts summed per culture
    for corpus in table.corpora:
        cultures.add_corpus(culture_of[corpus])
        cultures.counts[culture_of[corpus]].update(table.counts[corpus])

    warnings: list[str] = []
    top_by_culture = {}
    culture_shares = {}
    category_shares = {}
    for culture in cultures.corpora:
        total = cultures.total(culture)
        if total == 0:
            warnings.append(f"culture {culture} has no emoji occurrences")
            top_by_culture[culture] = []
            culture_shares[culture] = {}
            category_shares[culture] = {}
            continue
        top_by_culture[culture] = [(e, n, n / total) for e, n in cultures.top(culture, top_k)]
        culture_shares[culture] = cultures.normalized(culture)
        category_shares[culture] = {c: n / total
                                    for c, n in cultures.by_category(culture).items()}

    overall = None
    per_category: dict[str, float] = {}
    omitted: list[str] = []
    if WEST in cultures.counts and EAST in cultures.counts:
        members = list(shared.emoji)
        if len(members) >= 3:
            w = [cultures.count(WEST, e) for e in members]
            e_ = [cultures.count(EAST, e) for e in members]
            try:
                overall = spearman(w, e_)
            except UndefinedCorrelationError as exc:
                warnings.append(f"overall frequency SCC undefined: {exc}")
        else:
            warnings.append(f"shared set too small for the overall SCC ({len(members)})")
        by_cat: dict[str, list[str]] = {}
        for emoji in shared.emoji:
            by_cat.setdefault(inventory.category(emoji), []).append(emoji)
        for cat in sorted(by_cat):
            group = by_cat[cat]
            if len(group) < 3:
                omitted.append(cat)
                continue
            try:
                per_category[cat] = spearman(
                    [cultures.count(WEST, e) for e in group],
                    [cultures.count(EAST, e) for e in group],
                )
            except UndefinedCorrelationError:
                omitted.append(cat)
    else:
        warnings.append("missing a culture group; cross-culture frequency SCCs skipped")

    return FrequencyReport(
        top_by_culture=top_by_culture,
        culture_shares=culture_shares,
        category_shares=category_shares,
        overall_scc=overall,
        category_scc=per_category,
        omitted_categories=tuple(omitted),
        warnings=tuple(warnings),
    )


def culture_triples(tensor: SimilarityTensor) -> dict[str, tuple[Optional[float], Optional[float], Optional[float]]]:
    """(in-West, in-East, cross-culture) mean SCC per axis item.

    Country-pair SCCs of the per-country (run-averaged) similarity vectors,
    bucketed by whether the pair is within West, within East, or across."""
    west = tensor.culture_corpora(WEST)
    east = tensor.culture_corpora(EAST)
    means = {c: tensor.corpus_mean(c) for c in tensor.corpora}

    def bucket_mean(pairs: list[tuple[str, str]], i: int) -> Optional[float]:
        if not pairs:
            return None
        total = 0.0
        for l1, l2 in pairs:
            total += spearman(means[l1][i], means[l2][i])
        return total * (1.0 / len(pairs))

    in_west_pairs = [(a, b) for k, a in enumerate(west) for b in west[k + 1 :]]
    in_east_pairs = [(a, b) for k, a in enumerate(east) for b in east[k + 1 :]]
    cross_pairs = [(a, b) for a in west for b in east]

    out = {}
    for i, axis in enumerate(tensor.axes):
        out[axis] = (
            bucket_mean(in_west_pairs, i),
            bucket_mean(in_east_pairs, i),
            bucket_mean(cross_pairs, i),
        )
    return out


@dataclass
class CorrelationReport:
    """Everything the analyze stage produces, ready for CSV/chart emission."""

    category_rho: dict[str, float] = field(default_factory=dict)
    top5: dict[tuple[str, str], list[tuple[str, float]]] = field(default_factory=dict)
    icon: Optional[IconReport] = None
    country: Optional[CountryMatrix] = None
    frequency: Optional[FrequencyReport] = None
    triples: dict[str, tuple] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def validate(self) -> None:
        """Sanity bounds: correlations in [-1, 1], matrix symmetric."""
        values = list(self.category_rho.values())
        if self.icon:
            values += list(self.icon.scc.values())
        if self.frequency and self.frequency.overall_scc is not None:
            values.append(self.frequency.overall_scc)
        for v in values:
            if not -1.0 <= v <= 1.0:
                raise AssertionError(f"correlation out of range: {v}")
        if self.country is not None:
            m = self.country.matrix
            if not np.allclose(m, m.T) or not np.allclose(np.diag(m), 1.0):
                raise AssertionError("country matrix must be symmetric with unit diagonal")


def build_report(
    tensor: Optional[SimilarityTensor],
    profiles: Optional[EmojiProfiles],
    table: FrequencyTable,
    inventory: EmojiInventory,
    shared: SharedEmojiSet,
    culture_of: Mapping[str, str],
    top_k: int = 15,
) -> CorrelationReport:
    """Assemble the full report; skips cross-culture parts with warnings
    when the inputs cannot support them."""
    report = CorrelationReport()
    warnings: list[str] = []

    report.frequency = frequency_analysis(table, inventory, shared, culture_of, top_k=top_k)
    warnings.extend(report.frequency.warnings)

    groups = set(culture_of.values())
    if tensor is not None and {WEST, EAST} <= groups:
        report.category_rho, report.top5 = category_scc(tensor)
        try:
            report.icon = icon_scc(tensor, inventory)
        except UndefinedCorrelationError as exc:
            warnings.append(f"icon correlations skipped: {exc}")
        try:
            report.triples = culture_triples(tensor)
        except UndefinedCorrelationError as exc:
            warnings.append(f"culture triples skipped: {exc}")
    elif tensor is not None:
        warnings.append("missing a culture group; category/icon correlations skipped")

    if profiles is not None and len(profiles.by_corpus) >= 2:
        try:
            report.country = country_similarity_matrix(profiles, culture_of)
        except UndefinedCorrelationError as exc:
            warnings.append(f"country similarity matrix skipped: {exc}")

    report.warnings = tuple(warnings)
    report.validate()
    return report
