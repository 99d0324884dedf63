"""Correlation analytics over the similarity tensor and frequency tables.

Spearman correlations use tie-aware average ranks.  Every East-vs-West
comparison runs over the shared emoji set; per-emoji ("icon") correlations
transpose the same tensor and correlate each emoji's category profile
across cultures.  Every East-vs-West number reads one `pair_table`: per
item, the correlation of each within-culture and West x East pair of
groups (corpora, or culture means).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .inventory import EmojiInventory, FrequencyTable, SharedEmojiSet
from .projection import SimilarityTensor, culture_average


class UndefinedCorrelationError(ValueError):
    """Correlation undefined: length < 3, mismatch, or zero variance."""


def average_ranks(x: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values share the average of their rank span."""
    _, span_of, counts = np.unique(np.asarray(x, dtype=np.float64),
                                   return_inverse=True, return_counts=True)
    # a span ending at 1-based rank e with n values has mean rank e - (n - 1)/2
    return (np.cumsum(counts) - (counts - 1) / 2)[span_of]


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
CULTURES = {WEST: WEST, EAST: EAST}  # the culture of each culture-level group

# (a, b, ρ per item), the ρ None where undefined
PairRhos = tuple[str, str, list[Optional[float]]]


def pair_table(
    groups: Mapping[str, np.ndarray], culture_of: Mapping[str, str],
    corr: Callable[[np.ndarray, np.ndarray], float] = spearman,
) -> dict[str, list[PairRhos]]:
    """Per item (a row of each group's item x feature array), the `corr`
    of every within-West, within-East and West x East pair of groups, keyed
    "in_west", "in_east" and "cross", or None where it is undefined.  Pairs
    keep the groups' order: (a, b) with a before b inside a culture, West
    outer and East inner across."""
    def rho(x, y) -> Optional[float]:
        try:
            return corr(x, y)
        except UndefinedCorrelationError:
            return None

    west, east = ([g for g in groups if culture_of[g] == c] for c in (WEST, EAST))
    if len(west) + len(east) < len(groups):
        raise UndefinedCorrelationError(
            f"every group must be West or East, have {sorted({culture_of[g] for g in groups})}")
    pairs = {"in_west": [(a, b) for k, a in enumerate(west) for b in west[k + 1 :]],
             "in_east": [(a, b) for k, a in enumerate(east) for b in east[k + 1 :]],
             "cross": [(a, b) for a in west for b in east]}
    return {bucket: [(a, b, [rho(x, y) for x, y in zip(groups[a], groups[b])]) for a, b in ps]
            for bucket, ps in pairs.items()}


def _defined(table: dict[str, list[PairRhos]], items: Sequence[str]) -> dict[str, list[PairRhos]]:
    """`table`, for a section that needs every correlation: raise for its
    first undefined one."""
    for a, b, rhos in (row for rows in table.values() for row in rows):
        if None in rhos:
            raise UndefinedCorrelationError(
                f"{items[rhos.index(None)]} undefined between {a} and {b}: a profile is "
                "constant, or has fewer than 3 values")
    return table


def category_scc(
    tensor: SimilarityTensor, top_k: int = 5
) -> tuple[dict[str, float], dict[tuple[str, str], list[tuple[str, float]]]]:
    """Per-axis East-vs-West rank correlation over the shared emoji set,
    plus the top-k most similar emoji per axis per culture.  An axis whose
    correlation is undefined keeps its top-k lists but has no correlation."""
    means = {c: tensor.culture_mean(c) for c in CULTURES}
    (_, _, rhos), = pair_table(means, CULTURES)["cross"]
    rho = {axis: r for axis, r in zip(tensor.axes, rhos) if r is not None}
    top: dict[tuple[str, str], list[tuple[str, float]]] = {}
    for i, axis in enumerate(tensor.axes):
        for culture in (WEST, EAST):
            row = means[culture][i]
            top[(culture, axis)] = [(tensor.targets[j], float(row[j]))
                                    for j in np.argsort(-row, kind="stable")[:top_k]]
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
    (_, _, rhos), = _defined(pair_table({c: tensor.culture_mean(c)[:n_cat].T for c in CULTURES},
                                        CULTURES), tensor.targets)["cross"]
    scc = dict(zip(tensor.targets, rhos))
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


def country_similarity_matrix(tensor: SimilarityTensor) -> CountryMatrix:
    """Country-pairwise Pearson of the tensor's emoji-emoji cosine profiles,
    every corpus being West or East."""
    if len(tensor.targets) < 3:
        raise UndefinedCorrelationError(
            f"need at least 3 shared emoji present everywhere, have {len(tensor.targets)}"
        )
    corpora, profiles = tensor.corpora, tensor.profiles
    table = _defined(pair_table({c: profiles[c][None] for c in corpora}, tensor.culture_of,
                                pearson), ["cosine profile"])
    index = {c: k for k, c in enumerate(corpora)}
    matrix = np.eye(len(corpora))
    for a, b, (r,) in (row for rows in table.values() for row in rows):
        matrix[index[a], index[b]] = matrix[index[b], index[a]] = r
    cross_mean = culture_corr = None
    if table["cross"]:
        cross_mean = culture_average([r for _, _, (r,) in table["cross"]])
        (_, _, (culture_corr,)), = _defined(pair_table(
            {c: culture_average([profiles[k] for k in tensor.culture_corpora(c)])[None]
             for c in CULTURES}, CULTURES, pearson), ["culture-averaged cosine profile"])["cross"]
    return CountryMatrix(
        corpora=corpora, matrix=matrix, cross_pair_mean=cross_mean,
        culture_vector_corr=culture_corr, emoji_used=tensor.targets,
        excluded=tensor.excluded_targets,
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
        # items: the whole shared set, then its emoji per unicode category
        by_cat: dict[str, list[str]] = {}
        for emoji in shared.emoji:
            by_cat.setdefault(inventory.category(emoji), []).append(emoji)
        cats = sorted(by_cat)
        items = [list(shared.emoji)] + [by_cat[cat] for cat in cats]
        (_, _, (overall, *rhos)), = pair_table(
            {c: [[cultures.count(c, e) for e in group] for group in items] for c in CULTURES},
            CULTURES)["cross"]
        if len(shared.emoji) < 3:
            warnings.append(f"shared set too small for the overall SCC ({len(shared.emoji)})")
        elif overall is None:  # 3 or more counts are undefined only when constant
            warnings.append("overall frequency SCC undefined: zero variance")
        per_category = {cat: rho for cat, rho in zip(cats, rhos) if rho is not None}
        omitted = [cat for cat, rho in zip(cats, rhos) if rho is None]
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
    """(in-West, in-East, cross-culture) mean SCC per axis item: the means
    of the pair table's buckets over the per-country (run-averaged)
    similarity vectors, None for a bucket with no pair."""
    table = _defined(pair_table({c: tensor.corpus_mean(c) for c in tensor.corpora},
                                tensor.culture_of), tensor.axes)
    return {axis: tuple(culture_average([rhos[i] for _, _, rhos in rows]) if rows else None
                        for rows in table.values())
            for i, axis in enumerate(tensor.axes)}


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
    table: FrequencyTable,
    inventory: EmojiInventory,
    shared: SharedEmojiSet,
    culture_of: Mapping[str, str],
    top_k: int = 15,
) -> CorrelationReport:
    """Assemble the full report; skips the parts the inputs cannot support
    with a warning.  `tensor` is None when no emoji is shared."""
    report = CorrelationReport()
    warnings: list[str] = []

    report.frequency = frequency_analysis(table, inventory, shared, culture_of, top_k=top_k)
    warnings.extend(report.frequency.warnings)

    groups = set(culture_of.values())
    if tensor is not None and {WEST, EAST} <= groups:
        report.category_rho, report.top5 = category_scc(tensor)
        warnings += [f"category correlation skipped for axis {axis}: its West or East "
                     "profile is constant, or has fewer than 3 emoji"
                     for axis in tensor.axes if axis not in report.category_rho]
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

    if len(culture_of) >= 2:
        try:
            if tensor is None:
                raise UndefinedCorrelationError("no emoji is shared")
            report.country = country_similarity_matrix(tensor)
        except UndefinedCorrelationError as exc:
            warnings.append(f"country similarity matrix skipped: {exc}")

    report.warnings = tuple(warnings)
    report.validate()
    return report
