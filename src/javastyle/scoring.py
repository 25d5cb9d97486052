"""Score computation: normalization, aggregation, thresholds, verdicts.

Absolute violation counts mean little across repositories of different
sizes, so each category is divided by the count of constructs it could
have flagged. Everything downstream (threshold tables, adherence
verdicts, the stratified validation sample) works on those normalized
scores.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .checkers import (CODE_STYLE_CATEGORIES, PRACTICE_CATEGORIES,
                       TABLE_CATEGORIES, Category, Violation)

# The threshold table's columns, from lenient to exactly zero.
THRESHOLDS = (0.25, 0.20, 0.15, 0.10, 0.05, 0.04, 0.03, 0.02, 0.01, 0.0)
DEFAULT_ADHERENCE_THRESHOLD = 0.05


class CategoryScore(NamedTuple):
    category: Category
    absolute: int
    denominator: int
    normalized: float
    undefined: bool = False


class CorpusStats(NamedTuple):
    minimum: float
    maximum: float
    mean: float
    median: float


class AdherenceVerdict(NamedTuple):
    threshold: float
    per_category: dict[Category, bool]
    code_style_adherent: bool
    practice_adherent: bool


class SampledViolation(NamedTuple):
    group: int
    repo_position: int
    violation: Violation


class SampleResult(NamedTuple):
    samples: dict[Category, list[SampledViolation]]
    diagnostics: list[str]


def normalize(violations: list[Violation],
              counts: dict[Category, int]) -> list[CategoryScore]:
    """Per-category scores; order follows the Category enumeration.

    `counts` holds each category's denominator, the constructs its
    check inspected; a missing category counts as zero.
    """
    absolutes = {cat: 0 for cat in Category}
    for v in violations:
        absolutes[v.category] += 1

    scores = []
    for cat in Category:
        absolute = absolutes[cat]
        denominator = counts.get(cat, 0)
        if denominator > 0:
            value, undefined = absolute / denominator, False
        else:
            value, undefined = 0.0, absolute > 0
        scores.append(CategoryScore(cat, absolute, denominator, value, undefined))
    return scores


def total_normalized(scores: list[CategoryScore]) -> float:
    """Unweighted mean over the sixteen table categories.

    JavadocFormatting can legitimately exceed 1 (several findings per
    comment), so it is capped at 1 here to keep the mean on one scale.
    """
    by_cat = {s.category: s for s in scores}
    values = []
    for cat in TABLE_CATEGORIES:
        value = by_cat[cat].normalized if cat in by_cat else 0.0
        if cat is Category.JAVADOC_FORMATTING:
            value = min(value, 1.0)
        values.append(value)
    return sum(values) / len(values)


def aggregate(per_repo: list[dict[Category, float]]) -> dict[Category, CorpusStats]:
    """Min/max/mean/median per category over repositories."""
    import statistics  # only `corpus` aggregates

    if not per_repo:
        raise ValueError("aggregate requires at least one repository")
    out = {}
    for cat in Category:
        values = [repo.get(cat, 0.0) for repo in per_repo]
        out[cat] = CorpusStats(
            minimum=min(values),
            maximum=max(values),
            mean=sum(values) / len(values),
            median=statistics.median(values),
        )
    return out


def threshold_table(per_repo: list[dict[Category, float]]
                    ) -> dict[Category, list[tuple[float, float]]]:
    """Percentage of repositories scoring under each threshold.

    The 0 column means "exactly zero violations", so the comparison
    there is <= 0 rather than the strict < used elsewhere.
    """
    if not per_repo:
        raise ValueError("threshold_table requires at least one repository")
    n = len(per_repo)
    table = {}
    for cat in Category:
        values = [repo.get(cat, 0.0) for repo in per_repo]
        row = []
        for t in THRESHOLDS:
            if t == 0:
                hits = sum(1 for v in values if v <= 0)
            else:
                hits = sum(1 for v in values if v < t)
            row.append((t, round(100.0 * hits / n, 2)))
        table[cat] = row
    return table


def classify_adherence(scores: list[CategoryScore],
                       t: float = DEFAULT_ADHERENCE_THRESHOLD) -> AdherenceVerdict:
    by_cat = {s.category: s.normalized for s in scores}
    per_category = {
        cat: by_cat.get(cat, 0.0) < t for cat in TABLE_CATEGORIES
    }
    return AdherenceVerdict(
        threshold=t,
        per_category=per_category,
        code_style_adherent=all(per_category[c] for c in CODE_STYLE_CATEGORIES),
        practice_adherent=all(per_category[c] for c in PRACTICE_CATEGORIES),
    )


def stratified_sample(repo_violations: list[list[Violation]],
                      groups: int = 31, seed: int = 0) -> SampleResult:
    """Draw up to one violation per category from each contiguous group.

    The partition depends only on the repository order, never the seed;
    the seed controls the visiting order inside each group.
    """
    import random  # only `sample` draws

    n = len(repo_violations)
    if groups > n:
        raise ValueError(f"cannot split {n} repositories into {groups} groups")
    size = math.ceil(n / groups)
    partition = [
        list(range(start, min(start + size, n)))
        for start in range(0, n, size)
    ]
    partition += [[] for _ in range(groups - len(partition))]

    samples: dict[Category, list[SampledViolation]] = {c: [] for c in Category}
    for gi, group in enumerate(partition):
        order = list(group)
        random.Random(f"{seed}:{gi}").shuffle(order)
        for cat in Category:
            for repo_pos in order:
                found = [v for v in repo_violations[repo_pos]
                         if v.category is cat]
                if found:
                    samples[cat].append(SampledViolation(gi, repo_pos, found[0]))
                    break

    diagnostics = []
    for cat in Category:
        got = len(samples[cat])
        if 0 < got < groups:
            diagnostics.append(
                f"{cat.value}: only {got} of {groups} groups had a violation")
        elif got == 0:
            diagnostics.append(f"{cat.value}: no violations anywhere")
    return SampleResult(samples=samples, diagnostics=diagnostics)
