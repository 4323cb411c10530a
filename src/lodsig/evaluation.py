"""Ranked-list scoring against a known-ADR dictionary.

Implements precision@k and mean average precision (overall, rare-only and
reaction-code-only variants) plus a one-sided exact Wilcoxon signed-rank
comparison between algorithms paired by drug, Bonferroni corrected.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .ranking import RankedSignalList
from .store import _id, read_rows

log = logging.getLogger(__name__)

FREQUENCY_CLASSES = ("frequent", "less_frequent", "rare")
TRUTH_COLUMNS = ("drug_code", "event_code", "frequency_class",
                 "is_reaction_code")
# is_reaction_code values, in any case; an empty one is false
_FLAGS = {"true": True, "1": True, "false": False, "0": False, "": False}


@dataclass(frozen=True)
class AdrEntry:
    frequency_class: str
    is_reaction_code: bool = False

    def __post_init__(self):
        if self.frequency_class not in FREQUENCY_CLASSES:
            raise ValueError(
                f"unknown frequency_class {self.frequency_class!r}")


@dataclass
class AdrDictionary:
    entries: dict[tuple[str, str], AdrEntry] = field(default_factory=dict)

    def matches(self, drug_code: str, event_code: str, mode: str) -> bool:
        entry = self.entries.get((drug_code, event_code))
        if entry is None:
            return False
        if mode == "all":
            return True
        if mode == "rare":
            return entry.frequency_class == "rare"
        if mode == "reaction_codes":
            return entry.is_reaction_code
        raise ValueError(f"unknown truth mode {mode!r}")

    @classmethod
    def from_csv(cls, path) -> "AdrDictionary":
        """Read a ground-truth CSV; DataFormatError names a bad file row.
        A (drug, event) pair listed twice keeps its last row."""
        rows = read_rows(path, [
            ("drug_code", _id, lambda t: "missing drug_code"),
            ("event_code", _id, lambda t: "missing event_code"),
            ("frequency_class",
             lambda t: t.strip() if t.strip() in FREQUENCY_CLASSES else None,
             lambda t: f"unknown frequency_class {t.strip()!r}"),
            ("is_reaction_code", lambda t: _FLAGS.get(t.strip().lower()),
             lambda t: f"bad is_reaction_code {t.strip()!r}")])
        return cls({(drug, event): AdrEntry(frequency, reaction)
                    for drug, event, frequency, reaction in rows})

    def to_csv(self, path):
        write_csv(path, TRUTH_COLUMNS, (
            [drug, event, entry.frequency_class,
             str(entry.is_reaction_code).lower()]
            for (drug, event), entry in sorted(self.entries.items())))


@dataclass(frozen=True)
class EvalReport:
    algorithm_id: str
    drug_code: str
    precision_10: float
    precision_50: float
    map_all: float | None
    map_rare: float | None
    map_reaction_codes: float | None
    n_candidates: int
    n_known_adrs_in_list: int


def truth_vector(ranked: RankedSignalList, dictionary: AdrDictionary,
                 mode: str = "all") -> list[int]:
    """Binary relevance labels aligned to the ranked list."""
    return [int(dictionary.matches(ranked.drug_code, e.event_code, mode))
            for e in ranked.entries]


def precision_k(y, k: int) -> float:
    """Fraction of known ADRs in the top k (full length if k overshoots)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(y):
        log.warning("precision_k: k=%d exceeds list length %d, using full "
                    "list", k, len(y))
        k = len(y)
    if k == 0:
        return 0.0
    return sum(y[:k]) / k


def map_score(y) -> float | None:
    """Mean of precision_K over ranks K holding known ADRs; None if none."""
    positives = [i + 1 for i, v in enumerate(y) if v]
    if not positives:
        return None
    return sum(precision_k(y, k) for k in positives) / len(positives)


def evaluate(ranked: RankedSignalList,
             dictionary: AdrDictionary) -> EvalReport:
    """Metrics of one ranked list; precision at k beyond the length of
    the list is over the whole list (emit_report logs one line for all
    such lists, not one warning per list)."""
    y_all = truth_vector(ranked, dictionary, "all")
    top = len(y_all)
    return EvalReport(
        algorithm_id=ranked.algorithm,
        drug_code=ranked.drug_code,
        precision_10=precision_k(y_all, min(10, top)) if y_all else 0.0,
        precision_50=precision_k(y_all, min(50, top)) if y_all else 0.0,
        map_all=map_score(y_all),
        map_rare=map_score(truth_vector(ranked, dictionary, "rare")),
        map_reaction_codes=map_score(
            truth_vector(ranked, dictionary, "reaction_codes")),
        n_candidates=len(ranked.entries),
        n_known_adrs_in_list=sum(y_all),
    )


# -- paired significance testing ------------------------------------------

EXACT_ENUMERATION_LIMIT = 12


def signed_rank_one_sided(a, b) -> tuple[float, bool]:
    """One-sided p-value that a > b, paired; exact for <= 12 nonzero diffs.

    Returns (p, degenerate); degenerate marks an all-tied comparison.
    Ties in absolute differences take average ranks.
    """
    diffs = [x - y for x, y in zip(a, b)]
    nonzero = [d for d in diffs if d != 0.0]
    if not nonzero:
        return 1.0, True
    ranks = _average_ranks([abs(d) for d in nonzero])
    w_pos = sum(r for r, d in zip(ranks, nonzero) if d > 0)
    m = len(nonzero)
    if m <= EXACT_ENUMERATION_LIMIT:
        hits = 0
        for signs in itertools.product((0, 1), repeat=m):
            w = sum(r for r, s in zip(ranks, signs) if s)
            if w >= w_pos - 1e-12:
                hits += 1
        return hits / 2 ** m, False
    # normal approximation with tie correction and continuity correction
    mean = m * (m + 1) / 4
    var = m * (m + 1) * (2 * m + 1) / 24
    var -= _tie_correction([abs(d) for d in nonzero])
    z = (w_pos - mean - 0.5) / math.sqrt(var)
    return 0.5 * math.erfc(z / math.sqrt(2)), False


def _average_ranks(values):
    """1-based ranks of values; tied values share their mean rank."""
    first, last = {}, {}
    for i, v in enumerate(sorted(values)):
        first.setdefault(v, i)
        last[v] = i
    return [(first[v] + last[v]) / 2 + 1 for v in values]


def _tie_correction(values):
    return sum(t ** 3 - t for t in Counter(values).values()) / 48


@dataclass
class SignificanceResult:
    metric: str
    alpha: float
    algorithms: list[str]
    drugs: list[str]
    p_raw: dict[tuple[str, str], float]
    p_adjusted: dict[tuple[str, str], float]
    significant: dict[tuple[str, str], bool]
    degenerate: dict[tuple[str, str], bool]


def compare_algorithms(reports, metric: str = "map_all",
                       alpha: float = 0.01) -> SignificanceResult:
    """Pairwise one-sided signed-rank tests between algorithms, paired by
    drug, with Bonferroni correction over all ordered pairs."""
    by_algo: dict[str, dict[str, float]] = {}
    for r in reports:
        by_algo.setdefault(r.algorithm_id, {})[r.drug_code] = \
            getattr(r, metric)
    algorithms = sorted(by_algo)
    if len(algorithms) < 2:
        raise ValueError("need at least two algorithms to compare")
    drugs = sorted(set.intersection(*(set(v) for v in by_algo.values())))
    if len(drugs) < 2:
        raise ValueError("need at least two drugs for a paired comparison")

    pairs = [(a, b) for a in algorithms for b in algorithms if a != b]
    p_raw, p_adj, significant, degenerate = {}, {}, {}, {}
    for a, b in pairs:
        paired = [(by_algo[a][d], by_algo[b][d]) for d in drugs
                  if by_algo[a][d] is not None and by_algo[b][d] is not None]
        if len(paired) < 2:
            p, degen = 1.0, True
        else:
            p, degen = signed_rank_one_sided([x for x, _ in paired],
                                             [y for _, y in paired])
        p_raw[(a, b)] = p
        p_adj[(a, b)] = min(1.0, p * len(pairs))
        significant[(a, b)] = p_adj[(a, b)] < alpha
        degenerate[(a, b)] = degen
    return SignificanceResult(metric, alpha, algorithms, drugs, p_raw, p_adj,
                              significant, degenerate)


# -- report emission ------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def ranked_csv_path(output_dir, drug_code: str, algorithm: str) -> Path:
    return Path(output_dir) / f"ranked_{drug_code}_{algorithm}.csv"


def write_ranked_csv(path, ranked: RankedSignalList, y) -> None:
    write_csv(path, ["rank", "event_code", "score", "y"], (
        [entry.rank, entry.event_code, _fmt(entry.score), label]
        for entry, label in zip(ranked.entries, y)))


def read_truth_from_ranked_csv(path) -> list[int]:
    rows = read_rows(path, [("y", int, lambda t: f"bad y {t!r}")])
    return [y for (y,) in rows]


SCORE_COLUMNS = ["precision_10", "precision_50", "map_all", "map_rare",
                 "map_reaction_codes"]
METRIC_COLUMNS = SCORE_COLUMNS + ["n_candidates", "n_known_adrs_in_list"]


def write_metrics_csv(path, reports) -> None:
    write_csv(path, ["algorithm", "drug_code"] + METRIC_COLUMNS, (
        [r.algorithm_id, r.drug_code,
         *(_fmt(getattr(r, c)) for c in SCORE_COLUMNS),
         r.n_candidates, r.n_known_adrs_in_list]
        for r in sorted(reports, key=lambda r: (r.algorithm_id, r.drug_code))))


def write_chart_csv(path, reports) -> None:
    """Tidy (panel, drug, algorithm, map) rows for the three MAP panels."""
    ordered = sorted(reports, key=lambda r: (r.drug_code, r.algorithm_id))
    write_csv(path, ["panel", "drug", "algorithm", "map"], (
        [panel, r.drug_code, r.algorithm_id, _fmt(getattr(r, f"map_{panel}"))]
        for panel in ("all", "rare", "reaction_codes") for r in ordered))


def emit_report(output_dir, ranked_lists, dictionary: AdrDictionary,
                reports) -> None:
    """Write per-drug ranked CSVs, the metric summary and chart data into
    an existing directory; reports are the evaluations of ranked_lists."""
    out = Path(output_dir)
    for ranked in ranked_lists:
        path = ranked_csv_path(out, ranked.drug_code, ranked.algorithm)
        write_ranked_csv(path, ranked, truth_vector(ranked, dictionary, "all"))
    short = sum(r.n_candidates < 50 for r in reports)
    if short:
        log.warning("%d of %d ranked lists have fewer than 50 entries; "
                    "their precision at k beyond the list length is over "
                    "the whole list", short, len(reports))
    write_metrics_csv(out / "metrics_summary.csv", reports)
    write_chart_csv(out / "map_chart.csv", reports)
