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
from .store import DataFormatError, _id, read_rows

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


def _check_mode(mode: str) -> None:
    if mode not in ("all", "rare", "reaction_codes"):
        raise ValueError(f"unknown truth mode {mode!r}")


@dataclass
class AdrDictionary:
    entries: dict[tuple[str, str], AdrEntry] = field(default_factory=dict)

    def matches(self, drug_code: str, event_code: str, mode: str) -> bool:
        _check_mode(mode)
        entry = self.entries.get((drug_code, event_code))
        if entry is None:
            return False
        if mode == "rare":
            return entry.frequency_class == "rare"
        if mode == "reaction_codes":
            return entry.is_reaction_code
        return True

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
    _check_mode(mode)   # an empty list calls no matches
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


def evaluate(ranked: RankedSignalList, dictionary: AdrDictionary,
             y_all: list[int] | None = None) -> EvalReport:
    """Metrics of one ranked list, given its truth_vector(..., "all") if
    already built; precision at k beyond the length of the list is over
    the whole list (emit_report logs one line for all such lists, not
    one warning per list)."""
    if y_all is None:
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


# -- the output tree ------------------------------------------------------
# Every file of a run's output tree but manifest_resolved.yaml, and the
# tables and charts that summarize pivots from metrics_summary.csv.

SCORE_COLUMNS = ["precision_10", "precision_50", "map_all", "map_rare",
                 "map_reaction_codes"]
METRIC_HEADER = ["algorithm", "drug_code", *SCORE_COLUMNS, "n_candidates",
                 "n_known_adrs_in_list"]
MAP_PANELS = ("all", "rare", "reaction_codes")


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_chart_csv(path, panels, rows) -> None:
    """Tidy (panel, drug, algorithm, map) rows for the MAP panels; rows
    map the columns of metrics_summary.csv to their texts."""
    ordered = sorted(rows, key=lambda r: (r["drug_code"], r["algorithm"]))
    write_csv(path, ["panel", "drug", "algorithm", "map"], (
        [panel, r["drug_code"], r["algorithm"], r[f"map_{panel}"]]
        for panel in panels for r in ordered))


def emit_report(output_dir, ranked_lists,
                dictionary: AdrDictionary | None) -> None:
    """Write every file of a run but its manifest into an existing
    directory: a ranked CSV per list, whose y is 0 without a dictionary.
    With one, also the metric summary, the MAP chart data and, when the
    lists span at least two algorithms and two drugs, a signed-rank
    test file per tested metric."""
    out = Path(output_dir)
    reports = []
    for ranked in ranked_lists:
        if dictionary is None:
            y = [0] * len(ranked.entries)
        else:
            y = truth_vector(ranked, dictionary, "all")
            reports.append(evaluate(ranked, dictionary, y))
        write_csv(out / f"ranked_{ranked.drug_code}_{ranked.algorithm}.csv",
                  ["rank", "event_code", "score", "y"], (
                      [entry.rank, entry.event_code, _fmt(entry.score), label]
                      for entry, label in zip(ranked.entries, y)))
    if dictionary is None:
        return
    short = sum(r.n_candidates < 50 for r in reports)
    if short:
        log.warning("%d of %d ranked lists have fewer than 50 entries; "
                    "their precision at k beyond the list length is over "
                    "the whole list", short, len(reports))
    rows = [dict(zip(METRIC_HEADER, [
        r.algorithm_id, r.drug_code,
        *(_fmt(getattr(r, c)) for c in SCORE_COLUMNS),
        r.n_candidates, r.n_known_adrs_in_list]))
        for r in sorted(reports, key=lambda r: (r.algorithm_id, r.drug_code))]
    write_csv(out / "metrics_summary.csv", METRIC_HEADER,
              (row.values() for row in rows))
    write_chart_csv(out / "map_chart.csv", MAP_PANELS, rows)
    if min(len({r.algorithm for r in ranked_lists}),
           len({r.drug_code for r in ranked_lists})) < 2:
        return
    for metric in ("precision_10", "precision_50", "map_all"):
        result = compare_algorithms(reports, metric)
        write_csv(out / f"significance_{metric}.csv", [
            "metric", "algorithm_a", "algorithm_b", "p_raw", "p_adjusted",
            "significant", "degenerate"], (
            [metric, *pair, repr(result.p_raw[pair]),
             repr(result.p_adjusted[pair]),
             str(result.significant[pair]).lower(),
             str(result.degenerate[pair]).lower()]
            for pair in sorted(result.p_raw)))


def _metric(text):
    """A metric value's text, once checked: empty or a float."""
    if text:
        float(text)
    return text


def summarize(output_dir) -> None:
    """Pivot the metrics_summary.csv of an output tree into a per-drug
    table of each precision and a chart data file of each MAP panel,
    whose values keep the texts read."""
    path = Path(output_dir) / "metrics_summary.csv"
    names = ["algorithm", "drug_code", *SCORE_COLUMNS]
    fields = [(name, str, None) for name in names[:2]] + [
        (metric, _metric, lambda t, metric=metric: f"bad {metric} value {t!r}")
        for metric in SCORE_COLUMNS]
    rows = [dict(zip(names, row)) for row in read_rows(path, fields)]
    first = {}
    for n, r in enumerate(rows):
        unit = first.setdefault((r["algorithm"], r["drug_code"]), n)
        if unit != n:
            # the tables could keep only one of them, the charts list both
            raise DataFormatError(
                f"{path}, row {n + 2}: repeats algorithm "
                f"{r['algorithm']!r} and drug {r['drug_code']!r} of row "
                f"{unit + 2}")
    algorithms = sorted({r["algorithm"] for r in rows})
    drugs = sorted({r["drug_code"] for r in rows})
    warnings = 0

    for metric in ("precision_10", "precision_50"):
        value = {(r["algorithm"], r["drug_code"]):
                 float(r[metric]) if r[metric] else None for r in rows}
        table = [[value.get((a, d)) for a in algorithms] for d in drugs]
        warnings += sum(v is None for line in table for v in line)
        present = [[v for v in col if v is not None] for col in zip(*table)]
        write_csv(path.with_name(f"table_{metric}.csv"),
                  ["drug"] + algorithms, [
            *([d] + ["" if v is None else f"{v:.3f}" for v in line]
              for d, line in zip(drugs, table)),
            ["Mean (3dp)"] + [f"{sum(col) / len(col):.3f}" if col else ""
                              for col in present]])

    for panel in MAP_PANELS:
        warnings += sum(not r[f"map_{panel}"] for r in rows)
        write_chart_csv(path.with_name(f"chart_map_{panel}.csv"), [panel],
                        rows)
    if warnings:
        log.warning("summary has %d missing metric values", warnings)
