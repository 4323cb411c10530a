"""Spontaneous-report-style disproportionality ranking (ROR05).

Projects the longitudinal store into pseudo-report counts: each
(prescription, event-within-30-days) pair acts like one spontaneous
report, and candidate events are ranked by the lower bound of the 90%
confidence interval of the reporting odds ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ranking import RankedSignalList, build_ranked_list
from .store import Database, StudyConfig, candidate_codes, window_pairs

Z_90_ONE_SIDED = 1.645


@dataclass(frozen=True)
class ContingencyTable:
    w00: int   # event Y within T days after drug X
    w01: int   # other events within T days after drug X
    w10: int   # event Y within T days after other drugs
    w11: int   # other events after other drugs

    def __post_init__(self):
        if min(self.w00, self.w01, self.w10, self.w11) < 0:
            raise ValueError("contingency cells must be non-negative")

    @property
    def total(self) -> int:
        return self.w00 + self.w01 + self.w10 + self.w11


def _cells(table: ContingencyTable, correct: bool):
    cells = (table.w00, table.w01, table.w10, table.w11)
    if min(cells) > 0:
        return cells
    if not correct:
        return None
    # Haldane-Anscombe continuity correction
    return tuple(c + 0.5 for c in cells)


def ror(table: ContingencyTable, correct: bool = True) -> float | None:
    """Reporting odds ratio (w00/w10)/(w01/w11); None when undefined."""
    cells = _cells(table, correct)
    if cells is None:
        return None
    a, b, c, d = cells
    return (a / c) / (b / d)


def ror05(table: ContingencyTable, correct: bool = True) -> float | None:
    """Left bound of the 90% CI of the ROR; None when undefined."""
    cells = _cells(table, correct)
    if cells is None:
        return None
    a, b, c, d = cells
    point = (a / c) / (b / d)
    se = math.sqrt(1 / a + 1 / b + 1 / c + 1 / d)
    return math.exp(math.log(point) - Z_90_ONE_SIDED * se)


def build_srs_counts(db: Database, drug_code: str, T: int = 30,
                     candidates=None) -> dict[str, ContingencyTable]:
    """Contingency tables per event from the pseudo-report projection.

    A report is a distinct (prescription, event_code, event_date) triple
    with the event inside (rx_date, rx_date + T].  Every prescription of
    every drug contributes, mirroring the report analogy; identical rows
    were already collapsed at load so same-day repeats of one drug do not
    double-count an event date.  T is held to `StudyConfig`'s bounds.
    """
    T = StudyConfig(drug_code=drug_code, T=T).T
    di = db.drug_index(drug_code)
    if di is None and candidates is None:
        return {}
    pair_rx, pair_event = window_pairs(db, db.rx_pid, db.rx_day + 1,
                                       db.rx_day + T)
    # an unknown drug matches no prescription (drug indices are >= 0)
    pair_is_x = db.rx_drug[pair_rx] == (-1 if di is None else di)

    n_codes = len(db.event_codes)
    w00 = np.bincount(pair_event[pair_is_x], minlength=n_codes)
    y_total = np.bincount(pair_event, minlength=n_codes)
    w10 = y_total - w00
    total_x = int(pair_is_x.sum())
    total = len(pair_rx)

    if candidates is None:
        wanted = [db.event_codes[c] for c in np.flatnonzero(w00 + w10)]
    else:
        wanted = sorted(candidates)
    tables = {}
    for code in wanted:
        ci = db.event_index(code)
        a = int(w00[ci]) if ci is not None else 0
        c = int(w10[ci]) if ci is not None else 0
        tables[code] = ContingencyTable(a, total_x - a, c,
                                        (total - total_x) - c)
    return tables


def rank_ror(db: Database, config: StudyConfig) -> RankedSignalList:
    """Rank candidate events by ROR05 descending (undefined scores last)."""
    cands = candidate_codes(db, db.episodes(config.drug_code), config.T,
                            config.excluded_event_codes, config.include_day0)
    tables = build_srs_counts(db, config.drug_code, config.T, cands)
    scores = {code: ror05(tables[code]) for code in tables}
    return build_ranked_list("ror05", config.drug_code, scores)
