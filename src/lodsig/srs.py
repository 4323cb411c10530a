"""Spontaneous-report-style disproportionality ranking (ROR05).

Projects the longitudinal store into pseudo-report counts: each
(prescription, event-within-30-days) pair acts like one spontaneous
report, and candidate events are ranked by the lower bound of the 90%
confidence interval of the reporting odds ratio.
"""

from __future__ import annotations

import math

import numpy as np

from .store import Database, StudyConfig, window_pairs

Z_90_ONE_SIDED = 1.645


def _cells(cells):
    low = min(cells)
    if low < 0:
        raise ValueError(f"contingency cells must be non-negative: {cells}")
    # Haldane-Anscombe continuity correction of a zero cell
    return cells if low > 0 else tuple(c + 0.5 for c in cells)


def ror(cells) -> float:
    """Reporting odds ratio (w00/w10)/(w01/w11) of the cells (w00, w01,
    w10, w11), each plus 0.5 when one is zero."""
    a, b, c, d = _cells(cells)
    return (a / c) / (b / d)


def ror05(cells) -> float:
    """Left bound of the 90% CI of the ROR, with `ror`'s correction."""
    a, b, c, d = _cells(cells)
    point = (a / c) / (b / d)
    se = math.sqrt(1 / a + 1 / b + 1 / c + 1 / d)
    return math.exp(math.log(point) - Z_90_ONE_SIDED * se)


def _reports(db: Database, T: int):
    """(reports of each (drug, event code), reports of each code): the
    pseudo-report counts every drug reads, with one kernel call.

    A report is a distinct (prescription, event_code, event_date) triple
    with the event inside (rx_date, rx_date + T].  Every prescription of
    every drug contributes, mirroring the report analogy; identical rows
    were already collapsed at load so same-day repeats of one drug do not
    double-count an event date.
    """
    pair_rx, pair_event = window_pairs(db, db.rx_pid, db.rx_day + 1,
                                       db.rx_day + T)[:2]
    n_drugs, n_codes = len(db.drug_codes), len(db.event_codes)
    # int64 first: on numpy 1 an int32 column times an int stays int32
    cell = db.rx_drug[pair_rx].astype(np.int64) * n_codes + pair_event
    by_drug = np.bincount(cell, minlength=n_drugs * n_codes).reshape(
        n_drugs, n_codes)
    return by_drug, by_drug.sum(axis=0)


def srs_cells(db: Database, config: StudyConfig):
    """(w00, w01, w10, w11) of every event code, from the pseudo-report
    projection: the pass ROR05 scores.

    w00 counts the reports (see `_reports`) of the event after the study
    drug, w01 those of other events after it, w10 and w11 the same after
    other drugs.  The reports are counted once per database for each T;
    a drug reads its row, and an unknown drug has none.
    """
    by_drug, every = db.cached(_reports, config.T)
    di = db.drug_index(config.drug_code)
    w00 = np.zeros_like(every) if di is None else by_drug[di]
    w10 = every - w00
    total_x, total = int(w00.sum()), int(every.sum())
    return w00, total_x - w00, w10, total - total_x - w10


def ror_view(codes, cells):
    """(ROR05 of each candidate's cells, no filtered events)."""
    return {code: ror05(c) for code, c in zip(codes, zip(*cells))}, {}
