"""Observed-to-expected temporal disproportionality (shrunk IC and IC delta).

Contrasts how often an event follows a first-in-13-months prescription
with a self-controlled period 27 to 21 months earlier, using the shrunk
information component log2((n + 1/2)/(E + 1/2)) and its Gamma-posterior
credibility interval.  Both filter variants remove events more elevated
the month before the prescription than after it; variant 2 also removes
those more elevated on the prescription day itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ranking import RankedSignalList, build_ranked_list
from .store import (DAYS_PER_MONTH, Database, StudyConfig, candidate_codes,
                    window_pairs)


class Period(Enum):
    FOLLOWUP_U = "followup_u"
    CONTROL_V = "control_v"
    MONTH_PRIOR = "month_prior"
    DAY_OF_PRESCRIPTION = "day_of_prescription"


@dataclass(frozen=True)
class PeriodCounts:
    n_xy: int       # patients with study drug then event in the period
    n_x_dot: int    # patients with study drug and full coverage of the period
    n_dot_y: int    # patients with any first drug and event in the period
    n_dot_dot: int  # patients with any first drug and coverage of the period
    period_label: Period

    def __post_init__(self):
        if not (self.n_xy <= min(self.n_x_dot, self.n_dot_y)
                and max(self.n_x_dot, self.n_dot_y) <= self.n_dot_dot):
            raise ValueError(f"inconsistent period counts: {self}")


@dataclass(frozen=True)
class IcResult:
    event_code: str
    ic_u: float
    ic_v: float
    ic_delta: float
    ic_prior: float = math.nan
    ic_day0: float = math.nan


def expected_count(counts: PeriodCounts) -> float:
    """Expected patients with drug-then-event under independence."""
    if counts.n_dot_dot == 0:
        raise ValueError("empty study population (n_dot_dot = 0)")
    return counts.n_x_dot * counts.n_dot_y / counts.n_dot_dot


def ic(n_xy: float, expected: float) -> float:
    """Shrunk information component log2((n + 1/2)/(E + 1/2))."""
    return math.log2((n_xy + 0.5) / (expected + 0.5))


def gamma_quantile(shape: float, rate: float, q: float) -> float:
    """Quantile of a Gamma(shape, rate) via the inverse incomplete gamma."""
    if not 0.0 < q < 1.0:
        raise ValueError("quantile level must be in (0, 1)")
    if shape <= 0 or rate <= 0:
        raise ValueError("shape and rate must be positive")
    from scipy.special import gammaincinv  # lazy: slow to import
    return float(gammaincinv(shape, q)) / rate


def ic_credibility_bounds(n_xy: float, expected: float,
                          q_low: float = 0.025,
                          q_high: float = 0.975) -> tuple[float, float]:
    """log2 quantiles of the Gamma(n + 1/2, E + 1/2) posterior."""
    shape, rate = n_xy + 0.5, expected + 0.5
    return (math.log2(gamma_quantile(shape, rate, q_low)),
            math.log2(gamma_quantile(shape, rate, q_high)))


def ic_delta_from(n_u: float, e_u: float, n_v: float, e_v: float) -> float:
    """Two-period IC contrast with shrinkage.

    The control-period observed/expected ratio rescales the follow-up
    expectation; when the control period has no signal (n_v or E_v zero)
    the shrunk ratio (n_v + 1/2)/(E_v + 1/2) keeps the event rankable.
    """
    if n_v > 0 and e_v > 0:
        ratio = n_v / e_v
    else:
        ratio = (n_v + 0.5) / (e_v + 0.5)
    return ic(n_u, ratio * e_u)


def ic_delta(counts_u: PeriodCounts, counts_v: PeriodCounts) -> float:
    return ic_delta_from(counts_u.n_xy, expected_count(counts_u),
                         counts_v.n_xy, expected_count(counts_v))


# -- period counting ------------------------------------------------------

def period_window(period: Period, index_date, config: StudyConfig):
    """Inclusive (start, end) day bounds of a period relative to one index."""
    idx = index_date
    a, b = config.control_period
    return {Period.FOLLOWUP_U: (idx + 1, idx + config.T),
            Period.CONTROL_V: (idx - a * DAYS_PER_MONTH,
                               idx - b * DAYS_PER_MONTH - 1),
            Period.MONTH_PRIOR: (idx - DAYS_PER_MONTH, idx - 1),
            Period.DAY_OF_PRESCRIPTION: (idx, idx)}[period]


def _patients_with_event(db: Database, episodes, period: Period,
                         config: StudyConfig):
    """(patients with each event code in the window, patients with coverage).

    The first item is indexed by event code.  A patient counts once
    however many episodes or repeat events they have; episodes whose
    registration-to-last-active span does not cover the whole window are
    ignored for both counts.
    """
    pts, idx = episodes
    wstart, wend = period_window(period, idx, config)
    covered = (db.registration[pts] <= wstart) & (db.last_active[pts] >= wend)
    pts = pts[covered]
    row, code = window_pairs(db, pts, wstart[covered], wend[covered])
    n_codes = len(db.event_codes)
    patient_code = np.unique(pts[row] * n_codes + code)
    return (np.bincount(patient_code % n_codes, minlength=n_codes),
            len(np.unique(pts)))


def _period_vectors(db: Database, x_episodes, any_episodes, period: Period,
                    config: StudyConfig):
    """(n_xy, n_x_dot, n_dot_y, n_dot_dot) of one period for every code.

    n_xy and n_dot_y are indexed by event code.  Two kernel calls: one
    over the study-drug episodes, one over the all-drug episodes.
    """
    return (*_patients_with_event(db, x_episodes, period, config),
            *_patients_with_event(db, any_episodes, period, config))


def _period_counts_at(vectors, ci: int | None, period: Period) -> PeriodCounts:
    """One event code's PeriodCounts; ci None is a code absent from the db."""
    n_xy, n_x_dot, n_dot_y, n_dot_dot = vectors
    if ci is None:
        return PeriodCounts(0, n_x_dot, 0, n_dot_dot, period)
    return PeriodCounts(int(n_xy[ci]), n_x_dot, int(n_dot_y[ci]), n_dot_dot,
                        period)


# -- scoring and ranking --------------------------------------------------

def oe_scores(db: Database, config: StudyConfig) -> dict[str, IcResult]:
    """Per-candidate IC scores of every period: the pass both variants rank."""
    x_episodes = db.episodes(config.drug_code)
    cands = candidate_codes(db, x_episodes, config.T,
                            config.excluded_event_codes, config.include_day0)
    vectors = {p: _period_vectors(db, x_episodes, db.episodes(), p, config)
               for p in Period}

    results = {}
    for code in cands:
        ci = db.event_index(code)
        # a period no episode covers (often the control period of short
        # histories) expects nothing: its IC is 0, and IC delta falls back
        # to the follow-up IC through the shrunk control ratio
        n, e = {}, {}
        for period, vector in vectors.items():
            counts = _period_counts_at(vector, ci, period)
            n[period] = counts.n_xy
            e[period] = expected_count(counts) if counts.n_dot_dot else 0.0
        ics = {period: ic(n[period], e[period]) for period in Period}
        u, v = Period.FOLLOWUP_U, Period.CONTROL_V
        results[code] = IcResult(code, ics[u], ics[v],
                                 ic_delta_from(n[u], e[u], n[v], e[v]),
                                 ics[Period.MONTH_PRIOR],
                                 ics[Period.DAY_OF_PRESCRIPTION])
    return results


def oe_view(results: dict[str, IcResult], config: StudyConfig,
            variant: int = 1) -> RankedSignalList:
    """Candidates the variant's filter keeps, in descending IC delta order."""
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    scores, filtered = {}, {}
    for code, r in results.items():
        if r.ic_prior > r.ic_u:
            filtered[code] = "prior_month"
        elif variant == 2 and r.ic_day0 > r.ic_u:
            filtered[code] = "day_of_prescription"
        else:
            scores[code] = r.ic_delta
    return build_ranked_list(f"oe{variant}", config.drug_code, scores,
                             filtered=filtered)


def rank_oe(db: Database, config: StudyConfig,
            variant: int = 1) -> RankedSignalList:
    return oe_view(oe_scores(db, config), config, variant)
