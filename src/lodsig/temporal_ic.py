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
from enum import Enum

import numpy as np

from .store import (DAYS_PER_MONTH, Database, StudyConfig, distinct,
                    window_pairs)


class Period(Enum):
    FOLLOWUP_U = "followup_u"
    CONTROL_V = "control_v"
    MONTH_PRIOR = "month_prior"
    DAY_OF_PRESCRIPTION = "day_of_prescription"


def _expected(n_x_dot, n_dot_y, n_dot_dot):
    """Expected patients with drug-then-event under independence, of the
    codes of n_dot_y.

    A period no episode covers (often the control period of short
    histories) has n_x_dot = n_dot_y = 0 and expects nothing.
    """
    return n_x_dot * n_dot_y / np.maximum(n_dot_dot, 1)


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


# -- period counting ------------------------------------------------------

def _patients_with_event(db: Database, episodes, config: StudyConfig):
    """(patients with each event code in each period, patients covering
    each period): a row per period in Period order.

    The first item is indexed by (period, event code).  A patient counts
    once however many episodes or repeat events they have; episodes
    whose registration-to-last-active span does not cover the whole
    period window are ignored for both counts.  One kernel call a period.
    """
    pts, idx = episodes
    a, b = config.control_period
    # each period's inclusive day bounds from the index day, in Period order
    offsets = ((1, config.T), (-a * DAYS_PER_MONTH, -b * DAYS_PER_MONTH - 1),
               (-DAYS_PER_MONTH, -1), (0, 0))
    registered, active = db.registration[pts] - idx, db.last_active[pts] - idx
    n_codes = len(db.event_codes)
    with_code, covering = [], []
    for lo, hi in offsets:
        covered = (registered <= lo) & (active >= hi)
        p, i = pts[covered], idx[covered]
        row, code = window_pairs(db, p, i + lo, i + hi)[:2]
        patient_code = distinct(p[row] * n_codes + code)
        with_code.append(np.bincount(patient_code % n_codes,
                                     minlength=n_codes))
        covering.append(len(distinct(p)))
    return np.array(with_code), np.array(covering)


def _period_vectors(db: Database, x_episodes, config: StudyConfig):
    """(n_xy, n_x_dot, n_dot_y, n_dot_dot): a row per period, in order.

    n_xy counts the patients with the study drug then the event in the
    period, n_x_dot those with the study drug and full coverage of the
    period; n_dot_y and n_dot_dot count the same over every drug's
    episodes.  n_xy and n_dot_y are indexed by (period, event code).
    The all-drug half reads only T and the control period of config, so
    it is counted once per database for each pair of them.
    """
    n_xy, n_x_dot = _patients_with_event(db, x_episodes, config)
    n_dot_y, n_dot_dot = db.cached(
        ("all-drug periods", config.T, config.control_period),
        lambda: _patients_with_event(db, db.episodes(), config))
    x_dot, dot_dot = n_x_dot[:, None], n_dot_dot[:, None]
    bad = (n_xy > np.minimum(x_dot, n_dot_y)) | \
        (np.maximum(x_dot, n_dot_y) > dot_dot)
    if bad.any():
        period = np.argmax(bad.any(axis=1))
        codes = [db.event_codes[c] for c in np.flatnonzero(bad[period])]
        raise ValueError(
            f"inconsistent {list(Period)[period].value} period counts of "
            f"event codes {codes}: n_xy must be at most n_x_dot and "
            "n_dot_y, and both at most n_dot_dot")
    return n_xy, n_x_dot, n_dot_y, n_dot_dot


# -- scoring and ranking --------------------------------------------------

def oe_scores(db: Database, config: StudyConfig):
    """(n_xy, expected) of every code, a row per period in Period order:
    the pass both variants score."""
    n_xy, n_x_dot, n_dot_y, n_dot_dot = _period_vectors(
        db, db.episodes(config.drug_code), config)
    return n_xy, _expected(n_x_dot[:, None], n_dot_y, n_dot_dot[:, None])


def oe_view(codes, values, variant: int):
    """(IC delta of each candidate filter variant 1 or 2 keeps, the filter
    reason of each one it drops)."""
    # a period that expects nothing has an IC of 0, and IC delta falls
    # back to the follow-up IC through the shrunk control ratio
    (n_u, n_v, n_prior, n_day0), (e_u, e_v, e_prior, e_day0) = values
    kept, filtered = {}, {}
    for code, ic_u, ic_prior, ic_day0, delta in zip(
            codes, map(ic, n_u, e_u), map(ic, n_prior, e_prior),
            map(ic, n_day0, e_day0), map(ic_delta_from, n_u, e_u, n_v, e_v)):
        if ic_prior > ic_u:
            filtered[code] = "prior_month"
        elif variant == 2 and ic_day0 > ic_u:
            filtered[code] = "day_of_prescription"
        else:
            kept[code] = delta
    return kept, filtered
