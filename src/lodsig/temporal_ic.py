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

from .store import (DAYS_PER_MONTH, Database, StudyConfig, record_order,
                    run_starts, window_pairs)


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

def _patients_with_event(db: Database, T: int,
                         control_period: tuple[int, int]):
    """(n_xy, n_x_dot, n_dot_y, n_dot_dot) of every drug's episodes, with
    one kernel call a period.

    n_xy is indexed by (drug, period, event code) and n_x_dot by (drug,
    period): the patients with the drug's episode then the event in the
    period, and those with the drug's episode covering the period.
    n_dot_y (period, event code) and n_dot_dot (period) count the same
    over every drug's episodes.  A patient counts once however many
    episodes or repeat events they have; episodes whose
    registration-to-last-active span does not cover the whole period
    window are ignored for all four.  Periods are in Period order.
    """
    drug, pts, idx = db.all_episodes()
    a, b = control_period
    # each period's inclusive day bounds from the index day, in Period order
    offsets = ((1, T), (-a * DAYS_PER_MONTH, -b * DAYS_PER_MONTH - 1),
               (-DAYS_PER_MONTH, -1), (0, 0))
    registered, active = db.registration[pts] - idx, db.last_active[pts] - idx
    n_drugs, n_codes = len(db.drug_codes), len(db.event_codes)
    n_xy, n_x_dot, n_dot_y, n_dot_dot = [], [], [], []
    for lo, hi in offsets:
        covered = (registered <= lo) & (active >= hi)
        d, p, i = drug[covered], pts[covered], idx[covered]
        row, code = window_pairs(db, p, i + lo, i + hi)[:2]
        # each pair's (patient, code, drug), sorted: the first of each
        # (patient, code) and of each (patient, code, drug) is new
        pair_p, pair_d = p[row], d[row]
        order = record_order(pair_p, code, pair_d)
        pair_p, code, pair_d = pair_p[order], code[order], pair_d[order]
        new = run_starts(pair_p, code)
        n_dot_y.append(np.bincount(code[new], minlength=n_codes))
        new |= run_starts(pair_d)
        # int64 first: on numpy 1 an int32 column times an int stays int32
        cell = pair_d[new].astype(np.int64) * n_codes + code[new]
        n_xy.append(np.bincount(cell, minlength=n_drugs * n_codes).reshape(
            n_drugs, n_codes))
        # episodes are in (drug, patient) order: a drug's patient is new
        # where either changes
        first = run_starts(d, p)
        n_x_dot.append(np.bincount(d[first], minlength=n_drugs))
        n_dot_dot.append(np.count_nonzero(run_starts(np.sort(p))))
    return (np.stack(n_xy, axis=1), np.stack(n_x_dot, axis=1),
            np.array(n_dot_y), np.array(n_dot_dot))


def _period_vectors(db: Database, config: StudyConfig):
    """The `_patients_with_event` counts with the config drug's row of n_xy
    and n_x_dot: a row per period, in order; n_xy and n_dot_y are indexed
    by (period, event code).

    The counts read only T and the control period of config, so they are
    counted once per database for each pair of them; an unknown drug's
    row is zeros.
    """
    n_xy, n_x_dot, n_dot_y, n_dot_dot = db.cached(
        _patients_with_event, config.T, config.control_period)
    di = db.drug_index(config.drug_code)
    if di is None:
        n_xy, n_x_dot = np.zeros_like(n_dot_y), np.zeros_like(n_dot_dot)
    else:
        n_xy, n_x_dot = n_xy[di], n_x_dot[di]
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
    n_xy, n_x_dot, n_dot_y, n_dot_dot = _period_vectors(db, config)
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
