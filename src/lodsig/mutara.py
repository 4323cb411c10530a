"""Unexpected-leverage sequence mining (MUTARA) and rank-ratio scoring (HUNT).

MUTARA scores each candidate event by its unexpected leverage: the
patient support of event-within-T-days-of-first-prescription, minus the
support expected under independence, where patients who already had the
event in a pre-exposure window are treated as predictable and excluded.
HUNT re-ranks by the ratio of the plain-leverage rank to the
unexpected-leverage rank, demoting therapeutic-failure style events.

Background rates come from one random T-day window per never-exposed
patient; the window start is derived from (seed, patient_id) so results
are reproducible and independent of iteration order or thread count.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .ranking import rank_events
from .store import (DAYS_12_MONTHS, Database, StudyConfig, first_per_patient,
                    window_pairs)


def _digest(seed: int, patient_id: str) -> int:
    return int.from_bytes(hashlib.blake2b(f"{seed}|{patient_id}".encode(),
                                          digest_size=8).digest(), "big")


def _background_digests(db: Database, seed: int) -> np.ndarray:
    """Every patient's window digest; it depends on neither T nor drug."""
    return np.fromiter((_digest(seed, pid) for pid in db.patient_ids),
                       dtype=np.uint64, count=db.n_patients)


def _background_starts(db: Database, seed: int, T: int) -> np.ndarray:
    """Every patient's T-day background window start, -1 for a patient
    whose active span cannot fit one.

    A start is uniform over [registration + 365, last_active - T], drawn
    by the (seed, patient_id) digest.
    """
    digests = db.cached(("background digests", seed),
                        lambda: _background_digests(db, seed))
    lo = db.registration + DAYS_12_MONTHS
    span = db.last_active - T - lo + 1
    fits = span > 0
    # uint64 by uint64: a uint64 % int64 would go through float64
    offset = digests % np.where(fits, span, 1).astype(np.uint64)
    return np.where(fits, lo + offset.astype(np.int64), -1)


def _window_supports(db: Database, pts, start, T: int, pre: int):
    """Per-code supports of one window per pts row, at most 2 kernel calls.

    Returns (rows with the code in (start, start + T], those of them
    without it in [start - pre, start]), both indexed by event code.  A
    pre of 0 disables the predictable filter.  Rows must be distinct
    patients, so a row count is a patient count.
    """
    n_codes = len(db.event_codes)
    row, code = window_pairs(db, pts, start + 1, start + T)
    post = np.unique(row * n_codes + code)
    if pre > 0:
        row, code = window_pairs(db, pts, start - pre, start)
        # unexpected = post pairs minus predictable pairs, per (row, code)
        post_unexpected = post[~np.isin(post, row * n_codes + code)]
    else:
        post_unexpected = post
    return (np.bincount(post % n_codes, minlength=n_codes),
            np.bincount(post_unexpected % n_codes, minlength=n_codes))


def _support_vectors(db: Database, episodes, config: StudyConfig,
                     seed: int):
    """The supports of every code, with at most 4 kernel calls.

    Only each patient's first episode counts.  Returns (supp_x,
    supp_seq_unexpected, supp_seq, supp_bg_unexpected, supp_bg,
    population): the patients holding a qualifying first episode; those
    with the event in follow-up and none in the pre-window, and those
    with it in follow-up at all; the same two supports of the
    never-exposed patients' background windows; and every patient.  The
    four supports are indexed by event code.
    """
    T, pre = config.T, config.pre_window
    x_pts, x_idx = first_per_patient(*episodes)
    seq, seq_unexpected = _window_supports(db, x_pts, x_idx, T, pre)
    supp_x, population = len(x_pts), db.n_patients
    bad = (seq_unexpected > seq) | (seq > supp_x) | (supp_x > population)
    if bad.any():
        raise ValueError(
            "inconsistent support counts of event codes "
            f"{[db.event_codes[c] for c in np.flatnonzero(bad).tolist()]}: "
            "supp_seq_unexpected <= supp_seq <= supp_x <= population fails")

    # never-exposed patients with a drawn window
    background_starts = _background_starts(db, seed, T)
    bg_pts = np.setdiff1d(np.flatnonzero(background_starts >= 0),
                          db.prescriptions_of_drug(config.drug_code)[0])
    bg, bg_unexpected = _window_supports(db, bg_pts,
                                         background_starts[bg_pts], T, pre)
    return supp_x, seq_unexpected, seq, bg_unexpected, bg, population


def leverages(supp_x, supp_seq_unexpected, supp_seq, supp_bg_unexpected,
              supp_bg, population):
    """(unexpected leverage, leverage) of every code of the
    `_support_vectors` output.

    Each is the sequence support less the support expected under
    independence, supp_x * (background + sequence support) / population.
    """
    def leverage(seq, bg):
        return seq - supp_x * (bg + seq) / population
    return (leverage(supp_seq_unexpected, supp_bg_unexpected),
            leverage(supp_seq, supp_bg))


def candidate_supports(db: Database, config: StudyConfig):
    """(unexpected leverage, leverage) of every code: the pass MUTARA and
    HUNT score."""
    return leverages(*_support_vectors(db, db.episodes(config.drug_code),
                                       config, config.rng_seed))


def mutara_view(codes, supports):
    """(Unexpected leverage of each candidate, no filtered events)."""
    return dict(zip(codes, supports[0])), {}


def hunt_view(codes, supports):
    """(Leverage rank / unexpected-leverage rank of each candidate, no
    filtered events)."""
    rank_unex, rank_lev = (rank_events(dict(zip(codes, scores)))
                           for scores in supports)
    return {code: rank_lev[code] / rank_unex[code] for code in codes}, {}
