"""Unexpected-leverage sequence mining (MUTARA) and rank-ratio scoring (HUNT).

MUTARA scores each candidate event by its unexpected leverage: the
patient support of event-within-T-days-of-first-prescription, minus the
support expected under independence, where patients who already had the
event in a pre-exposure window are treated as predictable and excluded.
HUNT re-ranks by the ratio of the plain-leverage rank to the
unexpected-leverage rank, demoting therapeutic-failure style events.

Background rates come from one random T-day window per never-exposed
patient, counted by the same kernel call as the exposed windows; its
start is derived from (seed, patient_id) so results are reproducible
and independent of iteration order or thread count.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .ranking import rank_events
from .store import (DAYS_12_MONTHS, Database, StudyConfig, first_per_patient,
                    previous_days, window_pairs)


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
    digests = db.cached(_background_digests, seed)
    lo = db.registration + DAYS_12_MONTHS
    span = db.last_active - T - lo + 1
    fits = span > 0
    # uint64 by uint64: a uint64 % int64 would go through float64
    offset = digests % np.where(fits, span, 1).astype(np.uint64)
    return np.where(fits, lo + offset.astype(np.int64), -1)


def _window_supports(db: Database, pts, start, T: int, pre: int,
                     n_exposed: int):
    """(seq, seq_unexpected, bg, bg_unexpected) of every code, with one
    kernel call: the rows with the code in (start, start + T], and those
    of them without it in [start - pre, start] either (a pre of 0 is no
    filter), of the first n_exposed rows, then of the others.  Rows must
    be distinct patients, so a row count is a patient count.
    """
    row, code, event = window_pairs(db, pts, start + 1, start + T)
    previous = db.cached(previous_days)[event]
    start = start[row]
    first = previous <= start    # no earlier event of the code in the window
    unexpected = previous < start - pre if pre else first
    exposed = row < n_exposed
    return [np.bincount(code[side & mask], minlength=len(db.event_codes))
            for side in (exposed, ~exposed) for mask in (first, unexpected)]


def _support_vectors(db: Database, episodes, config: StudyConfig):
    """The supports of every code, with one kernel call.

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
    # never-exposed patients with a drawn window
    background_starts = _background_starts(db, config.rng_seed, T)
    background = background_starts >= 0
    background[db.prescriptions_of_drug(config.drug_code)[0]] = False
    bg_pts = np.flatnonzero(background)
    seq, seq_unexpected, bg, bg_unexpected = _window_supports(
        db, np.concatenate([x_pts, bg_pts]),
        np.concatenate([x_idx, background_starts[bg_pts]]), T, pre,
        len(x_pts))
    supp_x, population = len(x_pts), db.n_patients
    bad = (seq_unexpected > seq) | (seq > supp_x) | (supp_x > population)
    if bad.any():
        raise ValueError(
            "inconsistent support counts of event codes "
            f"{[db.event_codes[c] for c in np.flatnonzero(bad).tolist()]}: "
            "supp_seq_unexpected <= supp_seq <= supp_x <= population fails")
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
                                       config))


def mutara_view(codes, supports):
    """(Unexpected leverage of each candidate, no filtered events)."""
    return dict(zip(codes, supports[0])), {}


def hunt_view(codes, supports):
    """(Leverage rank / unexpected-leverage rank of each candidate, no
    filtered events)."""
    rank_unex, rank_lev = (rank_events(dict(zip(codes, scores)))
                           for scores in supports)
    return {code: rank_lev[code] / rank_unex[code] for code in codes}, {}
