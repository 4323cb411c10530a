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
from dataclasses import dataclass

import numpy as np

from .ranking import RankedSignalList, build_ranked_list, rank_events
from .store import (DAYS_12_MONTHS, Database, StudyConfig, candidate_codes,
                    first_per_patient, window_pairs)


@dataclass(frozen=True)
class SupportCounts:
    supp_x: int                 # patients holding a qualifying first episode
    supp_seq_unexpected: int    # event in follow-up, none in pre-window
    supp_seq: int               # event in follow-up, no filter
    supp_bg_unexpected: int     # background supports (never-exposed patients)
    supp_bg: int
    population: int

    def __post_init__(self):
        if not (self.supp_seq_unexpected <= self.supp_seq <= self.supp_x
                <= self.population):
            raise ValueError(f"inconsistent support counts: {self}")


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
    """SupportCounts fields for every code, with at most 4 kernel calls.

    Only each patient's first episode counts.  Returns (supp_x,
    supp_seq_unexpected, supp_seq, supp_bg_unexpected, supp_bg,
    population); the four supports are indexed by event code.
    """
    T, pre = config.T, config.pre_window
    x_pts, x_idx = first_per_patient(*episodes)
    seq, seq_unexpected = _window_supports(db, x_pts, x_idx, T, pre)

    # never-exposed patients with a drawn window
    background_starts = _background_starts(db, seed, T)
    bg_pts = np.setdiff1d(np.flatnonzero(background_starts >= 0),
                          db.prescriptions_of_drug(config.drug_code)[0])
    bg, bg_unexpected = _window_supports(db, bg_pts,
                                         background_starts[bg_pts], T, pre)
    return (len(x_pts), seq_unexpected, seq, bg_unexpected, bg,
            db.n_patients)


def _support_counts_at(vectors, ci: int | None) -> SupportCounts:
    """One event code's SupportCounts; ci None is a code absent from the db."""
    supp_x, *supports, population = vectors
    return SupportCounts(supp_x, *(0 if ci is None else int(v[ci])
                                   for v in supports), population)


def unexlev_from_counts(c: SupportCounts) -> float:
    observed = c.supp_seq_unexpected
    background = c.supp_bg_unexpected + c.supp_seq_unexpected
    return observed - c.supp_x * background / c.population


def leverage_from_counts(c: SupportCounts) -> float:
    observed = c.supp_seq
    background = c.supp_bg + c.supp_seq
    return observed - c.supp_x * background / c.population


def candidate_supports(db: Database,
                       config: StudyConfig) -> dict[str, SupportCounts]:
    """SupportCounts of every candidate: the pass MUTARA and HUNT rank."""
    episodes = db.episodes(config.drug_code)
    # candidate set is shared across algorithms, so derive it from every
    # episode even though scoring uses only the first episode per patient
    cands = candidate_codes(db, episodes, config.T,
                            config.excluded_event_codes, config.include_day0)
    vectors = _support_vectors(db, episodes, config, config.rng_seed)
    return {code: _support_counts_at(vectors, db.event_index(code))
            for code in cands}


def mutara_view(supports: dict[str, SupportCounts],
                config: StudyConfig) -> RankedSignalList:
    """Candidates in descending unexpected-leverage order."""
    scores = {code: unexlev_from_counts(c) for code, c in supports.items()}
    return build_ranked_list("mutara", config.drug_code, scores,
                             seed=config.rng_seed)


def hunt_view(supports: dict[str, SupportCounts],
              config: StudyConfig) -> RankedSignalList:
    """Candidates in descending leverage rank / unexpected-leverage rank."""
    unex = {code: unexlev_from_counts(c) for code, c in supports.items()}
    lev = {code: leverage_from_counts(c) for code, c in supports.items()}
    rank_unex = rank_events(unex, "hunt", config.drug_code)
    rank_lev = rank_events(lev, "hunt", config.drug_code)
    rr = {code: rank_lev[code] / rank_unex[code] for code in supports}
    return build_ranked_list("hunt", config.drug_code, rr,
                             seed=config.rng_seed)
