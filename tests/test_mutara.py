import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodsig import mutara
from lodsig.cli import score_drug
from lodsig.mutara import candidate_supports, leverages
from lodsig.store import StudyConfig

from conftest import counts_of, day, make_db, random_small_db
from oracles import (brute_background_start, brute_exposures,
                     brute_first_exposure_per_patient, brute_support_counts)


class TestBackgroundWindow:

    def test_deterministic_per_seed_and_patient(self):
        db = make_db([("p1", 0, 900), ("p2", 0, 900)])
        a = mutara._background_starts(db, 7, 60)
        assert np.array_equal(a, mutara._background_starts(db, 7, 60))
        b = mutara._background_starts(db, 8, 60)
        assert a[0] != b[0] or a[0] != a[1]

    def test_stays_inside_valid_range(self):
        db = make_db([(f"q{i}", 0, 900) for i in range(50)])
        starts = mutara._background_starts(db, 3, 60)
        assert ((day(0) + 365 <= starts) & (starts <= day(900) - 60)).all()

    def test_short_span_yields_none(self):
        db = make_db([("p1", 0, 400)])
        assert mutara._background_starts(db, 3, 60).tolist() == [-1]

    def test_matches_independent_reimplementation(self):
        db = make_db([(pid, 0, 900) for pid in ("a", "b",
                                                "longer_patient_id")])
        for seed in (0, 1, 99):
            assert mutara._background_starts(db, seed, 60).tolist() == [
                brute_background_start(seed, pid, day(0), day(900), 60)
                for pid in db.patient_ids]


    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 63), T=st.sampled_from([1, 30, 60, 180]),
           spans=st.lists(st.tuples(
               st.integers(0, 50),
               # active days beyond the 365 + T a window needs: windows
               # that cannot fit, fit in 1 or 2 ways, or spans wider than
               # any float64 mantissa step at 2**64
               st.one_of(st.integers(-2, 1), st.integers(-400, 300),
                         st.integers(2_000, 2_500_000))),
               min_size=1, max_size=8))
    def test_vectorised_starts_match_per_patient(self, seed, T, spans):
        db = make_db([(f"p{i}", reg, reg + max(0, 365 + T + extra))
                      for i, (reg, extra) in enumerate(spans)])
        starts = mutara._background_starts(db, seed, T)
        assert starts.dtype == np.int64
        for i, pid in enumerate(db.patient_ids):
            reg, last = int(db.registration[i]), int(db.last_active[i])
            want = brute_background_start(seed, pid, reg, last, T)
            assert starts[i] == (-1 if want is None else want), pid


def support_counts(db, event_code, config):
    """(supp_x, supp_seq_unexpected, supp_seq, supp_bg_unexpected,
    supp_bg, population) of one code, by the pass candidate_supports
    runs."""
    vectors = mutara._support_vectors(db, db.episodes(config.drug_code),
                                      config)
    return counts_of(db, vectors, event_code)


class TestSupportCounts:

    def test_invariant_enforced(self, monkeypatch):
        db = make_db([("p0", -900, 1000), ("p1", -900, 1000)],
                     rx=[("p0", "X", 0)], events=[("p0", "A", 5)])
        config = StudyConfig(drug_code="X", pre_window=60, rng_seed=11)
        # (supp_seq, supp_seq_unexpected) of the one code A, with no
        # background support; one patient holds an X episode
        for seq, seq_unexpected in (([1], [2]),    # unexpected > seq
                                    ([2], [0])):   # seq > supp_x
            monkeypatch.setattr(
                mutara, "_window_supports",
                lambda *args: (np.array(seq), np.array(seq_unexpected),
                               np.array([0]), np.array([0])))
            with pytest.raises(ValueError, match=r"inconsistent support "
                               r"counts of event codes \['A'\]"):
                mutara._support_vectors(db, db.episodes("X"), config)

    def _db(self):
        # p0: X then A on day 5 (clean sequence)
        # p1: A before X and again after (predictable under a pre-window)
        # p2: X, no A
        # p3, p4: never on X, background population
        return make_db(
            [(f"p{i}", -900, 1000) for i in range(5)],
            rx=[("p0", "X", 0), ("p1", "X", 0), ("p2", "X", 0)],
            events=[("p0", "A", 5), ("p1", "A", -20), ("p1", "A", 9),
                    ("p3", "A", 100)])

    def test_predictable_filter_splits_supports(self):
        db = self._db()
        config = StudyConfig(drug_code="X", pre_window=60, rng_seed=11)
        supp_x, unexpected, seq, *_ = support_counts(db, "A", config)
        assert (supp_x, seq, unexpected) == (3, 2, 1)

    def test_zero_pre_window_disables_filter(self):
        db = self._db()
        config = StudyConfig(drug_code="X", pre_window=0, rng_seed=11)
        _, unexpected, seq, bg_unexpected, bg, _ = support_counts(db, "A",
                                                                  config)
        assert unexpected == seq == 2
        assert bg_unexpected == bg

    def test_day_of_prescription_counts_as_predictable(self):
        db = make_db([("p0", -900, 1000)], rx=[("p0", "X", 0)],
                     events=[("p0", "A", 0), ("p0", "A", 5)])
        config = StudyConfig(drug_code="X", pre_window=60, rng_seed=11)
        _, unexpected, seq, *_ = support_counts(db, "A", config)
        assert (seq, unexpected) == (1, 0)

    def test_first_episode_per_patient_only(self):
        db = make_db([("p0", -900, 2000)],
                     rx=[("p0", "X", 0), ("p0", "X", 500)],
                     events=[("p0", "A", 505)])
        config = StudyConfig(drug_code="X", pre_window=60, rng_seed=11)
        assert len(db.episodes("X")[0]) == 2
        supp_x, _, seq, *_ = support_counts(db, "A", config)
        # only the day-0 episode is scored, and A does not follow it
        assert (supp_x, seq) == (1, 0)

    def test_matches_oracle_on_random_dbs(self):
        rng = np.random.default_rng(53)
        for trial in range(15):
            db = random_small_db(rng, n_patients=12)
            for pre in (0, 60, 180):
                config = StudyConfig(drug_code="X", pre_window=pre,
                                     rng_seed=trial)
                pairs = brute_first_exposure_per_patient(
                    brute_exposures(db, config))
                vectors = mutara._support_vectors(db, db.episodes("X"),
                                                  config)
                for code in (*db.event_codes, "absent"):
                    want = brute_support_counts(db, pairs, code, config,
                                                trial)
                    assert counts_of(db, vectors, code) == want


class TestScores:

    def test_unexlev_hand_evaluated(self):
        unexpected, leverage = leverages(10, *map(np.array, (
            [4], [6], [16], [20])), 100)
        # 4 - 10 * (16 + 4) / 100
        assert unexpected.tolist() == pytest.approx([2.0])
        assert leverage.tolist() == pytest.approx([6 - 10 * 26 / 100])

    def test_no_association_is_near_zero(self):
        unexpected, _ = leverages(10, *map(np.array, ([1], [1], [9], [9])),
                                  100)
        assert unexpected.tolist() == pytest.approx([0.0])

    def test_unexlev_seed_changes_background(self):
        rng = np.random.default_rng(67)
        db = random_small_db(rng, n_patients=30)
        values = set()
        for s in range(10):
            unexpected, _ = candidate_supports(db, StudyConfig(
                drug_code="X", pre_window=60, rng_seed=s))
            values.add(unexpected[db.event_index("A")])
        assert len(values) > 1


def ranked_list(db, algorithm_id, **overrides):
    """One id's list for drug X under seed 11, through score_drug."""
    [ranked] = score_drug(db, "X", [algorithm_id], 11,
                          {algorithm_id: overrides})
    return ranked


class TestRanking:

    def _signal_db(self):
        # A strongly follows X; C is common everywhere (background noise);
        # F precedes and follows X (a therapeutic-failure shape).
        patients = [(f"p{i}", -900, 1000) for i in range(60)]
        rx = [(f"p{i}", "X", 0) for i in range(30)]
        events = []
        for i in range(30):
            if i < 24:
                events.append((f"p{i}", "A", 10))
            events.append((f"p{i}", "F", -30))
            events.append((f"p{i}", "F", 12))
        for i in range(60):
            if i % 2 == 0:
                events.append((f"p{i}", "C", 400))
        return make_db(patients, rx=rx, events=events)

    def test_mutara_puts_adverse_event_first(self):
        db = self._signal_db()
        assert ranked_list(db, "mutara180").event_codes()[0] == "A"

    def test_mutara_demotes_predictable_event(self):
        db = self._signal_db()
        with_filter = ranked_list(db, "mutara180")
        without = ranked_list(db, "mutara180", pre_window=0)
        assert with_filter.rank_of("F") > without.rank_of("F")

    def test_hunt_rank_ratio_demotes_failure_event(self):
        db = self._signal_db()
        hunt = ranked_list(db, "hunt180")
        mutara = ranked_list(db, "mutara180")
        assert set(hunt.event_codes()) == set(mutara.event_codes())
        assert hunt.rank_of("F") > hunt.rank_of("A")

    def test_hunt_neutral_when_filter_disabled(self):
        # pre_window 0 makes unexlev equal leverage, so every rank ratio
        # is 1 and HUNT falls back to lexicographic order
        db = self._signal_db()
        hunt = ranked_list(db, "hunt180", pre_window=0)
        codes = hunt.event_codes()
        assert codes == sorted(codes)
        assert all(e.score == pytest.approx(1.0) for e in hunt.entries)
