import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodsig import mutara, srs, store, temporal_ic
from lodsig.cli import ALGORITHM_IDS, score_drug
from lodsig.store import (Database, DataFormatError, Gender, StudyConfig,
                          candidate_events, cohort_summary,
                          count_events_in_window, extract_exposures,
                          load_database, window_pairs)

from conftest import day, make_db, random_small_db
from oracles import brute_exposures, brute_window_pairs


def write_csvs(tmp_path, patients, prescriptions, events):
    p = tmp_path / "patients.csv"
    p.write_text("patient_id,year_of_birth,gender,registration_date,"
                 "death_date\n" + "".join(patients))
    rx = tmp_path / "prescriptions.csv"
    rx.write_text("patient_id,drug_code,date\n" + "".join(prescriptions))
    ev = tmp_path / "events.csv"
    ev.write_text("patient_id,event_code,date\n" + "".join(events))
    return rx, ev, p


class TestLoad:

    def test_well_formed_files(self, tmp_path):
        paths = write_csvs(
            tmp_path,
            ["p1,1950,F,2015-01-01,\n", "p2,1970,M,2014-06-01,2019-03-01\n"],
            ["p1,X,2016-02-01\n", "p2,X,2015-08-01\n"],
            ["p1,A,2016-03-01\n", "p1,A,2016-02-10\n", "p2,C,2015-09-01\n"])
        db = load_database(*paths)
        assert db.patient_ids == ["p1", "p2"]
        codes, days = db.events_for_patient("p1")
        assert list(days) == sorted(days)
        assert db.duplicates_dropped == 0
        # last_active derives from records / death
        assert db.patients["p1"].last_active == \
            datetime.date(2016, 3, 1).toordinal()
        assert db.patients["p2"].last_active == \
            datetime.date(2019, 3, 1).toordinal()

    def test_bad_date_names_the_row(self, tmp_path):
        paths = write_csvs(tmp_path, ["p1,1950,F,2015-01-01,\n"],
                           ["p1,X,2016-02-01\n"],
                           ["p1,A,2020-13-40\n"])
        with pytest.raises(DataFormatError, match="row 2"):
            load_database(*paths)

    def test_duplicate_row_collapsed_with_warning_count(self, tmp_path):
        paths = write_csvs(tmp_path, ["p1,1950,F,2015-01-01,\n"],
                           ["p1,X,2016-02-01\n", "p1,X,2016-02-01\n"],
                           [])
        db = load_database(*paths)
        assert db.duplicates_dropped == 1
        _, days = db.prescriptions_for_patient("p1")
        assert len(days) == 1

    def test_unknown_patient_is_hard_error(self, tmp_path):
        paths = write_csvs(tmp_path, ["p1,1950,F,2015-01-01,\n"], [],
                           ["ghost,A,2016-01-01\n"])
        with pytest.raises(DataFormatError, match="ghost"):
            load_database(*paths)

    def test_record_before_registration_rejected(self):
        with pytest.raises(DataFormatError, match="before registration"):
            make_db([("p1", 100, 900)], events=[("p1", "A", 50)])


class TestExtractExposures:

    def test_washout_blocks_second_prescription(self, simple_config):
        db = make_db([("p1", -400, 900)],
                     rx=[("p1", "X", 0), ("p1", "X", 100)])
        eps = extract_exposures(db, simple_config)
        assert [(e.patient_id, e.index_date) for e in eps] == [("p1", day(0))]

    def test_registration_washout_excludes_early_prescription(
            self, simple_config):
        # registered 2015-01-01, prescribed ~5 months later
        db = make_db([("p1", 0, 900)], rx=[("p1", "X", 151)])
        assert extract_exposures(db, simple_config) == []

    def test_active_followup_rule(self, simple_config):
        db = make_db([("p1", -400, 20)], rx=[("p1", "X", 0)])
        assert extract_exposures(db, simple_config) == []

    def test_multiple_episodes_when_far_apart(self, simple_config):
        db = make_db([("p1", -400, 900)],
                     rx=[("p1", "X", 0), ("p1", "X", 500)])
        eps = extract_exposures(db, simple_config)
        assert [e.index_date for e in eps] == [day(0), day(500)]

    def test_matches_brute_force_on_random_dbs(self, simple_config):
        rng = np.random.default_rng(5)
        for _ in range(20):
            db = random_small_db(rng)
            got = [(e.patient_id, e.index_date)
                   for e in extract_exposures(db, simple_config)]
            assert got == sorted(brute_exposures(db, simple_config))

    def test_row_order_independent(self, simple_config):
        patients = [("p1", -400, 900), ("p2", -400, 900)]
        rx = [("p1", "X", 0), ("p2", "X", 30), ("p1", "X", 500)]
        db1 = make_db(patients, rx=rx)
        db2 = make_db(list(reversed(patients)), rx=list(reversed(rx)))
        assert extract_exposures(db1, simple_config) == \
            extract_exposures(db2, simple_config)


class TestCountEventsInWindow:

    def test_empty_history(self):
        db = make_db([("p1", 0, 900)])
        assert count_events_in_window(db, "p1", day(10), day(20), "A") == 0

    def test_boundaries_inclusive(self):
        db = make_db([("p1", 0, 900)], events=[("p1", "A", 10),
                                               ("p1", "A", 20),
                                               ("p1", "A", 21)])
        assert count_events_in_window(db, "p1", day(10), day(20), "A") == 2

    def test_unknown_patient_raises(self):
        db = make_db([("p1", 0, 900)])
        with pytest.raises(KeyError):
            count_events_in_window(db, "nope", day(0), day(1), "A")

    def test_reversed_window_raises(self):
        db = make_db([("p1", 0, 900)])
        with pytest.raises(ValueError):
            count_events_in_window(db, "p1", day(5), day(1), "A")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("AB"),
                              st.integers(0, 60)), max_size=25),
           st.integers(0, 60), st.integers(0, 60))
    def test_equals_linear_scan(self, history, a, b):
        lo, hi = min(a, b), max(a, b)
        db = make_db([("p1", 0, 900)],
                     events=[("p1", c, d) for c, d in history])
        expected = len({(c, d) for c, d in history
                        if c == "A" and lo <= d <= hi})
        assert count_events_in_window(db, "p1", day(lo), day(hi),
                                      "A") == expected


class TestWindowPairs:

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4),
           st.lists(st.tuples(st.integers(0, 3), st.sampled_from("ABC"),
                              st.integers(0, 60)), max_size=40),
           st.lists(st.tuples(st.integers(0, 3), st.integers(-5, 65),
                              st.integers(-5, 65)), max_size=12))
    def test_equals_per_patient_scan(self, n_patients, history, windows):
        # windows may overlap, repeat a patient, hold no event or have
        # lo > hi (empty)
        db = make_db([(f"p{i}", 0, 900) for i in range(n_patients)],
                     events=[(f"p{i % n_patients}", c, d)
                             for i, c, d in history])
        pts = np.array([i % n_patients for i, _, _ in windows],
                       dtype=np.int64)
        lo = np.array([day(a) for _, a, _ in windows], dtype=np.int64)
        hi = np.array([day(b) for _, _, b in windows], dtype=np.int64)
        row, code = window_pairs(db, pts, lo, hi)
        got = sorted(zip(row.tolist(),
                         [db.event_codes[c] for c in code.tolist()]))
        assert got == brute_window_pairs(db, pts, lo, hi)
        assert list(row) == sorted(row)

    @pytest.mark.parametrize("modules, calls", [
        ((store, temporal_ic, mutara), 20),
        ((store, temporal_ic, mutara, srs), 21)], ids=["no_srs", "srs"])
    def test_calls_per_drug_independent_of_candidates(self, modules, calls,
                                                      monkeypatch):
        # each of the four scoring passes (ror05; oe1+oe2; mutara60+hunt60;
        # mutara180+hunt180) selects its candidates with one call; OE then
        # makes 8 (4 periods x 2 populations), each support pass 4 (post
        # and predictable windows x exposed and background patients) and
        # SRS 1, however many codes there are
        seen = []

        def counting(*args):
            seen.append(args)
            return window_pairs(*args)
        for module in modules:
            monkeypatch.setattr(module, "window_pairs", counting)
        rng = np.random.default_rng(17)
        n_candidates = set()
        for codes in ("AC", "ABCDEFGHIJKL"):
            db = random_small_db(rng, n_patients=40, codes=tuple(codes))
            seen.clear()
            ranked = score_drug(db, "X", ALGORITHM_IDS, 3)
            assert len(seen) == calls
            oe1 = ranked[ALGORITHM_IDS.index("oe1")]
            n_candidates.add(len(oe1.entries) + len(oe1.filtered))
        assert len(n_candidates) == 2


class TestCandidateEvents:

    def _db(self):
        return make_db([("p1", -400, 900)], rx=[("p1", "X", 0)],
                       events=[("p1", "A", 3), ("p1", "B", 40),
                               ("p1", "Z", 0)])

    def test_window_cutoff(self, simple_config):
        db = self._db()
        eps = extract_exposures(db, simple_config)
        assert candidate_events(db, eps, 30) == {"A"}

    def test_day0_convention(self, simple_config):
        db = self._db()
        eps = extract_exposures(db, simple_config)
        assert "Z" not in candidate_events(db, eps, 30)
        assert "Z" in candidate_events(db, eps, 30, include_day0=True)

    def test_excluded_codes_removed(self, simple_config):
        db = self._db()
        eps = extract_exposures(db, simple_config)
        assert candidate_events(db, eps, 30,
                                excluded=frozenset({"A"})) == set()

    def test_monotone_in_T(self, simple_config):
        rng = np.random.default_rng(9)
        for _ in range(10):
            db = random_small_db(rng)
            eps = extract_exposures(db, simple_config)
            if not eps:
                continue
            for t_small, t_big in [(5, 30), (30, 90)]:
                assert candidate_events(db, eps, t_small) <= \
                    candidate_events(db, eps, t_big)


class TestCohortSummary:

    def test_repeat_prescriptions(self):
        db = make_db([("p1", -400, 900)],
                     rx=[("p1", "X", 0), ("p1", "X", 10), ("p1", "X", 20)])
        s = cohort_summary(db, "X")
        assert (s["total"], s["first"], s["thirteen_month"]) == (3, 1, 1)

    def test_gender_ratio(self):
        db = Database.from_records(
            [("p1", 1950, Gender.FEMALE, day(0), day(900)),
             ("p2", 1950, Gender.MALE, day(0), day(900))],
            [("p1", "X", day(10)), ("p2", "X", day(10))], [])
        assert cohort_summary(db, "X")["gender_ratio"] == 1.0

    def test_no_male_prescriptions_gives_undefined_marker(self):
        db = make_db([("p1", 0, 900)], rx=[("p1", "X", 10)])
        assert cohort_summary(db, "X")["gender_ratio"] is None

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            db = random_small_db(rng)
            s = cohort_summary(db, "X")
            rows = []
            for pid in db.patient_ids:
                drugs, days = db.prescriptions_for_patient(pid)
                rows += [(pid, int(d)) for c, d in zip(drugs, days)
                         if db.drug_codes[c] == "X"]
            assert s["total"] == len(rows)
            assert s["first"] == len({pid for pid, _ in rows})
            thirteen = 0
            for pid, d in rows:
                prior = [x for p2, x in rows
                         if p2 == pid and d - 395 <= x < d]
                thirteen += not prior
            assert s["thirteen_month"] == thirteen


class TestStudyConfig:

    def test_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(drug_code="X", T=0)
        with pytest.raises(ValueError):
            StudyConfig(drug_code="X", control_period=(21, 27))
