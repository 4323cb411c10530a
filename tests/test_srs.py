import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodsig.srs import ContingencyTable, build_srs_counts, rank_ror, ror, ror05
from lodsig.store import Gender, StudyConfig

from conftest import db_from_rows, make_db, random_small_db
from oracles import brute_srs_counts


class TestRor:

    def test_symmetric_table_is_one(self):
        assert ror(ContingencyTable(25, 25, 25, 25)) == pytest.approx(1.0)

    def test_hand_evaluated_table(self):
        assert ror(ContingencyTable(10, 90, 100, 9900)) == pytest.approx(11.0)

    def test_zero_cell_with_correction(self):
        t = ContingencyTable(0, 10, 10, 100)
        assert ror(t) == pytest.approx((0.5 / 10.5) / (10.5 / 100.5))

    def test_zero_cell_without_correction_is_undefined(self):
        assert ror(ContingencyTable(0, 10, 10, 100), correct=False) is None
        assert ror05(ContingencyTable(0, 10, 10, 100), correct=False) is None

    def test_negative_cell_rejected(self):
        with pytest.raises(ValueError):
            ContingencyTable(-1, 0, 0, 0)


class TestRor05:

    def test_symmetric_value(self):
        expected = math.exp(-1.645 * math.sqrt(4 / 25))
        assert ror05(ContingencyTable(25, 25, 25, 25)) == \
            pytest.approx(expected, abs=1e-12)

    def test_limit_of_symmetry_approaches_one_from_below(self):
        previous = 0.0
        for n in (10, 1000, 100000):
            value = ror05(ContingencyTable(n, n, n, n))
            assert previous < value < 1.0
            previous = value

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(*[st.integers(1, 500)] * 4))
    def test_always_below_ror(self, cells):
        t = ContingencyTable(*cells)
        assert ror05(t) < ror(t)

    @settings(max_examples=50, deadline=None)
    @given(st.tuples(*[st.integers(1, 200)] * 4), st.integers(2, 6))
    def test_ror_scale_invariant_ror05_grows(self, cells, k):
        t = ContingencyTable(*cells)
        scaled = ContingencyTable(*(c * k for c in cells))
        assert ror(scaled) == pytest.approx(ror(t))
        if len(set(cells)) == 1:  # symmetric case: penalty shrinks
            assert ror05(scaled) > ror05(t)


class TestBuildSrsCounts:

    def test_single_prescription_single_event(self):
        db = make_db([("p1", -400, 900)], rx=[("p1", "X", 0)],
                     events=[("p1", "A", 5)])
        tables = build_srs_counts(db, "X")
        t = tables["A"]
        assert (t.w00, t.w01, t.w10, t.w11) == (1, 0, 0, 0)

    def test_event_outside_window_not_counted(self):
        db = make_db([("p1", -400, 900)], rx=[("p1", "X", 0)],
                     events=[("p1", "A", 31)])
        assert "A" not in build_srs_counts(db, "X", T=30)

    def test_matches_pair_enumeration_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            db = random_small_db(rng)
            got = build_srs_counts(db, "X")
            want = brute_srs_counts(db, "X")
            assert set(got) == set(want)
            for code, cells in want.items():
                t = got[code]
                assert (t.w00, t.w01, t.w10, t.w11) == cells

    def test_w00_sums_to_total_in_window_pairs(self):
        rng = np.random.default_rng(23)
        db = random_small_db(rng, n_patients=15)
        tables = build_srs_counts(db, "X")
        oracle = brute_srs_counts(db, "X")
        total_x = sum(cells[0] for cells in oracle.values())
        total_nonx = sum(cells[2] for cells in oracle.values())
        assert sum(t.w00 for t in tables.values()) == total_x
        assert sum(t.w10 for t in tables.values()) == total_nonx

    def test_unknown_drug_gives_empty_map(self):
        db = make_db([("p1", 0, 900)], events=[("p1", "A", 5)])
        assert build_srs_counts(db, "nope") == {}

    @pytest.mark.parametrize("T", [10 ** 7, 9223372036854775000,
                                   99999999999999999999])
    def test_window_past_key_range_refused(self, T):
        # 9223372036854775000 wraps `rx_day + T` in int64 and once gave
        # an empty map
        db = make_db([("p1", 0, 900)], rx=[("p1", "X", 0)],
                     events=[("p1", "A", 5)])
        assert set(build_srs_counts(db, "X", T=10 ** 7 - 1)) == {"A"}
        with pytest.raises(ValueError, match="T must be under 10000000 days"):
            build_srs_counts(db, "X", T=T)


class TestRankRor:

    def test_orders_by_ror05_descending(self):
        db = make_db(
            [(f"p{i}", -400, 900) for i in range(8)],
            rx=[(f"p{i}", "X", 0) for i in range(4)]
            + [(f"p{i}", "B", 0) for i in range(4, 8)],
            events=[(f"p{i}", "A", 5) for i in range(4)]
            + [(f"p{i}", "C", 5) for i in range(2, 8)])
        ranked = rank_ror(db, StudyConfig(drug_code="X"))
        assert ranked.event_codes() == ["A", "C"]

    def test_ties_broken_lexicographically(self):
        db = make_db(
            [("p1", -400, 900), ("p2", -400, 900)],
            rx=[("p1", "X", 0), ("p2", "B", 0)],
            events=[("p1", "A", 5), ("p1", "C", 6),
                    ("p2", "A", 5), ("p2", "C", 6)])
        ranked = rank_ror(db, StudyConfig(drug_code="X"))
        assert ranked.event_codes() == ["A", "C"]
        scores = [e.score for e in ranked.entries]
        assert scores[0] == scores[1]

    def test_row_order_invariant(self):
        rng = np.random.default_rng(31)
        db = random_small_db(rng, n_patients=12)
        ranked = rank_ror(db, StudyConfig(drug_code="X"))
        # rebuild with reversed record insertion
        patients = list(zip(db.patient_ids, db.year_of_birth.tolist(),
                            map(Gender, db.gender),
                            db.registration.tolist(),
                            [d or None for d in db.death.tolist()]))
        rx = [(db.patient_ids[p], db.drug_codes[c], int(d)) for p, c, d in
              zip(db.rx_pid, db.rx_drug, db.rx_day)]
        ev = [(db.patient_ids[p], db.event_codes[c], int(d)) for p, c, d in
              zip(db.ev_pid, db.ev_code, db.ev_day)]
        db2 = db_from_rows(patients[::-1], rx[::-1], ev[::-1])
        ranked2 = rank_ror(db2, StudyConfig(drug_code="X"))
        assert ranked.entries == ranked2.entries
