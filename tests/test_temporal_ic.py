import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodsig import temporal_ic
from lodsig.cli import score_drug
from lodsig.temporal_ic import (Period, _expected, _period_vectors,
                                gamma_quantile, ic, ic_credibility_bounds,
                                ic_delta_from, oe_scores)

from conftest import counts_of, make_db, random_small_db
from oracles import (brute_all_drug_exposures, brute_exposures,
                     brute_period_counts, gammainc_oracle)


def period_counts(db, event_code, period, config):
    """(n_xy, n_x_dot, n_dot_y, n_dot_dot) of one code in one period, by
    the pass oe_scores runs."""
    vectors = _period_vectors(db, config.drug_code, config)
    row = list(Period).index(period)
    return counts_of(db, [v[row] for v in vectors], event_code)


def oe_score_of(db, config, event_code):
    """{period: IC} and IC delta of one code, from the vectors of
    oe_scores."""
    c = db.event_index(event_code)
    n_xy, expected = oe_scores(db, config)
    counts = {period: (n_xy[row, c].item(), expected[row, c].item())
              for row, period in enumerate(Period)}
    (n_u, e_u), (n_v, e_v) = counts[Period.FOLLOWUP_U], \
        counts[Period.CONTROL_V]
    return ({period: ic(*pair) for period, pair in counts.items()},
            ic_delta_from(n_u, e_u, n_v, e_v))


def oe_lists(db, config):
    """The oe1 and oe2 lists of config's drug and seed, through
    score_drug."""
    return score_drug(db, config.drug_code, ["oe1", "oe2"], config.rng_seed)


class TestExpectedCount:

    def test_hand_evaluated(self):
        assert _expected(100, np.array([50]), 1000).tolist() == \
            pytest.approx([5.0])

    def test_zero_event_patients(self):
        assert _expected(100, np.array([0]), 1000).tolist() == [0.0]

    def test_whole_population_drug(self):
        assert _expected(1000, np.array([50]), 1000).tolist() == \
            pytest.approx([50])

    def test_empty_population_expects_nothing(self):
        assert _expected(0, np.array([0, 0]), 0).tolist() == [0.0, 0.0]

    def test_inconsistent_counts_rejected(self, simple_config,
                                          monkeypatch):
        # (n_xy, n_x_dot, n_dot_y, n_dot_dot) of the one drug X and the
        # one code A in one period; every count is 0 in the other periods
        control, day0 = Period.CONTROL_V, Period.DAY_OF_PRESCRIPTION
        for period, counts in (
                (control, ([5], 3, [10], 100)),     # n_xy > n_x_dot
                (control, ([5], 10, [3], 100)),     # n_xy > n_dot_y
                (control, ([0], 10, [200], 100)),   # n_dot_y > n_dot_dot
                (control, ([0], 200, [0], 100)),    # n_x_dot > n_dot_dot
                (day0, ([5], 3, [10], 100))):       # n_xy > n_x_dot
            at = np.array([p is period for p in Period])
            n_xy, n_x_dot, n_dot_y, n_dot_dot = (
                np.where(at[:, None] if np.ndim(n) else at, n, 0)
                for n in counts)
            # the per-drug counts have a row per drug
            monkeypatch.setattr(
                temporal_ic, "_patients_with_event", lambda *args: (
                    n_xy[None], n_x_dot[None], n_dot_y, n_dot_dot))
            # a fresh database: every drug's counts are cached in it
            db = make_db([("p0", -900, 1000)], rx=[("p0", "X", 0)],
                         events=[("p0", "A", 5)])
            with pytest.raises(ValueError,
                               match=rf"inconsistent {period.value} period "
                                     r"counts of event codes \['A'\]"):
                _period_vectors(db, "X", simple_config)


class TestIc:

    def test_shrinkage_fixed_point(self):
        assert ic(0, 0.0) == 0.0

    def test_hand_evaluated(self):
        assert ic(7, 3.0) == pytest.approx(math.log2(7.5 / 3.5))

    @given(st.floats(0, 1e6, allow_nan=False))
    def test_identity_ratio(self, n):
        assert ic(n, n) == 0.0

    @settings(max_examples=100)
    @given(st.integers(0, 1000), st.integers(1, 1000),
           st.floats(0, 1000, allow_nan=False))
    def test_strictly_increasing_in_n(self, n, step, e):
        assert ic(n + step, e) > ic(n, e)

    @settings(max_examples=100)
    @given(st.integers(0, 1000), st.floats(0, 1000, allow_nan=False),
           st.floats(0.1, 1000, allow_nan=False))
    def test_strictly_decreasing_in_e(self, n, e, step):
        assert ic(n, e + step) < ic(n, e)

    def test_never_infinite_for_zero_expected(self):
        assert ic(10, 0.0) == pytest.approx(math.log2(21))


class TestCredibilityBounds:

    def test_concentration_at_large_counts(self):
        lo, hi = ic_credibility_bounds(10000, 10000.0)
        assert abs(lo) < 0.05 and abs(hi) < 0.05

    def test_bounds_bracket_ic(self):
        lo, hi = ic_credibility_bounds(3, 1.0)
        assert lo < ic(3, 1.0) < hi

    def test_median_between_bounds(self):
        lo, hi = ic_credibility_bounds(3, 1.0)
        mid = math.log2(gamma_quantile(3.5, 1.5, 0.5))
        assert lo < mid < hi

    def test_quantile_matches_independent_cdf(self):
        for n in (0, 1, 3, 10, 100):
            for e in (0.0, 0.5, 2.0, 50.0):
                for q in (0.025, 0.5, 0.975):
                    x = gamma_quantile(n + 0.5, e + 0.5, q)
                    assert gammainc_oracle(n + 0.5, (e + 0.5) * x) == \
                        pytest.approx(q, abs=1e-8)

    def test_bad_quantile_level_rejected(self):
        with pytest.raises(ValueError):
            gamma_quantile(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            ic_credibility_bounds(1, 1.0, q_low=-0.1)


class TestIcDelta:

    def test_equal_ratio_cancellation(self):
        assert ic_delta_from(10, 5.0, 4, 2.0) == 0.0

    def test_hand_evaluated(self):
        assert ic_delta_from(20, 5.0, 4, 4.0) == \
            pytest.approx(math.log2(20.5 / 5.5))

    def test_zero_control_count_falls_back_to_shrunk_ratio(self):
        # v-ratio becomes (0 + 1/2)/(2 + 1/2) = 0.2
        assert ic_delta_from(10, 5.0, 0, 2.0) == \
            pytest.approx(math.log2(10.5 / (0.2 * 5.0 + 0.5)))

    def test_shrinkage_bias_is_bounded(self):
        exact = math.log2((40 / 10) / (4 / 4))
        assert abs(ic_delta_from(40, 10.0, 4, 4.0) - exact) < 1.0

    @settings(max_examples=200)
    @given(st.integers(0, 500), st.floats(0.01, 500), st.integers(1, 500),
           st.floats(0.01, 500))
    def test_equals_ic_of_rescaled_expectation(self, n_u, e_u, n_v, e_v):
        e_star = (n_v / e_v) * e_u
        assert ic_delta_from(n_u, e_u, n_v, e_v) == \
            pytest.approx(ic(n_u, e_star), abs=1e-12)


class TestPeriodCounts:

    def _hand_db(self):
        # five patients, reg far enough back for full control coverage
        return make_db(
            [(f"p{i}", -900, 1000) for i in range(5)],
            rx=[("p0", "X", 0), ("p1", "X", 0), ("p2", "X", 0),
                ("p3", "B", 0), ("p4", "B", 0)],
            events=[("p0", "A", 5), ("p1", "A", -700), ("p3", "A", 10),
                    ("p4", "C", 3), ("p0", "A", 8)])

    def test_hand_built_matches_enumeration(self, simple_config):
        db = self._hand_db()
        exposures = brute_exposures(db, simple_config)
        any_exp = brute_all_drug_exposures(db, simple_config)
        for period in Period:
            got = period_counts(db, "A", period, simple_config)
            want = brute_period_counts(db, exposures, "A", period,
                                       simple_config, any_exp)
            assert got == want

    def test_event_only_in_control_period(self, simple_config):
        db = make_db([("p0", -900, 1000)], rx=[("p0", "X", 0)],
                     events=[("p0", "A", -700)])
        assert period_counts(db, "A", Period.FOLLOWUP_U, simple_config)[0] == 0
        assert period_counts(db, "A", Period.CONTROL_V, simple_config)[0] == 1

    def test_patient_without_control_coverage_excluded(self, simple_config):
        # registered only 500 days before index: control window not covered
        db = make_db([("p0", -500, 1000)], rx=[("p0", "X", 0)])
        got = period_counts(db, "A", Period.CONTROL_V, simple_config)
        assert got[1] == 0

    def test_matches_oracle_on_random_dbs(self, simple_config):
        rng = np.random.default_rng(41)
        for _ in range(10):
            db = random_small_db(rng)
            for config in (simple_config,
                           dataclasses.replace(simple_config, T=60)):
                any_exp = brute_all_drug_exposures(db, config)
                # "none" has no prescriptions: its row is zeros
                for drug in ("X", "none"):
                    drug_config = dataclasses.replace(config, drug_code=drug)
                    exposures = brute_exposures(db, drug_config)
                    for period in Period:
                        for code in (*db.event_codes, "absent"):
                            got = period_counts(db, code, period,
                                                drug_config)
                            want = brute_period_counts(
                                db, exposures, code, period, config,
                                any_exp)
                            assert got == want
                    if drug == "none":
                        assert not any(v.any() for v in _period_vectors(
                            db, drug, drug_config)[:2])

    def test_all_drug_half_cached_per_window(self):
        # one database scored under several windows, in turn and again,
        # gives each the lists of a database that saw no other window
        def fresh():
            return random_small_db(np.random.default_rng(29), n_patients=30,
                                   near_rx=2)
        db = fresh()
        for window in ({}, {"T": 60}, {"control_period": [12, 6]},
                       {"T": 60, "control_period": [12, 6]},
                       {"pre_window": 0}, {"T": 60}):
            for drug in ("X", "B"):
                overrides = {"oe1": window, "oe2": window}
                assert score_drug(db, drug, ["oe1", "oe2"], 0, overrides) \
                    == score_drug(fresh(), drug, ["oe1", "oe2"], 0,
                                  overrides)


class TestRankOe:

    def _filter_db(self, post_n=5, prior=False, day0=False):
        """40 patients, 20 on X.  F follows X for the first post_n of them;
        optionally every X patient also has F the month before or on the
        prescription day, which should trip the respective filter."""
        patients = [(f"p{i}", -900, 1000) for i in range(40)]
        rx = [(f"p{i}", "X", 0) for i in range(20)] + \
             [(f"p{i}", "B", 0) for i in range(20, 40)]
        events = [(f"p{i}", "F", 5) for i in range(post_n)]
        for i in range(20):
            if prior:
                events.append((f"p{i}", "F", -10))
            if day0:
                events.append((f"p{i}", "F", 0))
        # a clean post-exposure signal so the list is never empty
        events += [(f"p{i}", "G", 7) for i in range(20)]
        return make_db(patients, rx=rx, events=events)

    def test_strong_prior_month_signal_filtered_by_both_variants(
            self, simple_config):
        for ranked in oe_lists(self._filter_db(prior=True), simple_config):
            assert ranked.filtered.get("F") == "prior_month"
            assert "F" not in ranked.event_codes()

    def test_day0_spike_kept_by_variant1_filtered_by_variant2(
            self, simple_config):
        r1, r2 = oe_lists(self._filter_db(day0=True), simple_config)
        assert "F" in r1.event_codes() and "F" not in r1.filtered
        assert r2.filtered.get("F") == "day_of_prescription"

    def test_candidate_requires_followup_occurrence(self, simple_config):
        # an event seen only on day 0 never becomes a candidate at all
        db = self._filter_db(post_n=0, day0=True)
        r1, _ = oe_lists(db, simple_config)
        assert "F" not in r1.event_codes() and "F" not in r1.filtered
        assert "G" in r1.event_codes()

    def test_uncovered_control_period_falls_back_to_followup_ic(
            self, simple_config):
        # registered 400 days before the prescription: no patient covers
        # the control period 27 to 21 months before it
        patients = [(f"p{i}", -400, 1000) for i in range(4)]
        rx = [("p0", "X", 0), ("p1", "X", 0), ("p2", "B", 0)]
        events = [("p0", "F", 5), ("p1", "F", 6), ("p3", "F", 7)]
        db = make_db(patients, rx=rx, events=events)
        ics, delta = oe_score_of(db, simple_config, "F")
        assert ics[Period.CONTROL_V] == 0.0
        assert delta == ics[Period.FOLLOWUP_U]
        assert oe_lists(db, simple_config)[0].event_codes() == ["F"]

    def test_scores_are_ic_delta(self, simple_config):
        db = self._filter_db()
        ranked, _ = oe_lists(db, simple_config)
        for entry in ranked.entries:
            assert entry.score == \
                oe_score_of(db, simple_config, entry.event_code)[1]
