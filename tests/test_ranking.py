import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodsig.cli import ALGORITHM_IDS, _base_config, score_drug
from lodsig.ranking import build_ranked_list, rank_events

from conftest import random_small_db
from oracles import brute_ranked


class TestNanScores:

    def test_build_ranked_list_rejects_nan(self):
        with pytest.raises(ValueError, match=r"score of event 'B' is NaN"):
            build_ranked_list("oe1", "drug_x",
                              {"A": 1.0, "B": math.nan, "C": None})

    def test_rank_events_rejects_nan(self):
        with pytest.raises(ValueError, match=r"score of event 'A' is NaN"):
            rank_events({"A": float("nan"), "B": 2.0})

    def test_none_and_infinities_still_rank(self):
        ranks = rank_events({"A": None, "B": -math.inf, "C": math.inf})
        assert ranks == {"C": 1, "B": 2, "A": 3}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_patients=st.integers(4, 16),
       T=st.sampled_from([1, 7, 30, 45, 120]),
       # None keeps each id's own pre_window (60 or 180)
       pre_window=st.one_of(st.none(), st.sampled_from([0, 1, 30, 200])),
       include_day0=st.booleans(),
       excluded=st.frozensets(st.sampled_from("ACDZ")),
       control_period=st.integers(1, 26).flatmap(
           lambda end: st.tuples(st.integers(end + 1, 27), st.just(end))))
def test_whole_lists_match_brute_ranked(seed, n_patients, T, pre_window,
                                        include_day0, excluded,
                                        control_period):
    # every id's codes, ranks, scores and filter reasons, through the
    # shared passes of score_drug, against scalar scoring of brute counts
    db = random_small_db(np.random.default_rng(seed), n_patients=n_patients,
                         near_rx=2)
    overrides = {"T": T, "include_day0": include_day0,
                 "excluded_event_codes": excluded,
                 "control_period": control_period}
    if pre_window is not None:
        overrides["pre_window"] = pre_window
    study_seed = seed % 1000
    ranked = score_drug(db, "X", ALGORITHM_IDS, study_seed,
                        dict.fromkeys(ALGORITHM_IDS, overrides))
    for algorithm_id, got in zip(ALGORITHM_IDS, ranked):
        config = _base_config(algorithm_id, "X", study_seed, overrides)
        entries, filtered = brute_ranked(db, "X", algorithm_id, config)
        assert [(e.event_code, e.rank, e.score) for e in got.entries] == \
            entries, algorithm_id
        assert got.filtered == filtered, algorithm_id
