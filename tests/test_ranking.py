import math

import pytest

from lodsig.ranking import build_ranked_list, rank_events


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
