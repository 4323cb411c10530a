import math

import pytest

from lodsig.ranking import build_ranked_list, rank_events


class TestNanScores:

    def test_build_ranked_list_rejects_nan(self):
        with pytest.raises(ValueError, match=r"oe1 score of event 'B' for "
                                             r"drug 'drug_x' is NaN"):
            build_ranked_list("oe1", "drug_x",
                              {"A": 1.0, "B": math.nan, "C": None})

    def test_rank_events_rejects_nan(self):
        with pytest.raises(ValueError, match=r"hunt score of event 'A' for "
                                             r"drug 'drug_x' is NaN"):
            rank_events({"A": float("nan"), "B": 2.0}, "hunt", "drug_x")

    def test_none_and_infinities_still_rank(self):
        ranks = rank_events({"A": None, "B": -math.inf, "C": math.inf},
                            "ror05", "drug_x")
        assert ranks == {"C": 1, "B": 2, "A": 3}
