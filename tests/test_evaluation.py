import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodsig import evaluation
from lodsig.evaluation import (AdrDictionary, AdrEntry, compare_algorithms,
                               emit_report, evaluate, map_score, precision_k,
                               signed_rank_one_sided, truth_vector)
from lodsig.ranking import build_ranked_list
from lodsig.store import DataFormatError, read_rows

from oracles import brute_map, brute_truth_from_csv

TRUTH_HEADER = "drug_code,event_code,frequency_class,is_reaction_code"
# ground-truth files the store's reader must read as the DictReader loop did
TRUTH_CASES = {
    "bom_and_crlf": "\ufeff" + TRUTH_HEADER + "\r\nX,A,rare,true\r\n"
                    "X,B,frequent,false\r\n",
    "blank_lines_and_short_rows": TRUTH_HEADER + "\n\nX,A,rare\n\n"
                                  "Y,B,frequent,1\n\n",
    "quoted_fields_and_extra_columns":
        TRUTH_HEADER + ',note\n"X","A, b","rare","TRUE","x"\n'
        'X,"C ""c""",less_frequent,false,y,z\n"Y","D\nd",frequent,1\n',
    "surrounding_spaces": TRUTH_HEADER + "\n X , A ,  rare ,  True \n"
                          "\tY,B\t,frequent\t, 0\n",
    "repeated_key": TRUTH_HEADER + "\nX,A,rare,true\nX,B,rare,false\n"
                    " X,A ,frequent,false\n",
    "columns_reordered_and_repeated":
        "is_reaction_code,event_code,frequency_class,drug_code,drug_code\n"
        "true,A,rare,Q,X\n",
    "header_only": TRUTH_HEADER + "\n",
}


def ranked(codes, algorithm="a1", drug="X"):
    scores = {c: float(len(codes) - i) for i, c in enumerate(codes)}
    return build_ranked_list(algorithm, drug, scores)


class TestPrecisionK:

    def test_worked_example(self):
        y = (0, 1, 1, 0, 0)
        assert precision_k(y, 2) == pytest.approx(1 / 2)
        assert precision_k(y, 3) == pytest.approx(2 / 3)

    def test_k_beyond_length_uses_full_list(self, caplog):
        with caplog.at_level("WARNING"):
            assert precision_k((1, 0, 1), 10) == pytest.approx(2 / 3)
        assert "exceeds list length" in caplog.text

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            precision_k((1,), 0)

    @settings(max_examples=100)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=30),
           st.integers(1, 30))
    def test_bounded_and_consistent(self, y, k):
        p = precision_k(y, k)
        assert 0.0 <= p <= 1.0
        kk = min(k, len(y))
        assert p == pytest.approx(sum(y[:kk]) / kk)


class TestMapScore:

    def test_worked_example(self):
        assert map_score((0, 1, 1, 0, 0)) == pytest.approx(7 / 12)

    def test_no_positives_is_none(self):
        assert map_score((0, 0, 0)) is None

    def test_perfect_list(self):
        assert map_score((1, 1, 1)) == pytest.approx(1.0)

    @settings(max_examples=200)
    @given(st.lists(st.integers(0, 1), max_size=40))
    def test_matches_running_hit_oracle(self, y):
        got, want = map_score(y), brute_map(y)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want)

    @settings(max_examples=100)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=20))
    def test_front_loading_never_hurts(self, y):
        if 1 not in y or 0 not in y:
            return
        better = sorted(y, reverse=True)
        assert map_score(better) >= map_score(y)


class TestTruthAndEvaluate:

    def _dictionary(self):
        return AdrDictionary({
            ("X", "A"): AdrEntry("rare", is_reaction_code=True),
            ("X", "C"): AdrEntry("frequent"),
            ("B", "A"): AdrEntry("rare"),
        })

    def test_truth_vector_modes(self):
        r = ranked(["A", "C", "D"])
        d = self._dictionary()
        assert truth_vector(r, d, "all") == [1, 1, 0]
        assert truth_vector(r, d, "rare") == [1, 0, 0]
        assert truth_vector(r, d, "reaction_codes") == [1, 0, 0]

    def test_truth_is_drug_specific(self):
        r = ranked(["A"], drug="B")
        assert truth_vector(r, self._dictionary(), "reaction_codes") == [0]

    def test_unknown_mode_rejected(self):
        # also on a list with no pair in the dictionary, or no entry
        for events in (["A"], ["D"], []):
            with pytest.raises(ValueError,
                               match="unknown truth mode 'bogus'"):
                truth_vector(ranked(events), self._dictionary(), "bogus")

    def test_evaluate_report_fields(self):
        r = ranked(["A", "C", "D"])
        report = evaluate(r, self._dictionary())
        assert report.n_candidates == 3
        assert report.n_known_adrs_in_list == 2
        assert report.map_all == pytest.approx(1.0)
        assert report.map_rare == pytest.approx(1.0)
        assert report.precision_10 == pytest.approx(2 / 3)

    def test_dictionary_round_trip(self, tmp_path):
        d = self._dictionary()
        path = tmp_path / "adr.csv"
        d.to_csv(path)
        assert AdrDictionary.from_csv(path).entries == d.entries

    def test_dictionary_reads_utf8_bom(self, tmp_path):
        path = tmp_path / "adr.csv"
        self._dictionary().to_csv(path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert AdrDictionary.from_csv(path).entries == \
            self._dictionary().entries

    @pytest.mark.parametrize("text, message", [
        ("drug_code,event_code,is_reaction_code\nX,A,false\n",
         ": missing columns ['frequency_class']"),
        ("drug_code,event_code,frequency_class,is_reaction_code\n"
         "X,A,rare,false\nX,B,sometimes,true\n",
         ", row 3: unknown frequency_class 'sometimes'"),
        (b"drug_code,event_code,frequency_class,is_reaction_code\n"
         b"X,A\xfe,rare,false\n", ", line 2: not UTF-8 text"),
        ("drug_code,event_code,frequency_class,is_reaction_code\n"
         "X,A,rare,false\nX," + "B" * 200_000 + ",rare,false\n",
         ", line 3: field larger than field limit"),
        # these were read as false, or kept with an empty code
        ("drug_code,event_code,frequency_class,is_reaction_code\n"
         "X,A,rare,TRUE\nX,B,rare,yes\n",
         ", row 3: bad is_reaction_code 'yes'"),
        ("drug_code,event_code,frequency_class,is_reaction_code\n"
         "X,A,rare, ture \n", ", row 2: bad is_reaction_code 'ture'"),
        ("drug_code,event_code,frequency_class,is_reaction_code\n"
         "X,A,rare,0\n ,B,rare,1\n", ", row 3: missing drug_code"),
        ("drug_code,event_code,frequency_class,is_reaction_code\n"
         "X,,rare,false\n", ", row 2: missing event_code"),
    ], ids=["missing_column", "unknown_frequency_class", "non_utf8",
            "csv_error", "yes_flag", "misspelt_flag", "empty_drug_code",
            "empty_event_code"])
    def test_bad_dictionary_names_file_and_line(self, tmp_path, text,
                                                message):
        path = tmp_path / "adr.csv"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        with pytest.raises(DataFormatError) as exc:
            AdrDictionary.from_csv(path)
        assert str(exc.value).startswith(f"{path}{message}")

    def test_bad_row_is_counted_by_record_like_the_database(self, tmp_path):
        path = tmp_path / "adr.csv"
        path.write_text(TRUTH_HEADER + "\n\nX,A,rare,false\n\n"
                        '"X","B\nb",rare,false\nX,C,often,true\n')
        with pytest.raises(DataFormatError) as exc:
            AdrDictionary.from_csv(path)
        # the fourth record, on the seventh line
        assert str(exc.value) == \
            f"{path}, row 4: unknown frequency_class 'often'"

    @pytest.mark.parametrize("text", TRUTH_CASES.values(),
                             ids=TRUTH_CASES.keys())
    def test_dictionary_reads_like_dictreader_loop(self, tmp_path, text):
        path = tmp_path / "adr.csv"
        path.write_bytes(text.encode("utf-8"))
        want = brute_truth_from_csv(path)
        assert AdrDictionary.from_csv(path).entries == want
        assert list(AdrDictionary.from_csv(path).entries) == list(want)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_dictionary_matches_dictreader_loop_on_written_text(
            self, tmp_path_factory, data):
        draw = data.draw
        rows = [TRUTH_HEADER.split(",")]
        for _ in range(draw(st.integers(0, 6))):
            row = [draw(st.sampled_from(options)) for options in (
                ["X", " X", "Y"], ["A", "B ", "A, b", ""],
                ["rare", " frequent", "less_frequent", "often", ""],
                ["true", "1", "FALSE", " True ", ""])]
            rows.append(row[:draw(st.integers(3, 5))] if draw(
                st.booleans()) else row)
            if draw(st.integers(0, 4)) == 0:
                rows.append([])  # a blank line
        quote = draw(st.booleans())
        end = draw(st.sampled_from(["\n", "\r\n"]))
        text = "".join(",".join(f'"{f}"' if quote or "," in f else f
                                for f in row) + end for row in rows)
        path = tmp_path_factory.mktemp("truth") / "adr.csv"
        path.write_bytes(
            (draw(st.sampled_from(["", "\ufeff"])) + text).encode("utf-8"))
        # the loop kept an empty event code, which the reader refuses
        empty_code = any(row and not row[1].strip() for row in rows[1:])
        try:
            want = brute_truth_from_csv(path)
        except DataFormatError:
            with pytest.raises(DataFormatError,
                               match="unknown frequency|missing event_code"):
                AdrDictionary.from_csv(path)
        else:
            if empty_code:
                with pytest.raises(DataFormatError,
                                   match="missing event_code"):
                    AdrDictionary.from_csv(path)
            else:
                assert AdrDictionary.from_csv(path).entries == want

    def test_ranked_csv_round_trip(self, tmp_path):
        r = ranked(["A", "C", "D"])
        y = truth_vector(r, self._dictionary(), "all")
        emit_report(tmp_path, [r], self._dictionary())
        rows = read_rows(tmp_path / "ranked_X_a1.csv", [
            ("event_code", str, None), ("y", int, lambda t: f"bad y {t!r}")])
        assert rows == list(zip(["A", "C", "D"], y))

    def test_report_builds_one_all_vector_per_list(self, tmp_path,
                                                   monkeypatch):
        # the ranked CSV's y and the metrics share one "all" vector
        modes = []

        def counted(ranked_list, dictionary, mode="all"):
            modes.append(mode)
            return truth_vector(ranked_list, dictionary, mode)
        monkeypatch.setattr(evaluation, "truth_vector", counted)
        lists = [ranked(["A", "C", "D"]), ranked(["A"], drug="B")]
        emit_report(tmp_path, lists, self._dictionary())
        assert modes.count("all") == len(lists)
        assert sorted(set(modes)) == ["all", "rare", "reaction_codes"]


class TestSignedRank:

    def test_six_clean_wins_exact(self):
        a = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
        b = [x - 0.1 for x in a]
        p, degenerate = signed_rank_one_sided(a, b)
        assert p == pytest.approx(1 / 64)
        assert not degenerate

    def test_identical_vectors_degenerate(self):
        p, degenerate = signed_rank_one_sided([1.0, 2.0], [1.0, 2.0])
        assert p == 1.0 and degenerate

    def test_symmetry(self):
        a = [0.9, 0.4, 0.8, 0.2, 0.6]
        b = [0.5, 0.6, 0.3, 0.4, 0.1]
        p_ab, _ = signed_rank_one_sided(a, b)
        p_ba, _ = signed_rank_one_sided(b, a)
        # one-sided p-values of opposite directions overlap only at W = E[W]
        assert p_ab + p_ba >= 1.0
        assert min(p_ab, p_ba) < 0.5 < max(p_ab, p_ba) or p_ab == p_ba

    def test_large_sample_normal_branch(self):
        a = [float(i) for i in range(1, 21)]
        b = [x - 1.0 for x in a]
        p, _ = signed_rank_one_sided(a, b)
        assert p < 1e-4

    def test_exact_and_normal_agree_roughly(self):
        a = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.95, 0.85, 0.75, 0.65, 0.55,
             0.45]
        b = [x - 0.05 * (1 + i % 3) for i, x in enumerate(a)]
        p_exact, _ = signed_rank_one_sided(a, b)
        bigger_a = a + [x + 2 for x in a]
        bigger_b = b + [x + 2 for x in b]
        p_norm, _ = signed_rank_one_sided(bigger_a, bigger_b)
        assert p_norm <= p_exact


class TestCompareAlgorithms:

    def _reports(self, scores_by_algo):
        from lodsig.evaluation import EvalReport
        out = []
        for algo, per_drug in scores_by_algo.items():
            for drug, value in per_drug.items():
                out.append(EvalReport(algo, drug, 0.0, 0.0, value, None,
                                      None, 10, 1))
        return out

    def test_dominating_algorithm_significant(self):
        drugs = [f"d{i}" for i in range(8)]
        reports = self._reports({
            "good": {d: 0.9 - 0.01 * i for i, d in enumerate(drugs)},
            "bad": {d: 0.2 + 0.01 * i for i, d in enumerate(drugs)},
        })
        res = compare_algorithms(reports, alpha=0.01)
        # 8 clean wins: p = 1/256, two ordered pairs, adjusted 1/128 < 0.01
        assert res.p_raw[("good", "bad")] == pytest.approx(1 / 256)
        assert res.significant[("good", "bad")]
        assert not res.significant[("bad", "good")]

    def test_identical_algorithms_not_significant(self):
        drugs = [f"d{i}" for i in range(6)]
        reports = self._reports({
            "a1": {d: 0.5 for d in drugs},
            "a2": {d: 0.5 for d in drugs},
        })
        res = compare_algorithms(reports, alpha=0.01)
        assert not any(res.significant.values())
        assert all(res.degenerate.values())

    def test_bonferroni_over_ordered_pairs(self):
        drugs = [f"d{i}" for i in range(6)]
        reports = self._reports({
            "a1": {d: 0.9 for d in drugs},
            "a2": {d: 0.5 + 0.01 * i for i, d in enumerate(drugs)},
            "a3": {d: 0.1 for d in drugs},
        })
        res = compare_algorithms(reports, alpha=0.01)
        for pair, p in res.p_raw.items():
            assert res.p_adjusted[pair] == pytest.approx(min(1.0, p * 6))

    def test_none_metrics_dropped_from_pairing(self):
        reports = self._reports({
            "a1": {"d0": 0.9, "d1": 0.8, "d2": None},
            "a2": {"d0": 0.1, "d1": 0.2, "d2": 0.3},
        })
        res = compare_algorithms(reports, alpha=0.01)
        assert res.p_raw[("a1", "a2")] == pytest.approx(1 / 4)

    def test_too_few_algorithms_rejected(self):
        reports = self._reports({"a1": {"d0": 0.5, "d1": 0.6}})
        with pytest.raises(ValueError):
            compare_algorithms(reports)
