import csv
import dataclasses
import datetime
import functools
import importlib.util
import logging
import sys
import tempfile
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodsig import mutara, srs, store, temporal_ic
from lodsig.cli import ALGORITHM_IDS, _base_config, score_drug
from lodsig.store import (Database, DataFormatError, Gender, StudyConfig,
                          candidate_codes, cohort_summary,
                          extract_exposures, first_per_patient, load_database,
                          previous_days, record_order, run_starts,
                          window_pairs)
from lodsig.cli import demo_synth_config, synth_config_from_dict
from lodsig.synthgen import build_database, generate

from conftest import counts_of, day, db_from_rows, make_db, random_small_db
from oracles import (brute_all_drug_exposures, brute_exposures,
                     brute_extract_exposures, brute_from_records,
                     brute_first_exposure_per_patient,
                     brute_generate_tables, brute_load_database,
                     brute_previous_days, brute_srs_cells,
                     brute_support_counts, brute_window_pairs, ev_day,
                     patient_index)
from test_acceptance import _recovery_config


ROOT = Path(__file__).resolve().parents[1]


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
        assert db.ev_pid.tolist() == [0, 0, 1]
        assert ev_day(db)[0] < ev_day(db)[1]
        assert db.duplicates_dropped == 0
        # last_active derives from records / death
        assert db.last_active.tolist() == [
            datetime.date(2016, 3, 1).toordinal(),
            datetime.date(2019, 3, 1).toordinal()]

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
        assert len(db.rx_day) == 1

    def test_unknown_patient_is_hard_error(self, tmp_path):
        paths = write_csvs(tmp_path, ["p1,1950,F,2015-01-01,\n"], [],
                           ["ghost,A,2016-01-01\n"])
        with pytest.raises(DataFormatError, match="ghost"):
            load_database(*paths)

    @pytest.mark.parametrize("line", [2, 3000])
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, line):
        # line 3000 lies beyond the text layer's first decoded chunk
        rx, ev, p = write_csvs(tmp_path, ["p1,1950,F,2015-01-01,\n"], [],
                               ["p1,A,2016-01-01\n"] * (line - 2))
        ev.write_bytes(ev.read_bytes() + b"p1,\xffA,2016-01-01\n")
        with pytest.raises(DataFormatError) as exc:
            load_database(rx, ev, p)
        assert str(exc.value) == (f"{ev}, line {line}: not UTF-8 text "
                                  "(byte b'\\xff')")

    def test_csv_error_names_file_and_line(self, tmp_path):
        rx, ev, p = write_csvs(tmp_path, ["p1,1950,F,2015-01-01,\n"],
                               ["p1,X,2016-01-01\n",
                                "p1," + "X" * 200_000 + ",2016-01-01\n"],
                               [])
        with pytest.raises(DataFormatError) as exc:
            load_database(rx, ev, p)
        assert str(exc.value).startswith(f"{rx}, line 3: field larger than")

    def test_record_before_registration_rejected(self):
        with pytest.raises(DataFormatError, match="before registration"):
            make_db([("p1", 100, 900)], events=[("p1", "A", 50)])

    @pytest.mark.parametrize("death, rx, message", [
        ("2014-12-31", [], "death for patient p1 dated before registration"),
        ("2016-02-15", ["p1,X,2016-02-01\n"],
         "event for patient p1 dated after death"),
        ("2016-03-15", ["p1,X,2016-04-01\n"],
         "prescription for patient p1 dated after death"),
    ], ids=["death_before_registration", "event_after_death",
            "prescription_after_death"])
    def test_impossible_death_date_rejected(self, tmp_path, death, rx,
                                            message):
        paths = write_csvs(tmp_path, [f"p1,1950,F,2015-01-01,{death}\n"],
                           rx, [GOOD_EV])
        with pytest.raises(DataFormatError) as exc:
            load_database(*paths)
        assert str(exc.value) == message

    def test_record_after_death_rejected_in_memory(self):
        with pytest.raises(DataFormatError,
                           match="event for patient p1 dated after death"):
            make_db([("p1", 0, 100)], events=[("p1", "A", 101)])

    def test_records_on_the_death_day_pass(self, tmp_path):
        paths = write_csvs(tmp_path, ["p1,1950,F,2015-01-01,2016-03-01\n"],
                           [GOOD_RX], [GOOD_EV])
        db = load_database(*paths)
        assert db.death[0] == db.last_active[0] == \
            datetime.date(2016, 3, 1).toordinal()

    def test_year_of_birth_beyond_int64_is_bad(self, tmp_path):
        paths = write_csvs(tmp_path, ["p1,99999999999999999999,F,"
                                      "2015-01-01,\n"], [], [])
        with pytest.raises(DataFormatError) as exc:
            load_database(*paths)
        assert str(exc.value) == (f"{paths[2]}, row 2: bad year_of_birth "
                                  "'99999999999999999999'")

    def test_patient_index_is_the_sorted_position(self):
        db, _ = build_database(dataclasses.replace(demo_synth_config(),
                                                   n_patients=300))
        assert [patient_index(db, p) for p in db.patient_ids] == \
            list(range(300))
        # one id that sorts between two present ids, one past the last
        for pid in (db.patient_ids[4] + "0", db.patient_ids[-1] + "0"):
            with pytest.raises(KeyError, match=f"unknown patient_id '{pid}'"):
                patient_index(db, pid)

    def test_patients_are_columns_and_never_objects(self, tmp_path):
        assert not hasattr(store, "Patient")
        config = dataclasses.replace(demo_synth_config(), n_patients=300)
        paths = generate(config, tmp_path)
        db = load_database(paths["prescriptions"], paths["events"],
                           paths["patients"], cache=False)
        for drug in db.drug_codes:
            score_drug(db, drug, ALGORITHM_IDS, seed=7)
        assert not hasattr(db, "patients")
        columns = {k: v for k, v in vars(db).items()
                   if isinstance(v, np.ndarray)}
        assert {"year_of_birth", "gender", "registration", "death",
                "last_active"} <= set(columns)
        assert all(v.dtype != object for v in columns.values())
        assert all(len(columns[k]) == db.n_patients for k in
                   ("year_of_birth", "gender", "registration", "death",
                    "last_active"))


P = "patient_id,year_of_birth,gender,registration_date,death_date\n"
RX = "patient_id,drug_code,date\n"
EV = "patient_id,event_code,date\n"
P1 = "p1,1950,F,2015-01-01,\n"
P2 = "p2,1970,M,2014-06-01,2019-03-01\n"
GOOD_RX = "p1,X,2016-02-01\n"
GOOD_EV = "p1,A,2016-03-01\n"


def _load_outcome(load, paths):
    try:
        return load(*paths)
    except DataFormatError as exc:
        return str(exc)


def assert_loads_like_oracle(directory, patients, prescriptions, events):
    """Both loaders raise the same DataFormatError or build equal databases.

    Texts are written byte for byte, so their line ends and quoting reach
    the CSV parser unchanged.
    """
    paths = []
    for name, text in (("prescriptions", prescriptions), ("events", events),
                       ("patients", patients)):
        path = Path(directory) / f"{name}.csv"
        path.write_bytes(text.encode("utf-8"))
        paths.append(path)
    got = _load_outcome(load_database, paths)
    want = _load_outcome(brute_load_database, paths)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return got
    arrays = sorted(k for k, v in vars(want).items()
                    if isinstance(v, np.ndarray))
    assert arrays == sorted(k for k, v in vars(got).items()
                            if isinstance(v, np.ndarray))
    for name in arrays:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert got.patient_ids == want.patient_ids
    assert got.drug_codes == want.drug_codes
    assert got.event_codes == want.event_codes
    assert got.duplicates_dropped == want.duplicates_dropped
    return got


_DATES = ["20150105", "2015-W01-1", "2015-01-05T00:00", "0000-01-01",
          "2015-02-29", "2020-13-40"]

# (patients, prescriptions, events) texts, headers included
LOADER_CASES = {
    "quoted_fields": (
        P + '"p1","1950","F","2015-01-01",""\n',
        RX + '"p1","X, Y","2016-02-01"\n',
        EV + '"p1","A\nB",2016-03-01\n"p1",A,"2016-03-02"\n'),
    "quoted_newline_then_bad_row": (
        P + P1, RX + GOOD_RX,
        EV + '"p1","A\nB",2016-03-01\np1,A,2016-13-01\n'),
    "crlf": ((P + P1 + P2).replace("\n", "\r\n"),
             (RX + GOOD_RX).replace("\n", "\r\n"),
             (EV + GOOD_EV + "p2,C,2015-09-01\n").replace("\n", "\r\n")),
    "mixed_line_ends": (P + P1.replace("\n", "\r\n") + P2, RX + GOOD_RX,
                        EV + "p1,A,2016-03-01\r\np2,C,2015-09-01\n"),
    "no_final_newline": (P + P1, RX + GOOD_RX.rstrip(),
                         EV + GOOD_EV.rstrip()),
    "blank_lines": (P + "\n" + P1 + "\n\n" + P2, RX + "\n" + GOOD_RX,
                    EV + GOOD_EV + "\n\n" + "p2,C,2015-09-01\n"),
    "blank_lines_then_bad_row": (P + "\n" + P1 + "\n\n" + P2,
                                 RX + GOOD_RX,
                                 EV + "\n\n" + GOOD_EV + "\np2,C,bad\n"),
    "spaces_around_fields": (
        P + " p1 , 1950 , f , 2015-01-01 , \n"
            "p2,1970, Male ,2014-06-01, 2019-03-01 \n",
        RX + " p1 , X ,2016-02-01\np1,X , 2016-02-01 \n",
        EV + "p1, A,2016-03-01\n p1,A , 2016-03-02\np2 ,C,2015-09-01\n"),
    "spaced_pid_merges_with_plain": (
        P + P1, RX + GOOD_RX, EV + "p1,A,2016-03-01\n p1 ,A,2016-03-05\n"),
    "reordered_and_extra_columns": (
        "gender,death_date,extra,registration_date,year_of_birth,"
        "patient_id\nF,,zz,2015-01-01,1950,p1\n",
        "date,drug_code,patient_id,note\n2016-02-01,X,p1,n\n",
        "event_code,x,date,patient_id\nA,1,2016-03-01,p1\n"),
    "no_death_date_column": (
        "patient_id,year_of_birth,gender,registration_date\n"
        "p1,1950,F,2015-01-01\n", RX + GOOD_RX, EV + GOOD_EV),
    "duplicate_header_column": (
        P + P1, "patient_id,drug_code,drug_code,date\np1,A,X,2016-02-01\n",
        EV + GOOD_EV),
    "long_rows": (P + "p1,1950,F,2015-01-01,,x,y\n", RX + GOOD_RX,
                  EV + "p1,A,2016-03-01,extra\n"),
    "short_patient_row_without_death": (P + "p1,1950,F,2015-01-01\n" + P2,
                                        RX + GOOD_RX, EV + GOOD_EV),
    "short_patient_row_without_date": (P + P1 + "p2,1970\n", RX + GOOD_RX,
                                       EV + GOOD_EV),
    "short_patient_row_without_year": (P + P1 + "p2\n", RX + GOOD_RX,
                                       EV + GOOD_EV),
    "short_record_row_without_code": (P + P1, RX + GOOD_RX,
                                      EV + GOOD_EV + "p1\n"),
    "short_record_row_without_date": (P + P1, RX + GOOD_RX + "p1,X\n",
                                      EV + GOOD_EV),
    **{f"event_date_{text}": (P + P1, RX + GOOD_RX,
                              EV + GOOD_EV + f"p1,B,{text}\n")
       for text in _DATES},
    **{f"registration_date_{text}": (
        P + f"p1,1950,F,{text},\n", RX, EV + GOOD_EV) for text in _DATES},
    **{f"death_date_{text}": (
        P + f"p1,1950,F,2014-01-01, {text} \n", RX, EV + GOOD_EV)
       for text in _DATES},
    "bad_year_of_birth": (P + P1 + "p2,19x0,M,2014-06-01,\n", RX, EV),
    "bad_gender": (P + P1 + "p2,1970,Q,2014-06-01,\n", RX, EV),
    "empty_pid_in_patients": (P + P1 + " ,1970,M,2014-06-01,\n", RX, EV),
    "empty_pid_in_events": (P + P1, RX + GOOD_RX,
                            EV + GOOD_EV + ",A,2016-03-01\n"),
    "empty_code_in_prescriptions": (P + P1,
                                    RX + GOOD_RX + "p1, ,2016-03-01\n",
                                    EV + GOOD_EV),
    "unknown_patient": (P + P1, RX + GOOD_RX, EV + "ghost,A,2016-01-01\n"),
    "unknown_patient_in_both_record_files": (
        P + P1, RX + "ghost_rx,X,2016-01-01\n",
        EV + "ghost_ev,A,2016-01-01\n"),
    "duplicate_patient": (P + P1 + " p1,1960,M,2014-01-01,\n", RX, EV),
    "duplicate_patient_and_bad_event_date": (
        P + P1 + P1, RX + GOOD_RX, EV + "p1,A,2016-02-30\n"),
    "duplicate_rows": (P + P1, RX + GOOD_RX * 3,
                       EV + GOOD_EV + " p1,A,2016-03-01\n" + GOOD_EV),
    "record_before_registration": (P + P1, RX + GOOD_RX,
                                   EV + "p1,A,2014-03-01\n"),
    "bad_rows_date_then_code": (
        P + P1, RX + GOOD_RX,
        EV + GOOD_EV + "p1,A,2016-02-30\np1,,2016-03-01\n"),
    "bad_rows_code_then_date": (
        P + P1, RX + GOOD_RX,
        EV + GOOD_EV + "p1,,2016-03-01\np1,A,2016-02-30\n"),
    "missing_field_before_bad_date_in_one_row": (
        P + P1, RX + GOOD_RX, EV + "p1,,2016-02-30\n"),
    "patient_row_with_every_fault": (P + " ,19x0,Q,bad,worse\n", RX, EV),
    "patient_row_with_bad_gender_and_dates": (P + "p1,1950,Q,bad,worse\n",
                                              RX, EV),
    "bad_rows_in_both_record_files": (P + P1, RX + "p1,X,2016-02-30\n",
                                      EV + "p1,,2016-03-01\n"),
    "bad_rows_in_patients_and_records": (
        P + "p1,1950,F,2015-01-01,2015-02-29\n", RX + "p1,X,bad\n",
        EV + "p1,,2016-03-01\n"),
    "header_only_record_files": (P + P1 + P2, RX, EV),
    "empty_events_file": (P + P1, RX + GOOD_RX, ""),
    "blank_first_line": (P + P1, "\n" + RX + GOOD_RX, EV + GOOD_EV),
    "missing_column": (P + P1, "patient_id,date\np1,2016-02-01\n", EV),
    # a quote, NUL or lone CR inside a row, long fields, ragged rows
    "quote_inside_unquoted_field": (P + P1, RX + GOOD_RX,
                                    EV + 'p1,A"B,2016-03-01\n'),
    "nul_byte": (P + P1, RX + GOOD_RX, EV + "p1,A\0B,2016-03-01\n"),
    "lone_cr": (P + P1, RX + GOOD_RX,
                EV + "p1,A,2016-03-01\rp1,B,2016-03-02\n"),
    "lone_cr_at_end": (P + P1, RX + GOOD_RX, EV + GOOD_EV + "p1,B\r"),
    # 70000 characters, within csv.field_size_limit(), in 140000 bytes
    "field_over_limit_in_bytes": (P + P1, RX + GOOD_RX,
                                  EV + "p1," + "\u00e9" * 70_000
                                  + ",2016-03-01\n"),
    # as many commas as rows of the header's width, but not row by row
    "long_row_then_short_row": (
        P + "p1,1950,F,2015-01-01,,x\np2,1970,M,2014-06-01\n",
        RX + GOOD_RX, EV + GOOD_EV),
    "utf8_bom": ("\ufeff" + P + P1, "\ufeff" + RX + GOOD_RX,
                 "\ufeff" + EV + GOOD_EV),
    "multibyte_utf8": (P + "p\u00e9,1950,F,2015-01-01,\n",
                       RX + "p\u00e9,\u65e5\u672c,2016-02-01\n",
                       EV + "p\u00e9,\u00e9v\u00e9nement,2016-03-01\n"),
}

class TestLoaderMatchesOracle:

    @pytest.mark.parametrize("texts", LOADER_CASES.values(),
                             ids=LOADER_CASES.keys())
    def test_pinned_case(self, texts, tmp_path):
        assert_loads_like_oracle(tmp_path, *texts)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_written_csv_text(self, data):
        pids = ["p1", "p2", "p3", " p1", "p2 ", "ghost", ""]
        dates = ["2016-02-01", "2016-02-01 ", "2017-05-05", "20160707",
                 "2016-W10-2", "2013-01-01", "2016-02-30", "x"]
        draw = data.draw

        def field(options):
            return draw(st.sampled_from(options))

        def lines(header, n, make_row):
            rows = [header] + [make_row() for _ in range(n)]
            quote = draw(st.booleans())
            out = []
            for row in rows:
                if draw(st.integers(0, 5)) == 0:
                    out.append([])  # a blank line
                out.append(row)
            end = draw(st.sampled_from(["\n", "\r\n"]))
            return "".join(
                ",".join(f'"{f}"' if quote else f for f in row) + end
                for row in out)

        patients = lines(
            ["patient_id", "year_of_birth", "gender", "registration_date",
             "death_date"],
            draw(st.integers(0, 4)),
            lambda: [field(pids[:5] + ["p1", "p2", "p3"]),
                     field(["1950", " 1960", "1970", "19x0"]),
                     field(["F", "m", " male", "", "Q"]),
                     field(["2014-01-01", " 2015-06-01", "20140305",
                            "2014-02-30"]),
                     field(["", "", "2019-03-01", " 2018-01-01 ", "bad"])])
        records = [
            lines(["patient_id", column, "date"], draw(st.integers(0, 6)),
                  lambda: [field(pids), field(codes), field(dates)])
            for column, codes in (("drug_code", ["X", " X", "Y", ""]),
                                  ("event_code", ["A", "B ", "C", ""]))]
        with tempfile.TemporaryDirectory() as directory:
            assert_loads_like_oracle(directory, patients, *records)

    def test_utf8_bom_is_read(self, tmp_path):
        bom = "\ufeff"
        db = assert_loads_like_oracle(tmp_path, bom + P + P1,
                                      bom + RX + GOOD_RX, bom + EV + GOOD_EV)
        assert db.patient_ids == ["p1"]
        assert (db.drug_codes, db.event_codes) == (["X"], ["A"])


def _read_by_csv_reader(path, names):
    """{column: its text in each row} of a file with no blank line."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return {c: [row[header.index(c)] for row in rows] for c in names}


def _peak_bytes(read, *args):
    tracemalloc.start()
    try:
        result = read(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLongFields:
    """A field far longer than the rest of its column costs memory in
    proportion to the file, not to that field's length times the rows."""

    NAMES = ["patient_id", "event_code", "date"]
    FIELDS = [(name, str, None) for name in NAMES]

    @pytest.mark.parametrize("at", [0, 1500, 3000])
    @pytest.mark.parametrize("distinct_codes", [3, 3000])
    def test_long_code_reads_like_csv_reader_in_little_memory(
            self, tmp_path, at, distinct_codes):
        rows = [f"p{i:07d},e{i % distinct_codes:05d},2016-01-01\n"
                for i in range(3000)]
        rows.insert(at, "p0000001," + "x" * 40_000 + ",2016-01-02\n")
        path = tmp_path / "events.csv"
        path.write_text("patient_id,event_code,date\n" + "".join(rows))
        got, peak = _peak_bytes(store.read_table, path, self.FIELDS)
        assert {c: [texts[i] for i in index]
                for c, (texts, index) in got.items()} == \
            _read_by_csv_reader(path, self.NAMES)
        # a 40000-byte field padded across 3000 rows would be 120 MB
        assert peak < 4 * 2 ** 20, peak

    def test_long_last_line_reads_in_little_memory(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("patient_id,event_code,date\n" + "".join(
            f"p{i:07d},e1,2016-01-01\n" for i in range(3000))
            + "p" * 40_000 + ",e1,2016-01-02\n")
        _, peak = _peak_bytes(store.read_table, path, self.FIELDS)
        assert peak < 4 * 2 ** 20, peak

    def test_long_field_among_short_rows_reads_in_little_memory(
            self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("patient_id,event_code,date\n" + "".join(
            f"p{i:07d},{'x' * 40_000 if i == 10 else 'e1'},2016-01-01\n"
            for i in range(3000)))
        _, peak = _peak_bytes(store.read_table, path, self.FIELDS)
        assert peak < 4 * 2 ** 20, peak


class TestMemoryBudget:
    """tracemalloc peaks on recovery-shaped data (criterion 5's scenario,
    seed 404), in bytes an event.  Each budget keeps the headroom
    recorded beside it, and fails at the size its comment names."""

    @pytest.fixture(scope="class")
    def recovery_csvs(self, tmp_path_factory):
        config = dataclasses.replace(_recovery_config(404), n_patients=2000)
        paths = generate(config, tmp_path_factory.mktemp("recovery"),
                         cache=False)
        return paths["prescriptions"], paths["events"], paths["patients"]

    def test_parse_peak(self, recovery_csvs):
        # 46,972 events at 55.9-56.4 B each (numpy 2.4.6), 5% under the
        # budget; int64 reader index and day columns made 69.6-70.1,
        # ff5f080's event-length patient and day columns for the date
        # checks 83.5-84.0, and an int64 event code column kept alive
        # through those checks 91.5-92.0
        db, peak = _peak_bytes(store._parse_database, *recovery_csvs)
        assert peak / len(db._ev_key) < 59, peak

    def test_read_cache_peak(self, recovery_csvs):
        # 23.8 B an event (numpy 2.4.6), 3% under the budget; the date
        # checks over all patients at once, not in blocks, made 24.9
        # (ff5f080, which stored last_active and checked no date, 24.3)
        db = store._parse_database(*recovery_csvs)
        entry = store._cache_entry(recovery_csvs)
        assert store._write_cache(db, *entry).startswith("wrote")
        got, peak = _peak_bytes(store._read_cache, *entry)
        assert isinstance(got, Database), got
        assert peak / len(got._ev_key) < 24.5, peak

    def test_generate_peak(self, tmp_path):
        # recovery_csvs' database (46,972 events), generated and cached:
        # 120.4 B an event (numpy 2.4.6), 4% under the budget; the
        # patients x codes count matrix made 124.6, and ff5f080, which
        # kept the generated tables beside the Database to the end, 135.9
        config = dataclasses.replace(_recovery_config(404), n_patients=2000)
        _, peak = _peak_bytes(generate, config, tmp_path)
        assert peak / 46_972 < 125, peak

    def test_generate_peak_many_codes(self, tmp_path):
        # the wide shape on the recovery drugs, 400 codes at 0.02 and 5
        # at 0.08 (58,388 events), generated and cached: 112.7-117.4 B an
        # event (numpy 2.4.6), 22% under the budget; the patients x codes
        # count matrix that generate_tables once kept made 262.5
        rates = {f"noise_{i:02d}": 0.02 for i in range(400)}
        rates.update({f"adr_{i}": 0.08 for i in range(5)})
        config = dataclasses.replace(_recovery_config(404), n_patients=2000,
                                     background_event_rates=rates)
        _, peak = _peak_bytes(generate, config, tmp_path)
        assert peak / 58_388 < 150, peak

    def test_score_drug_peak(self):
        # all seven ids for both drugs at 10,000 patients (233,651 events):
        # 12.2 B an event, 8.0 before the MUTARA pass's previous-day
        # column, 40% under the budget; that column sorted in one piece
        # made 45.4
        db, _ = build_database(dataclasses.replace(_recovery_config(404),
                                                   n_patients=10_000))
        # first calls import modules and fill caches the budget leaves out
        score_drug(random_small_db(np.random.default_rng(0)), "X",
                   ALGORITHM_IDS)
        _, peak = _peak_bytes(lambda: [score_drug(db, drug, ALGORITHM_IDS)
                                       for drug in db.drug_codes])
        assert peak / len(db._ev_key) < 20, peak


class TestBenchmarkProbe:

    def test_unit_inputs_count_what_scoring_reads(self, tmp_path):
        # perfbench/run.py sizes each (run, drug, algorithm) unit through
        # store.extract_exposures and store.candidate_events: a rename
        # there, or a count that drifts from the arrays scoring reads,
        # fails here rather than in the benchmark
        bench_dir = ROOT / "perfbench"
        names = ("perfbench_run", "checks", "layers", "workloads")
        loaded = {n for n in names if n in sys.modules}
        lodsig_log = logging.getLogger("lodsig")
        level = lodsig_log.level
        sys.path.insert(0, str(bench_dir))
        try:
            spec = importlib.util.spec_from_file_location(
                "perfbench_run", bench_dir / "run.py")
            bench = importlib.util.module_from_spec(spec)
            sys.modules[spec.name] = bench
            spec.loader.exec_module(bench)
            scenario = sys.modules["workloads"].wide_scenario(7)
            scenario["n_patients"] = 300
            generate(synth_config_from_dict(scenario), tmp_path / "data")
            workloads = bench.WORKLOADS
            units = {name: bench.unit_inputs(wl, 7, tmp_path)
                     for name, wl in workloads.items()}
        finally:
            sys.path.remove(str(bench_dir))
            for n in set(names) - loaded:
                sys.modules.pop(n, None)
            # unit_inputs quietens the package's log
            lodsig_log.setLevel(level)
        db = load_database(*(tmp_path / "data" / f for f in (
            "prescriptions.csv", "events.csv", "patients.csv")), cache=False)
        checked = 0
        for name, got in units.items():
            runs = dict(workloads[name].runs)
            for key, unit in got.items():
                out, _, unit_name = key.partition(":")
                drug, algorithm = unit_name.split("/")
                config = _base_config(algorithm, drug, 7,
                                      runs[out].get(algorithm, {}))
                episodes = db.episodes(drug)
                assert unit["exposures"] == len(episodes[0]) > 0, key
                assert unit["candidates"] == len(candidate_codes(
                    db, episodes, config.T, config.excluded_event_codes,
                    config.include_day0)) > 0, key
                checked += 1
        # every (run, drug, algorithm) unit of every workload
        assert checked == sum(2 * len(wl.runs) * len(wl.algorithms)
                              for wl in workloads.values())


@st.composite
def record_columns(draw):
    """One to three int64 columns, each constant, narrow or as wide as
    int64 allows, whose rows are drawn from a few distinct ones so that
    they repeat exactly."""
    values = []
    for _ in range(draw(st.integers(1, 3))):
        spread = draw(st.sampled_from(
            [0, 1, 7, 10 ** 7, 2 ** 40, 2 ** 62, 2 ** 64 - 1]))
        low = draw(st.integers(-2 ** 63, 2 ** 63 - 1 - spread))
        values.append(st.integers(low, low + spread))
    distinct = draw(st.lists(st.tuples(*values), min_size=1, max_size=8))
    rows = draw(st.lists(st.sampled_from(distinct), max_size=40))
    return [np.array([row[k] for row in rows], dtype=np.int64)
            for k in range(len(values))]


def assert_rows_in_lexsort_order(columns):
    rows = np.stack(columns)
    np.testing.assert_array_equal(rows[:, record_order(*columns)],
                                  rows[:, np.lexsort(columns[::-1])])


class TestRecordOrder:
    """record_order orders rows as np.lexsort does, whether it packs the
    columns into one key or sorts them one by one."""

    @settings(max_examples=300, deadline=None)
    @given(record_columns())
    def test_rows_in_lexsort_order(self, columns):
        assert_rows_in_lexsort_order(columns)

    @pytest.mark.parametrize("columns", [
        pytest.param([[], [], []], id="empty"),
        pytest.param([[5] * 4, [-3] * 4, [0] * 4], id="constant"),
        pytest.param([[2, 1, 2, 1, 2], [0, 9, 0, 9, 0], [4, 4, 4, 4, 4]],
                     id="duplicate-rows"),
        pytest.param([[-5, 3, -5, 0], [-(2 ** 63), 7, 2, -1]],
                     id="negative"),
        # one range of 2**63 - 1 is the widest that is packed
        pytest.param([[-(2 ** 62), 2 ** 62 - 2, 0, 5]], id="widest-packed"),
        # ranges of 2**32 and 2**31 multiply to exactly 2**63
        pytest.param([[0, 2 ** 32 - 1, 7, 0], [2 ** 31 - 1, 0, 3, 1]],
                     id="product-2**63"),
        pytest.param([[2 ** 63 - 1, -(2 ** 63), 0], [1, 0, 1]],
                     id="full-int64-range"),
        # packed without taking off the lows, the second row's key would
        # pass 2**63 and wrap below the first's
        pytest.param([[2, 1, 2, 1], [2 ** 62 - 2, 0, 0, 2 ** 62 - 2]],
                     id="lows-taken-off"),
    ])
    def test_named_cases(self, columns):
        columns = [np.array(c, dtype=np.int64) for c in columns]
        assert_rows_in_lexsort_order(columns)

    @pytest.mark.parametrize("columns, packed", [
        ([[-(2 ** 62), 2 ** 62 - 2]], True),   # a range of 2**63 - 1
        ([[0, 2 ** 32 - 1], [2 ** 31 - 1, 0]], False),   # 2**32 * 2**31
    ])
    def test_range_product_chooses_the_sort(self, monkeypatch, columns,
                                            packed):
        kinds = []
        argsort = np.argsort

        def spy(a, kind=None):
            kinds.append(kind)
            return argsort(a, kind=kind)
        monkeypatch.setattr(np, "argsort", spy)
        record_order(*(np.array(c, dtype=np.int64) for c in columns))
        assert kinds == ([None] if packed else ["stable"] * len(columns))


@st.composite
def run_rows(draw):
    """One to three int32 or int64 columns, their dtypes mixed as OE
    passes them, whose rows are drawn from a few distinct ones so that
    they repeat, next to each other and apart."""
    dtypes = draw(st.lists(st.sampled_from([np.int32, np.int64]),
                           min_size=1, max_size=3))
    values = [st.integers(-3, 3) | st.integers(int(np.iinfo(t).min),
                                               int(np.iinfo(t).max))
              for t in dtypes]
    distinct = draw(st.lists(st.tuples(*values), min_size=1, max_size=8))
    rows = draw(st.lists(st.sampled_from(distinct), min_size=1,
                         max_size=40))
    return [np.array([row[k] for row in rows], dtype=t)
            for k, t in enumerate(dtypes)]


def assert_marks_run_starts(columns):
    """run_starts is True exactly where a row differs from the row before
    it, and at row 0."""
    rows = list(zip(*(c.tolist() for c in columns)))
    want = [i == 0 or rows[i] != rows[i - 1] for i in range(len(rows))]
    got = run_starts(*columns)
    assert got.dtype == bool
    assert got.tolist() == want


class TestRunStarts:
    """run_starts, the package's one neighbour rule: on lexsorted rows it
    marks numpy's unique first indices, and on any rows the start of each
    run of equal adjacent rows."""

    @settings(max_examples=300, deadline=None)
    @given(run_rows())
    def test_matches_numpy_unique(self, columns):
        order = np.lexsort(columns[::-1])
        columns = [c[order] for c in columns]
        _, first = np.unique(np.stack(columns, axis=1), axis=0,
                             return_index=True)
        assert np.array_equal(np.flatnonzero(run_starts(*columns)),
                              np.sort(first))

    @settings(max_examples=300, deadline=None)
    @given(run_rows())
    def test_marks_runs_of_unsorted_rows(self, columns):
        assert_marks_run_starts(columns)

    @pytest.mark.parametrize("values", [
        pytest.param([], id="empty"),
        pytest.param([7], id="one"),
        pytest.param([4, 4, 4, 4], id="constant"),
        pytest.param([9, 7, 5, 3, 1, 0], id="descending"),
        pytest.param([2, 1, 2, 1, 0, 2], id="repeats-out-of-order"),
        pytest.param([-(2 ** 63), -(2 ** 63), 0, 2 ** 63 - 1, 2 ** 63 - 1],
                     id="int64-extremes"),
    ])
    def test_named_cases(self, values):
        assert_marks_run_starts([np.array(values, dtype=np.int64)])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 900)),
                    max_size=60).map(sorted))
    def test_first_per_patient_is_unique_first_index(self, episodes):
        # in (patient, day) order, as Database.episodes gives them
        pts = np.array([p for p, _ in episodes], dtype=np.int64)
        idx = np.array([i for _, i in episodes], dtype=np.int64)
        _, first = np.unique(pts, return_index=True)
        got = first_per_patient(pts, idx)
        assert np.array_equal(got[0], pts[first])
        assert np.array_equal(got[1], idx[first])


class TestFromColumns:

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_order_is_lexsort_of_code_day_patient(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 300))
        # few values per column, so rows repeat exactly
        pid_values = list(rng.choice(["q3", "q1", "q2", "q0"],
                                     int(rng.integers(1, 6))))
        code_values = list(rng.choice(["D", "B", "A", "C"],
                                      int(rng.integers(1, 6))))
        pid_index = rng.integers(0, len(pid_values), n)
        code_index = rng.integers(0, len(code_values), n)
        day = rng.integers(730_000, 730_000 + int(rng.integers(1, 20)), n)
        patients = sorted(set(pid_values))
        same = np.zeros(len(patients), dtype=np.int64)  # value 0 each
        none = np.zeros(0, dtype=np.int64)
        db = Database.from_columns(
            [(patients, np.arange(len(patients))), ([1950], same),
             ([Gender.FEMALE], same), ([730_000], same), ([None], same)],
            ([], none, [], none, none),
            (pid_values, pid_index, code_values, code_index, day))

        pid = np.array([patient_index(db, p) for p in pid_values])[pid_index]
        code = np.array([db.event_codes.index(c)
                         for c in code_values])[code_index]
        rows = np.stack([pid, code, day])[:, np.lexsort((code, day, pid))]
        keep = np.ones(n, dtype=bool)
        keep[1:] = np.any(rows[:, 1:] != rows[:, :-1], axis=0)
        np.testing.assert_array_equal(db.ev_pid, rows[0, keep])
        np.testing.assert_array_equal(db.ev_code, rows[1, keep])
        np.testing.assert_array_equal(ev_day(db), rows[2, keep])
        assert db.duplicates_dropped == n - keep.sum()
        assert db.ev_pid.dtype == ev_day(db).dtype == np.int64
        assert db.ev_code.dtype == np.int32

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_date_rule_and_last_active_match_brute(self, data):
        # deaths and records drawn on both sides of [registration, death],
        # patients listed out of index order
        draw = data.draw
        ids = draw(st.lists(st.sampled_from("abcde"), min_size=1,
                            unique=True))
        patients, spans = [], []
        for pid in ids:
            reg = draw(st.integers(0, 20))
            death = draw(st.none() | st.integers(reg - 2, reg + 30))
            patients.append((pid, 1950, Gender.MALE, day(reg),
                             None if death is None else day(death)))
            spans.append((reg - 2, reg + 32 if death is None else death + 2))

        def records(codes):
            n = draw(st.integers(0, 6))
            return [(ids[i], draw(st.sampled_from(codes)),
                     day(draw(st.integers(*spans[i]))))
                    for i in draw(st.lists(st.integers(0, len(ids) - 1),
                                           min_size=n, max_size=n))]
        rows = patients, records("XY"), records("ABC")

        def outcome(build):
            try:
                return build(*rows).last_active.tolist()
            except DataFormatError as exc:
                return str(exc)
        # the oracle checks its own last_active against the constructor's
        assert outcome(db_from_rows) == outcome(brute_from_records)

    def test_duplicates_logged_once_per_csv_load(self, tmp_path, caplog):
        paths = write_csvs(tmp_path, [P1], [GOOD_RX] * 2, [GOOD_EV] * 3)
        with caplog.at_level("WARNING", logger="lodsig.store"):
            db = load_database(*paths)
            make_db([("p1", 0, 900)], events=[("p1", "A", 5)] * 2)
        assert db.duplicates_dropped == 3
        assert [r.getMessage() for r in caplog.records] == [
            "collapsed 3 duplicate record rows"]


class TestSlimEventTable:
    """The event table stores the packed key and an int32 code only."""

    @pytest.fixture(scope="class")
    def built(self):
        config = dataclasses.replace(demo_synth_config(), n_patients=300)
        db, _ = build_database(config)
        return config, db

    def test_only_key_and_code_are_stored_per_event(self, built):
        _, db = built
        n_events = len(db._ev_key)
        assert n_events not in (db.n_patients, len(db.rx_pid))
        for drug in db.drug_codes:
            score_drug(db, drug, ALGORITHM_IDS, seed=7)
        per_event = {k for k, v in vars(db).items()
                     if isinstance(v, np.ndarray) and len(v) == n_events}
        assert per_event == {"_ev_key", "ev_code"}
        assert db._ev_key.dtype == np.int64
        assert db.ev_code.dtype == np.int32
        with pytest.raises(AttributeError):
            db.ev_pid = db._ev_key
        assert not hasattr(db, "ev_day")

    def test_derived_columns_equal_the_key_and_the_oracle(self, built):
        config, db = built
        pid, day_ = np.divmod(db._ev_key, store._KEY_BASE)
        np.testing.assert_array_equal(db.ev_pid, pid)
        np.testing.assert_array_equal(ev_day(db), day_)
        # the oracle generator's rows, exact duplicates collapsed, in
        # (patient index, day, code index) order
        _, _, ev_rows, _ = brute_generate_tables(config)
        rows = sorted({(patient_index(db, p), d, db.event_index(c))
                       for p, c, d in ev_rows})
        assert list(zip(db.ev_pid.tolist(), ev_day(db).tolist(),
                        db.ev_code.tolist())) == rows

    def test_load_keeps_the_slim_layout(self, built, tmp_path):
        config, _ = built
        paths = generate(config, tmp_path)
        paths = (paths["prescriptions"], paths["events"], paths["patients"])
        for cache in (False, True):     # a parse, then generate's slot
            db = load_database(*paths, cache=cache)
            assert {k for k, v in vars(db).items()
                    if isinstance(v, np.ndarray)
                    and len(v) == len(db._ev_key)} == {"_ev_key", "ev_code"}
            assert db.ev_code.dtype == np.int32


class TestExtractExposures:

    def test_washout_blocks_second_prescription(self):
        db = make_db([("p1", -400, 900)],
                     rx=[("p1", "X", 0), ("p1", "X", 100)])
        assert episode_pairs(db, db.episodes("X")) == [("p1", day(0))]

    def test_registration_washout_excludes_early_prescription(self):
        # registered 2015-01-01, prescribed ~5 months later
        db = make_db([("p1", 0, 900)], rx=[("p1", "X", 151)])
        assert episode_pairs(db, db.episodes("X")) == []

    def test_active_followup_rule(self):
        db = make_db([("p1", -400, 20)], rx=[("p1", "X", 0)])
        assert episode_pairs(db, db.episodes("X")) == []

    def test_multiple_episodes_when_far_apart(self):
        db = make_db([("p1", -400, 900)],
                     rx=[("p1", "X", 0), ("p1", "X", 500)])
        assert db.episodes("X")[1].tolist() == [day(0), day(500)]

    def test_matches_brute_force_on_random_dbs(self, simple_config):
        rng = np.random.default_rng(5)
        for _ in range(20):
            db = random_small_db(rng)
            assert episode_pairs(db, db.episodes("X")) == \
                sorted(brute_exposures(db, simple_config))

    def test_row_order_independent(self):
        patients = [("p1", -400, 900), ("p2", -400, 900)]
        rx = [("p1", "X", 0), ("p2", "X", 30), ("p1", "X", 500)]
        db1 = make_db(patients, rx=rx)
        db2 = make_db(list(reversed(patients)), rx=list(reversed(rx)))
        assert episode_pairs(db1, db1.episodes("X")) == \
            episode_pairs(db2, db2.episodes("X"))


@st.composite
def edge_databases(draw):
    """Databases whose prescriptions sit on the rule edges: 0, 364 and 365
    days after registration, 30 and 29 days before the end of follow-up,
    and 1, 395 or 396 days after the same drug's previous prescription."""
    patients, rx = [], []
    for i in range(draw(st.integers(1, 4))):
        pid = f"q{(3 * i) % 4}"   # listed out of id order
        reg = draw(st.integers(0, 30))
        until = reg + draw(st.integers(400, 1600))
        patients.append((pid, reg, until))
        for drug in draw(st.lists(st.sampled_from("XBC"), max_size=3,
                                  unique=True)):
            d = draw(st.sampled_from([reg, reg + 364, reg + 365,
                                      until - 30, until - 29]))
            for _ in range(draw(st.integers(1, 3))):
                if d > until:
                    break
                rx.append((pid, drug, d))
                d += draw(st.sampled_from([1, 30, 395, 396, 700]))
    return make_db(patients, rx=rx)


def episode_pairs(db, episodes):
    pts, idx = episodes
    assert pts.dtype == idx.dtype == np.int64
    return [(db.patient_ids[p], d) for p, d in zip(pts.tolist(),
                                                   idx.tolist())]


def assert_exposures_match_oracle(db, T):
    """The episode arrays and their list form against the per-row loop
    they replaced, for every drug, an absent drug and all drugs."""
    for drug in (*db.drug_codes, "absent"):
        config = StudyConfig(drug_code=drug, T=T)
        want = brute_extract_exposures(db, config)
        assert episode_pairs(db, db.episodes(drug)) == want
        assert episode_pairs(db, extract_exposures(db, config).T) == want
        assert episode_pairs(db, first_per_patient(*db.episodes(drug))) == \
            brute_first_exposure_per_patient(want)
        # the old loop's sort was a no-op: patient indices follow sorted
        # ids and one drug's prescriptions are in (patient, day) order
        pid, day_ = db.prescriptions_of_drug(drug)
        assert db.patient_ids == sorted(db.patient_ids)
        assert np.array_equal(np.lexsort((day_, pid)), np.arange(len(pid)))
    assert episode_pairs(db, db.all_episodes()[1:]) == \
        brute_all_drug_exposures(db, StudyConfig(drug_code="X", T=T))


class TestExposureArrays:

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           T=st.sampled_from([1, 29, 30, 31, 90, 400]))
    def test_random_databases_match_oracle(self, seed, T):
        db = random_small_db(np.random.default_rng(seed), n_patients=12,
                             drugs=("X", "B", "C"))
        assert_exposures_match_oracle(db, T)

    @settings(max_examples=150, deadline=None)
    @given(db=edge_databases(), T=st.sampled_from([1, 29, 30, 31, 400]))
    def test_rule_edges_match_oracle(self, db, T):
        assert_exposures_match_oracle(db, T)

    def test_rule_edges_pinned(self):
        db = make_db([("p1", 0, 2000), ("p2", 0, 1000), ("p3", 0, 1000)],
                     rx=[("p1", "X", 365), ("p1", "X", 760),
                         ("p1", "X", 1156), ("p1", "B", 364),
                         ("p2", "X", 970), ("p3", "X", 971)])
        config = StudyConfig(drug_code="X", T=60)
        # 760 is 395 days after 365, 1156 is 396 after 760; p2 keeps
        # exactly 30 days of follow-up and p3 29
        assert episode_pairs(db, extract_exposures(db, config).T) == [
            ("p1", day(365)), ("p1", day(1156)), ("p2", day(970))]
        assert extract_exposures(db, StudyConfig(drug_code="B")).shape == \
            (0, 2)
        assert_exposures_match_oracle(db, 60)


def window_count(db, patient_id, lo, hi, event_code):
    """Events of one code for one patient in [lo, hi], by window_pairs."""
    pts = np.array([patient_index(db, patient_id)], dtype=np.int64)
    _, codes, events = window_pairs(db, pts, np.array([lo]), np.array([hi]))
    assert (db.ev_code[events] == codes).all()
    return [db.event_codes[c] for c in codes.tolist()].count(event_code)


class TestCountEventsInWindow:

    def test_empty_history(self):
        db = make_db([("p1", 0, 900)])
        assert window_count(db, "p1", day(10), day(20), "A") == 0

    def test_boundaries_inclusive(self):
        db = make_db([("p1", 0, 900)], events=[("p1", "A", 10),
                                               ("p1", "A", 20),
                                               ("p1", "A", 21)])
        assert window_count(db, "p1", day(10), day(20), "A") == 2

    def test_unknown_patient_raises(self):
        db = make_db([("p1", 0, 900)])
        with pytest.raises(KeyError):
            window_count(db, "nope", day(0), day(1), "A")

    def test_reversed_window_is_empty(self):
        db = make_db([("p1", 0, 900)], events=[("p1", "A", 3)])
        assert window_count(db, "p1", day(5), day(1), "A") == 0

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
        assert window_count(db, "p1", day(lo), day(hi), "A") == expected


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
        row, code, event = window_pairs(db, pts, lo, hi)
        got = sorted(zip(row.tolist(),
                         [db.event_codes[c] for c in code.tolist()]))
        assert got == brute_window_pairs(db, pts, lo, hi)
        assert list(row) == sorted(row)
        # each pair names its event: that event's patient, day and code
        assert (db.ev_pid[event] == pts[row]).all()
        assert ((lo[row] <= ev_day(db)[event])
                & (ev_day(db)[event] <= hi[row])).all()
        assert (db.ev_code[event] == code).all()

    def test_int32_patient_indices_pack_in_int64(self):
        # int32 indices of 215 and more once wrapped in the packed key
        # (215 * 10**7 > 2**31), so the windows read other patients' rows
        n = 300
        db = make_db([(f"p{i:03d}", 0, 900) for i in range(n)],
                     events=[(f"p{i:03d}", "ABC"[i % 3], 10 + i % 7)
                             for i in range(n)])
        pts = np.arange(215, n, dtype=np.int32)
        lo = np.full(len(pts), day(0), dtype=np.int32)
        hi = np.full(len(pts), day(20), dtype=np.int32)
        row, code, event = window_pairs(db, pts, lo, hi)
        assert row.tolist() == list(range(len(pts)))
        assert [db.event_codes[c] for c in code.tolist()] == \
            ["ABC"[i % 3] for i in pts.tolist()]
        want = window_pairs(db, pts.astype(np.int64), lo, hi)
        for got, expected in zip((row, code, event), want):
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("T, pre_window", [
        (10 ** 7 - 1, 60), (60, 10 ** 7 - 1), (10 ** 7 - 1, 10 ** 7 - 1)],
        ids=["long_T", "long_pre_window", "both"])
    def test_long_windows_stay_inside_one_patient(self, T, pre_window):
        # a window reaching past the packed key's day range once read the
        # neighbouring patients' events; StudyConfig refuses longer
        # windows, but from an index day these still reach past it
        rng = np.random.default_rng(2024)
        config = StudyConfig(drug_code="X", T=T, pre_window=pre_window,
                             rng_seed=5)
        for trial in range(20):
            db = random_small_db(rng, n_patients=10)
            pts, idx = db.episodes("X")
            for lo, hi in ((idx + 1, idx + T), (idx - pre_window, idx)):
                row, code, _ = window_pairs(db, pts, lo, hi)
                got = sorted(zip(row.tolist(),
                                 [db.event_codes[c] for c in code.tolist()]))
                assert got == brute_window_pairs(db, pts, lo, hi)
            cells = srs.srs_cells(db, config)
            assert {c: counts_of(db, cells, c) for c in db.event_codes} == \
                brute_srs_cells(db, "X", T)
            pairs = brute_first_exposure_per_patient(
                brute_exposures(db, config))
            vectors = mutara._support_vectors(
                db, (pts, idx), dataclasses.replace(config, rng_seed=trial))
            for code in ("A", "C", "D"):
                assert counts_of(db, vectors, code) == \
                    brute_support_counts(db, pairs, code, config, trial)

    @pytest.mark.parametrize("modules, calls", [
        ((store, temporal_ic, mutara), (7, 3)),
        ((store, temporal_ic, mutara, srs), (8, 3))], ids=["no_srs", "srs"])
    def test_calls_per_drug_independent_of_candidates(self, modules, calls,
                                                      monkeypatch):
        # the seven ids share one window, so score_drug selects their
        # candidates with one call; of the four scoring passes (ror05;
        # oe1+oe2; mutara60+hunt60; mutara180+hunt180) OE then makes 4
        # for the first drug (one a period, counting every drug's
        # episodes) and SRS 1 (every drug's prescriptions), and none for
        # a second drug, which reads its row of those counts; each
        # support pass makes 1 a drug (the exposed and background windows
        # together), however many codes there are
        seen = []

        def counting(name):
            def wrapper(*args):
                seen.append(name)
                return window_pairs(*args)
            return wrapper
        for module in modules:
            monkeypatch.setattr(module, "window_pairs",
                                counting(module.__name__))
        rng = np.random.default_rng(17)
        n_candidates = set()
        for codes in ("AC", "ABCDEFGHIJKL"):
            db = random_small_db(rng, n_patients=40, codes=tuple(codes))
            for drug, drug_calls in zip(("X", "B"), calls):
                seen.clear()
                ranked = score_drug(db, drug, ALGORITHM_IDS, 3)
                assert len(seen) == drug_calls
                if drug == "B":
                    assert not {"lodsig.srs", "lodsig.temporal_ic"} & \
                        set(seen)
                oe1 = ranked[ALGORITHM_IDS.index("oe1")]
                n_candidates.add((drug, len(oe1.entries) + len(oe1.filtered)))
        # each drug's candidates differ between the two databases
        assert len(n_candidates) == 4


    def test_exposure_arrays_and_digests_built_once(self, monkeypatch):
        # one score_drug over all seven ids reads one episode pass, one
        # SRS report count per T, one OE count of every drug per (T,
        # control_period), one digest array per seed and one previous-day
        # column; a second drug reuses all five
        built = []

        def counting(name, build):
            def wrapper(*args):
                built.append((name, *args[1:]))
                return build(*args)
            return wrapper
        monkeypatch.setattr(store, "_qualifying_episodes",
                            counting("episodes", store._qualifying_episodes))
        monkeypatch.setattr(srs, "_reports", counting("reports", srs._reports))
        monkeypatch.setattr(temporal_ic, "_patients_with_event", counting(
            "periods", temporal_ic._patients_with_event))
        monkeypatch.setattr(mutara, "_background_digests",
                            counting("digests", mutara._background_digests))
        monkeypatch.setattr(mutara, "previous_days",
                            counting("previous days", store.previous_days))
        db = random_small_db(np.random.default_rng(17), n_patients=40)
        score_drug(db, "X", ALGORITHM_IDS, 3)
        once = [("episodes",), ("reports", 30), ("periods", 30, (27, 21)),
                ("digests", 3), ("previous days",)]
        assert built == once
        score_drug(db, "B", ALGORITHM_IDS, 3,
                   {"hunt180": {"rng_seed": 4}})
        assert built == [*once, ("digests", 4)]
        # the SRS reports read T, and the OE counts T and control_period,
        # and only those
        score_drug(db, "B", ["oe1", "oe2", "ror05"], 3,
                   {"oe1": {"T": 60, "pre_window": 60},
                    "oe2": {"control_period": [12, 6]},
                    "ror05": {"T": 60, "pre_window": 60}})
        assert built == [*once, ("digests", 4), ("periods", 60, (27, 21)),
                         ("periods", 30, (12, 6)), ("reports", 60)]
        # the first drug reads them under those keys too
        before = list(built)
        score_drug(db, "X", ["oe1", "ror05"], 3,
                   {"oe1": {"T": 60, "control_period": [27, 21]},
                    "ror05": {"T": 60, "control_period": [12, 6]}})
        assert built == before


    def test_concurrent_scoring_shares_cached_arrays(self):
        # more threads than cores and a short switch interval, so fills of
        # one cache entry race; each must return the one stored entry
        drugs = ["X", "B", "C"] * 4
        fresh = functools.partial(random_small_db, n_patients=40,
                                  drugs=("X", "B", "C"))
        want = {d: score_drug(fresh(np.random.default_rng(23)), d,
                              ALGORITHM_IDS, 3) for d in set(drugs)}
        db = fresh(np.random.default_rng(23))
        barrier = threading.Barrier(len(drugs))

        def score(drug):
            barrier.wait(timeout=30)
            return (score_drug(db, drug, ALGORITHM_IDS, 3),
                    db.all_episodes()[1])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(drugs)) as pool:
                got = list(pool.map(score, drugs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for drug, (lists, pts) in zip(drugs, got):
            assert [r.entries for r in lists] == \
                [r.entries for r in want[drug]]
            assert pts is got[0][1]


class TestCached:
    # Database.cached(build, *args) keys each shared build by its call

    @pytest.fixture
    def db(self):
        return make_db([("p0", 0, 900)], events=[("p0", "A", 5)])

    def test_equal_args_of_two_builds_are_two_entries(self, db):
        calls = []

        def first(db, T):
            calls.append(("first", T))
            return ["first", T]

        def second(db, T):
            calls.append(("second", T))
            return ["second", T]
        got = [db.cached(build, 30) for build in (first, second) * 2]
        assert calls == [("first", 30), ("second", 30)]
        assert got[0] == ["first", 30] and got[1] == ["second", 30]
        assert got[2] is got[0] and got[3] is got[1]

    def test_a_build_that_raises_stores_nothing(self, db):
        calls = []

        def build(db):
            calls.append(len(calls))
            if len(calls) == 1:
                raise RuntimeError("first build fails")
            return len(calls)
        with pytest.raises(RuntimeError, match="first build fails"):
            db.cached(build)
        assert db.cached(build) == 2
        assert db.cached(build) == 2
        assert calls == [0, 1]

    def test_the_build_receives_the_database_and_its_args(self, db):
        received = []

        def build(*args, **kwargs):
            received.append((args, kwargs))
            return len(received)
        assert db.cached(build) == 1
        assert db.cached(build, 30, (27, 21)) == 2
        assert received == [((db,), {}), ((db, 30, (27, 21)), {})]


class TestPreviousDays:

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 7),
           st.lists(st.tuples(st.integers(0, 6), st.sampled_from("ABC"),
                              st.integers(0, 40)), max_size=50),
           st.sampled_from([1, 2, 3, 1024]))
    def test_equals_per_patient_scan(self, n_patients, history, block):
        # blocks of 1 to 3 patients put block edges between patients
        # that share codes
        db = make_db([(f"p{i}", 0, 900) for i in range(n_patients)],
                     events=[(f"p{i % n_patients}", c, d)
                             for i, c, d in history])
        days = previous_days(db, block)
        assert days.dtype == np.int32
        assert days.tolist() == brute_previous_days(db)


class TestWiden:

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=7),
           st.lists(st.tuples(st.integers(0, 6), st.integers(0, 60)),
                    max_size=30),
           st.sampled_from([1, 2, 3, 1024]))
    def test_equals_per_patient_min_and_max(self, start, days, block):
        # blocks of 1 to 3 patients put block edges between patients with
        # and without records
        n = len(start)
        key = np.array(sorted(p * store._KEY_BASE + d for p, d in days
                              if p < n), dtype=np.int64)
        first, last = np.array(start), np.array(start)
        store._widen(key, first, last, block)
        assert first.tolist() == [min([s] + [d for p, d in days if p == i])
                                  for i, s in enumerate(start)]
        assert last.tolist() == [max([s] + [d for p, d in days if p == i])
                                 for i, s in enumerate(start)]


def candidate_names(db, episodes, T, **kwargs):
    return [db.event_codes[c]
            for c in candidate_codes(db, episodes, T, **kwargs).tolist()]


class TestCandidateEvents:

    def _db(self):
        return make_db([("p1", -400, 900)], rx=[("p1", "X", 0)],
                       events=[("p1", "A", 3), ("p1", "B", 40),
                               ("p1", "Z", 0)])

    def test_window_cutoff(self):
        db = self._db()
        assert candidate_names(db, db.episodes("X"), 30) == ["A"]

    def test_day0_convention(self):
        db = self._db()
        eps = db.episodes("X")
        assert "Z" not in candidate_names(db, eps, 30)
        assert "Z" in candidate_names(db, eps, 30, include_day0=True)

    def test_excluded_codes_removed(self):
        db = self._db()
        assert candidate_names(db, db.episodes("X"), 30,
                               excluded=frozenset({"A", "absent"})) == []

    def test_monotone_in_T(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            db = random_small_db(rng)
            eps = db.episodes("X")
            if not len(eps[0]):
                continue
            for t_small, t_big in [(5, 30), (30, 90)]:
                assert set(candidate_codes(db, eps, t_small).tolist()) <= \
                    set(candidate_codes(db, eps, t_big).tolist())


class TestCohortSummary:

    def test_repeat_prescriptions(self):
        db = make_db([("p1", -400, 900)],
                     rx=[("p1", "X", 0), ("p1", "X", 10), ("p1", "X", 20)])
        s = cohort_summary(db, "X")
        assert (s["total"], s["first"], s["thirteen_month"]) == (3, 1, 1)

    def test_gender_ratio(self):
        db = db_from_rows(
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
            rows = [(p, d) for p, c, d in zip(
                db.rx_pid.tolist(), db.rx_drug.tolist(), db.rx_day.tolist())
                if db.drug_codes[c] == "X"]
            assert s["total"] == len(rows)
            assert s["first"] == len({pid for pid, _ in rows})
            thirteen = 0
            for pid, d in rows:
                prior = [x for p2, x in rows
                         if p2 == pid and d - 395 <= x < d]
                thirteen += not prior
            assert s["thirteen_month"] == thirteen

    def test_age_is_prescription_year_minus_year_of_birth(self):
        # born 1960; prescribed on 2015-12-31 and on 2016-01-01
        db = make_db([("p1", -400, 900)],
                     rx=[("p1", "X", 364), ("p1", "X", 365)])
        s = cohort_summary(db, "X")
        assert (s["mean_age"], s["sd_age"]) == (55.5, 0.5)

    def test_ages_and_gender_ratio_match_brute_force(self):
        rng = np.random.default_rng(5)
        ratios = 0
        for _ in range(20):
            db = random_small_db(rng, n_patients=12)
            # the same records with varied years of birth and genders
            patients = [(p, int(rng.integers(1920, 2000)),
                         list(Gender)[i % 3], int(db.registration[i]),
                         int(db.death[i]) or None)
                        for i, p in enumerate(db.patient_ids)]
            db = db_from_rows(
                patients,
                [(db.patient_ids[p], db.drug_codes[c], d) for p, c, d in
                 zip(db.rx_pid.tolist(), db.rx_drug.tolist(),
                     db.rx_day.tolist())],
                [(db.patient_ids[p], db.event_codes[c], d) for p, c, d in
                 zip(db.ev_pid.tolist(), db.ev_code.tolist(),
                     ev_day(db).tolist())])
            assert set(db.gender) == {"F", "M", "U"}
            # (year of birth, Gender, day) of each prescription of X
            rows = [(int(db.year_of_birth[p]), Gender(db.gender[p]), d)
                    for p, c, d in zip(db.rx_pid.tolist(),
                                       db.rx_drug.tolist(),
                                       db.rx_day.tolist())
                    if db.drug_codes[c] == "X"]
            s = cohort_summary(db, "X")
            if not rows:
                assert s["mean_age"] is s["sd_age"] is None
                continue
            ages = [datetime.date.fromordinal(d).year - yob for yob, _, d in rows]
            mean = sum(ages) / len(ages)
            sd = (sum((a - mean) ** 2 for a in ages) / len(ages)) ** 0.5
            assert s["mean_age"] == pytest.approx(mean, abs=1e-9)
            assert s["sd_age"] == pytest.approx(sd, abs=1e-9)
            genders = [g for _, g, _ in rows]
            males = genders.count(Gender.MALE)
            assert s["gender_ratio"] == (
                genders.count(Gender.FEMALE) / males if males else None)
            ratios += males > 0
        assert ratios >= 5


class TestStudyConfig:

    def test_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(drug_code="X", T=0)
        with pytest.raises(ValueError):
            StudyConfig(drug_code="X", control_period=(21, 27))

    def test_numpy_integers_are_kept_as_ints(self):
        config = StudyConfig(drug_code="X", T=np.int64(30),
                             pre_window=np.int32(60), rng_seed=np.uint8(7))
        assert config == StudyConfig(drug_code="X", T=30, pre_window=60,
                                     rng_seed=7)
        assert all(type(v) is int for v in
                   (config.T, config.pre_window, config.rng_seed))

    @pytest.mark.parametrize("value", [30.5, np.float64(30.0), True,
                                       np.bool_(True)])
    def test_non_integers_are_refused(self, value):
        with pytest.raises(ValueError, match="T must be an integer"):
            StudyConfig(drug_code="X", T=value)

    def test_containers_are_made_hashable(self):
        config = StudyConfig(drug_code="x", control_period=[24, 18],
                             excluded_event_codes=["a"])
        same = StudyConfig(drug_code="x", control_period=(24, 18),
                           excluded_event_codes=frozenset({"a"}))
        assert config == same and hash(config) == hash(same)

    @pytest.mark.parametrize("field, value, message", [
        ("excluded_event_codes", "adr_alpha", "a list of event code strings"),
        ("excluded_event_codes", [1, 2], "a list of event code strings"),
        ("include_day0", "false", "include_day0 must be a boolean"),
        ("include_day0", 1, "include_day0 must be a boolean"),
        ("control_period", [3, True], r"control_period\[1\] must be an int"),
        ("control_period", [27.5, 21], r"control_period\[0\] must be an int"),
    ], ids=["codes_string", "codes_ints", "day0_string", "day0_int",
            "period_bool", "period_float"])
    def test_wrong_types_are_refused(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            StudyConfig(drug_code="X", **{field: value})
