import atexit
import concurrent.futures
import csv
import dataclasses
import datetime
import gc
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import lodsig
from lodsig import synthgen
from lodsig.cli import (ALGORITHM_IDS, RunManifest, _base_config,
                        _read_yaml, demo_synth_config, main, run, score_drug,
                        synth_config_from_dict)
from lodsig.store import DataFormatError
from lodsig.synthgen import DrugModel, generate

from conftest import random_small_db

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def demo_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo_data")
    config = demo_synth_config(seed=7)
    # uncached, so the first run parses the CSVs (and caches them)
    return generate(config, out, cache=False), out


def demo_manifest(demo_data, out_dir, algorithms=("ror05", "mutara60")):
    paths, data_dir = demo_data
    return RunManifest(
        database_dir=str(data_dir),
        drugs=["drug_x"],
        algorithms=list(algorithms),
        output_dir=str(out_dir),
        seed=7,
        ground_truth=str(paths["ground_truth"]))


class TestManifest:

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown manifest keys"):
            RunManifest.from_dict({"database_dir": "d", "drugs": ["x"],
                                   "algorithms": ["ror05"],
                                   "output_dir": "o", "bogus": 1})

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            RunManifest.from_dict({"database_dir": "d", "drugs": ["x"],
                                   "algorithms": ["ror99"],
                                   "output_dir": "o"})

    def test_duplicate_algorithms_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RunManifest.from_dict({"database_dir": "d", "drugs": ["x"],
                                   "algorithms": ["ror05", "ror05"],
                                   "output_dir": "o"})

    @pytest.mark.parametrize("changes, message", [
        ({"drugs": "drug_x"}, "drugs must be a non-empty list of strings"),
        ({"drugs": [1]}, "drugs must be a non-empty list of strings"),
        ({"algorithms": "ror05"},
         "algorithms must be a non-empty list of strings"),
        ({"overrides": ["oe1"]}, "overrides must be a mapping"),
        ({"overrides": {"oe9": {"T": 60}}}, "unknown algorithm ids"),
        ({"overrides": {"oe1": 60}},
         "a StudyConfig override for oe1 must be a mapping of keys, not a "
         "int"),
        ({"overrides": {"oe1": {"TT": 60}}},
         r"unknown StudyConfig override for oe1 keys: \['TT'\]"),
        ({"overrides": {"oe1": {"drug_code": "y"}}},
         r"unknown StudyConfig override for oe1 keys: \['drug_code'\]"),
        ({"drugs": ["x", "a/b"]}, "cannot name output files"),
        ({"drugs": ["a\\b"]}, "cannot name output files"),
        ({"drugs": ["a\0b"]}, "cannot name output files"),
        ({"drugs": ["."]}, "cannot name output files"),
        ({"drugs": [".."]}, "cannot name output files"),
        ({"seed": "abc"}, "seed must be an integer, not 'abc'"),
        ({"seed": "7"}, "seed must be an integer, not '7'"),
        ({"seed": True}, "seed must be an integer, not True"),
        ({"seed": 7.5}, "seed must be an integer, not 7.5"),
        ({"drugs": ["drug_x", "drug_x", "drug_other"]},
         r"duplicate manifest drugs: \['drug_x'\]"),
        ({"overrides": {"oe1": {"T": 0}}},
         "bad overrides for oe1 {'T': 0}: T must be positive"),
        ({"overrides": {"oe1": {"T": "abc"}}},
         "bad overrides for oe1 {'T': 'abc'}: T must be an integer, "
         "not 'abc'"),
        ({"overrides": {"mutara60": {"control_period": [1, 2]}}},
         r"bad overrides for mutara60 .*: control_period must be"),
        ({"overrides": {"ror05": {"excluded_event_codes": 5}}},
         "bad overrides for ror05 .*not iterable"),
        ({"overrides": {"oe1": {"T": 9223372036854775000}}},
         "bad overrides for oe1 .*: T must be under 10000000 days, "
         "not 9223372036854775000"),
        ({"overrides": {"oe1": {"T": 99999999999999999999}}},
         "bad overrides for oe1 .*: T must be under 10000000 days, "
         "not 99999999999999999999"),
        ({"overrides": {"oe1": {"pre_window": 10 ** 7}}},
         "pre_window must be under 10000000 days, not 10000000"),
        ({"overrides": {"oe1": {"control_period": [333334, 21]}}},
         "control_period start must be under 10000000 days, not 10000020"),
        # a string would be the set of its characters
        ({"overrides": {"ror05": {"excluded_event_codes": "adr_alpha"}}},
         "bad overrides for ror05 .*: excluded_event_codes must be a list "
         "of event code strings, not 'adr_alpha'"),
        ({"overrides": {"ror05": {"excluded_event_codes": [1, 2]}}},
         r"excluded_event_codes must be a list of event code strings, "
         r"not \[1, 2\]"),
        ({"overrides": {"oe1": {"include_day0": "false"}}},
         "bad overrides for oe1 .*: include_day0 must be a boolean, "
         "not 'false'"),
        ({"overrides": {"oe1": {"control_period": [3, True]}}},
         r"control_period\[1\] must be an integer, not True"),
        ({"overrides": {"oe1": {"control_period": [27.5, 21]}}},
         r"control_period\[0\] must be an integer, not 27.5"),
    ], ids=["scalar_drugs", "int_drug", "scalar_algorithms",
            "overrides_list", "override_unknown_id", "override_scalar",
            "override_unknown_key", "override_drug_code", "drug_slash",
            "drug_backslash", "drug_nul", "drug_dot", "drug_dotdot",
            "seed_string", "seed_numeric_string", "seed_bool",
            "seed_float", "repeated_drug", "override_T_zero",
            "override_T_text", "override_control_period",
            "override_excluded_codes_scalar", "override_T_wraps_int64",
            "override_T_beyond_int64", "override_pre_window_too_long",
            "override_control_period_too_long",
            "override_excluded_codes_string", "override_excluded_codes_ints",
            "override_include_day0_string", "override_control_period_bool",
            "override_control_period_float"])
    def test_bad_field_rejected(self, changes, message):
        raw = {"database_dir": "d", "drugs": ["x"], "algorithms": ["oe1"],
               "output_dir": "o", **changes}
        with pytest.raises(ValueError, match=message):
            RunManifest.from_dict(raw)

    @pytest.mark.parametrize("raw", [["database_dir", "d"], "d", 3],
                             ids=["list", "string", "int"])
    def test_manifest_must_be_a_mapping(self, raw):
        with pytest.raises(ValueError, match="must be a mapping"):
            RunManifest.from_dict(raw)

    def test_yaml_round_trip(self, tmp_path):
        m = RunManifest("d", ["x"], ["oe1"], "o", seed=3,
                        overrides={"oe1": {"T": 60}})
        path = tmp_path / "m.yaml"
        path.write_text(yaml.safe_dump(m.to_dict()))
        assert RunManifest.from_file(path) == m


class TestBaseConfig:

    def test_suffix_sets_pre_window(self):
        assert _base_config("mutara60", "x", 0, {}).pre_window == 60
        assert _base_config("hunt180", "x", 0, {}).pre_window == 180

    def test_overrides_win(self):
        config = _base_config("mutara60", "x", 0, {"pre_window": 90, "T": 45})
        assert (config.pre_window, config.T) == (90, 45)

    def test_excluded_codes_become_frozenset(self):
        config = _base_config("ror05", "x", 0,
                              {"excluded_event_codes": ["a", "b"]})
        assert config.excluded_event_codes == frozenset({"a", "b"})

    def test_control_period_becomes_tuple(self):
        # YAML gives a list; configurations must stay hashable
        config = _base_config("oe1", "x", 0, {"control_period": [24, 18]})
        assert config.control_period == (24, 18)
        assert hash(config) == hash(_base_config("oe1", "x", 0, {
            "control_period": (24, 18)}))


class TestScoreDrug:

    @pytest.mark.parametrize("overrides", [
        {},
        {"oe2": {"T": 60}},                      # splits the OE pair
        {"hunt60": {"pre_window": 0}},           # splits the 60-day pair
        {"oe1": {"control_period": [24, 18]}},   # a list, as YAML gives it
    ], ids=["none", "oe_split", "pair60_split", "control_period_list"])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_shared_passes_never_change_a_list(self, overrides, seed):
        db = random_small_db(np.random.default_rng(seed), n_patients=30)
        shared = score_drug(db, "X", ALGORITHM_IDS, seed % 1000, overrides)
        assert [r.algorithm for r in shared] == list(ALGORITHM_IDS)
        for ranked in shared:
            # a call with a single id shares no pass
            [alone] = score_drug(db, "X", [ranked.algorithm], seed % 1000,
                                 overrides)
            assert ranked.entries == alone.entries, ranked.algorithm
            assert ranked.filtered == alone.filtered, ranked.algorithm

    def test_unknown_id_is_named(self):
        db = random_small_db(np.random.default_rng(5), n_patients=10)
        with pytest.raises(ValueError, match="unknown algorithm id 'oe3'"):
            score_drug(db, "X", ["ror05", "oe3"])

    @pytest.mark.parametrize("algorithm_id", ["mutara180", "hunt60"])
    def test_nan_score_names_the_algorithm_id(self, algorithm_id,
                                              monkeypatch):
        # both ids share one view with a sibling (mutara60, hunt180); the
        # error must say which of them failed
        db = random_small_db(np.random.default_rng(5), n_patients=30)
        nan = np.full(len(db.event_codes), np.nan)
        monkeypatch.setattr(lodsig.mutara, "leverages",
                            lambda *vectors: (nan, nan))
        with pytest.raises(ValueError, match=rf"^{algorithm_id} for drug "
                                             r"'X': score of event '\w+' "
                                             r"is NaN"):
            score_drug(db, "X", [algorithm_id])


class TestRun:

    def test_writes_expected_artifacts(self, demo_data, tmp_path):
        manifest = demo_manifest(demo_data, tmp_path / "res")
        assert run(manifest, jobs=1) == 0
        out = tmp_path / "res"
        for name in ("ranked_drug_x_ror05.csv", "ranked_drug_x_mutara60.csv",
                     "metrics_summary.csv", "map_chart.csv",
                     "manifest_resolved.yaml"):
            assert (out / name).exists(), name

    def test_single_drug_skips_significance(self, demo_data, tmp_path):
        manifest = demo_manifest(demo_data, tmp_path / "res")
        run(manifest, jobs=1)
        assert not list((tmp_path / "res").glob("significance_*.csv"))

    def test_single_algorithm_skips_significance(self, demo_data, tmp_path):
        # the tests pair algorithms by drug: two drugs are not enough alone
        manifest = demo_manifest(demo_data, tmp_path / "res", ["ror05"])
        manifest.drugs = ["drug_x", "drug_other"]
        assert run(manifest, jobs=1) == 0
        assert sorted(p.name for p in (tmp_path / "res").iterdir()) == [
            "manifest_resolved.yaml", "map_chart.csv", "metrics_summary.csv",
            "ranked_drug_other_ror05.csv", "ranked_drug_x_ror05.csv"]

    def test_parallel_output_byte_identical(self, demo_data, tmp_path):
        m1 = demo_manifest(demo_data, tmp_path / "serial", ALGORITHM_IDS)
        m2 = demo_manifest(demo_data, tmp_path / "parallel", ALGORITHM_IDS)
        assert run(m1, jobs=1) == 0
        assert run(m2, jobs=4) == 0
        serial = sorted((tmp_path / "serial").iterdir())
        parallel = sorted((tmp_path / "parallel").iterdir())
        assert [p.name for p in serial] == [p.name for p in parallel]
        for a, b in zip(serial, parallel):
            if a.name == "manifest_resolved.yaml":
                continue  # records the differing output_dir by design
            assert a.read_bytes() == b.read_bytes(), a.name

    def test_threads_share_one_database_byte_identical(self, tmp_path):
        # three drugs on two threads: one thread scores two drugs, and
        # both fill the database's shared caches at the same time
        config = demo_synth_config(seed=5)
        config = dataclasses.replace(config, n_patients=800, drug_models={
            **config.drug_models,
            "drug_third": DrugModel(0.3, ("indication_x", 2.0), 0.1)})
        paths = generate(config, tmp_path / "data")
        trees = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            manifest = RunManifest(
                database_dir=str(tmp_path / "data"),
                drugs=["drug_x", "drug_other", "drug_third"],
                algorithms=list(ALGORITHM_IDS), output_dir=str(out),
                seed=5, ground_truth=str(paths["ground_truth"]))
            assert run(manifest, jobs=jobs) == 0
            trees.append({p.name: p.read_bytes()
                          for p in sorted(out.iterdir())
                          if p.name != "manifest_resolved.yaml"})
        assert len(trees[0]) == 3 * len(ALGORITHM_IDS) + 5
        assert trees[0] == trees[1]

    def test_one_worker_scores_without_a_pool(self, demo_data, tmp_path,
                                              monkeypatch):
        # two drugs at jobs 2 make one pool of two threads; jobs 1, and
        # jobs 4 with one drug, score in the calling thread and write the
        # same files
        def tree(out):
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())
                    if p.name != "manifest_resolved.yaml"}
        made = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, workers):
                made.append(workers)
                super().__init__(workers)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            Recording)
        manifest = demo_manifest(demo_data, tmp_path / "pool", ALGORITHM_IDS)
        manifest.drugs = ["drug_x", "drug_other"]
        assert run(manifest, jobs=2) == 0
        assert made == [2]
        pooled = tree(tmp_path / "pool")

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-worker run made a thread pool")
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        manifest.output_dir = str(tmp_path / "one")
        assert run(manifest, jobs=1) == 0
        assert tree(tmp_path / "one") == pooled
        manifest.drugs, manifest.output_dir = ["drug_x"], str(tmp_path / "x")
        assert run(manifest, jobs=4) == 0
        ranked = [f"ranked_drug_x_{a}.csv" for a in ALGORITHM_IDS]
        assert [tree(tmp_path / "x")[name] for name in ranked] == \
            [pooled[name] for name in ranked]

    def test_one_short_list_warning_per_run(self, demo_data, tmp_path,
                                            caplog):
        manifest = demo_manifest(demo_data, tmp_path / "res", ALGORITHM_IDS)
        manifest.drugs = ["drug_x", "drug_other"]
        with caplog.at_level("INFO"):
            assert run(manifest, jobs=1) == 0
        warnings = [r.getMessage() for r in caplog.records
                    if r.name == "lodsig.evaluation"]
        assert len(warnings) == 1, warnings
        assert warnings[0].startswith("14 of 14 ranked lists have fewer "
                                      "than 50 entries")
        progress = [r.getMessage() for r in caplog.records
                    if r.levelname == "INFO" and "scored" in r.getMessage()]
        assert [m.split(":")[0] for m in progress] == \
            ["scored drug_x", "scored drug_other"]

    def test_run_without_ground_truth(self, demo_data, tmp_path):
        # two drugs and two ids: the run with truth writes every file
        trees = {}
        for truth in (True, False):
            out = tmp_path / str(truth)
            manifest = demo_manifest(demo_data, out)
            manifest.drugs = ["drug_x", "drug_other"]
            if not truth:
                manifest.ground_truth = None
            assert run(manifest, jobs=1) == 0
            trees[truth] = {}
            for path in sorted(out.iterdir()):
                with open(path, newline="") as fh:
                    trees[truth][path.name] = list(csv.DictReader(fh)) \
                        if path.suffix == ".csv" else None
        ranked = [f"ranked_{d}_{a}.csv" for d in ("drug_other", "drug_x")
                  for a in ("mutara60", "ror05")]
        assert sorted(trees[False]) == ["manifest_resolved.yaml", *ranked]
        assert "significance_map_all.csv" in trees[True]
        for name in ranked:
            with_truth = trees[True][name]
            assert with_truth and trees[False][name] == [
                {**row, "y": "0"} for row in with_truth], name
        assert any(row["y"] == "1" for name in ranked
                   for row in trees[True][name])


# a valid one-drug scenario, and one injection of it
SCENARIO = ("n_patients: 10\nyears_span: 2\nbackground_event_rates: {e: 1}\n"
            "drug_models: {d: {prescription_rate: 0.3}}\n")
INJECTION = "{drug_code: d, event_code: e, relative_risk: 2.0}"


class TestMain:

    def test_generate_demo_then_summarize(self, tmp_path):
        out = tmp_path / "exp"
        assert main(["run", "--generate-demo", "--output", str(out),
                     "--seed", "3"]) == 0
        results = out / "results"
        assert (results / "metrics_summary.csv").exists()
        # the demo runs both demo drugs, so the significance tests run too
        assert (results / "significance_map_all.csv").exists()
        assert main(["summarize", str(results)]) == 0
        for name in ("table_precision_10.csv", "table_precision_50.csv",
                     "chart_map_all.csv", "chart_map_rare.csv",
                     "chart_map_reaction_codes.csv"):
            assert (results / name).exists(), name
        with open(results / "table_precision_10.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][1:] == sorted(ALGORITHM_IDS)
        assert rows[-1][0] == "Mean (3dp)"

    def test_generate_with_config_file(self, tmp_path):
        config = {
            "n_patients": 50,
            "years_span": 3,
            "background_event_rates": {"headache": 0.5, "rash": 0.1},
            "drug_models": {"drug_x": {"prescription_rate": 0.3}},
            "injections": [{"drug_code": "drug_x", "event_code": "rash",
                            "relative_risk": 20.0}],
            "rng_seed": 5,
        }
        cfg = tmp_path / "synth.yaml"
        cfg.write_text(yaml.safe_dump(config))
        out = tmp_path / "gen"
        assert main(["generate", "--config", str(cfg),
                     "--output", str(out)]) == 0
        assert (out / "patients.csv").exists()

    def test_missing_database_is_clean_error(self, tmp_path, caplog):
        manifest = {"database_dir": str(tmp_path / "nope"),
                    "drugs": ["drug_x"], "algorithms": ["ror05"],
                    "output_dir": str(tmp_path / "res")}
        path = tmp_path / "m.yaml"
        path.write_text(yaml.safe_dump(manifest))
        with caplog.at_level("ERROR"):
            assert main(["run", "--manifest", str(path)]) == 1
        assert "run failed" in caplog.text

    def test_bad_override_key_is_usage_error_before_load(
            self, demo_data, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(lodsig.cli, "_load_db", None)  # never reached
        path = tmp_path / "m.yaml"
        path.write_text(yaml.safe_dump({
            "database_dir": str(demo_data[1]), "drugs": ["drug_x"],
            "algorithms": ["oe1"], "output_dir": str(tmp_path / "res"),
            "overrides": {"oe1": {"TT": 60}}}))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--manifest", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert "Traceback" not in "\n".join(err)
        assert err[-1].endswith(
            "unknown StudyConfig override for oe1 keys: ['TT']")
        assert not (tmp_path / "res").exists()

    def test_drug_code_with_slash_is_usage_error_before_load(
            self, demo_data, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(lodsig.cli, "_load_db", None)  # never reached
        path = tmp_path / "m.yaml"
        path.write_text(yaml.safe_dump({
            "database_dir": str(demo_data[1]), "drugs": ["drug_x", "a/b"],
            "algorithms": ["ror05"], "output_dir": str(tmp_path / "res")}))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--manifest", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert "Traceback" not in "\n".join(err)
        assert "'a/b'" in err[-1]
        assert not (tmp_path / "res").exists()

    def test_output_is_a_file_fails_before_the_load(
            self, demo_data, tmp_path, caplog, monkeypatch):
        # the output directory is made before the database is loaded
        loads = []

        def load(*args, **kwargs):
            loads.append(args)
            raise DataFormatError("the database was loaded")
        monkeypatch.setattr(lodsig.cli, "load_database", load)
        output = tmp_path / "res"
        output.write_bytes(b"")
        path = tmp_path / "m.yaml"
        path.write_text(yaml.safe_dump({
            "database_dir": str(demo_data[1]), "drugs": ["drug_x"],
            "algorithms": ["ror05"], "output_dir": str(output)}))
        with caplog.at_level("ERROR"):
            assert main(["run", "--manifest", str(path)]) == 1
        failures = [r.getMessage() for r in caplog.records
                    if "run failed" in r.getMessage()]
        assert len(failures) == 1
        assert "File exists" in failures[0]
        assert loads == []
        assert output.read_bytes() == b""

    def test_drug_missing_from_database_is_data_error(
            self, demo_data, tmp_path, caplog):
        path = tmp_path / "m.yaml"
        path.write_text(yaml.safe_dump({
            "database_dir": str(demo_data[1]), "drugs": ["drug_typo"],
            "algorithms": ["ror05"], "output_dir": str(tmp_path / "res")}))
        with caplog.at_level("ERROR"):
            assert main(["run", "--manifest", str(path)]) == 1
        failures = [r.getMessage() for r in caplog.records
                    if "run failed" in r.getMessage()]
        assert len(failures) == 1
        assert "drug_typo" in failures[0]
        assert str(demo_data[1]) in failures[0]
        assert not (tmp_path / "res").exists()

    def test_bad_manifest_exits_via_parser_error(self, tmp_path, capsys):
        path = tmp_path / "m.yaml"
        path.write_text(yaml.safe_dump({"database_dir": "d",
                                        "drugs": ["x"],
                                        "algorithms": ["bogus"],
                                        "output_dir": "o"}))
        with pytest.raises(SystemExit):
            main(["run", "--manifest", str(path)])
        assert "unknown algorithm" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("- drug_x\n- drug_other\n", "a manifest must be a mapping"),
        ("database_dir: d\ndrugs: [x]\nalgorithms: [ror05]\n"
         "output_dir: o\nseed: abc\n", "seed must be an integer"),
        ("database_dir: d\ndrugs: [drug_x, drug_x, drug_other]\n"
         "algorithms: [ror05]\noutput_dir: o\n",
         "duplicate manifest drugs: ['drug_x']"),
        ("database_dir: d\ndrugs: [unclosed\n", "not valid YAML"),
        ("database_dir: d\ndrugs: [x]\nalgorithms: [oe1]\noutput_dir: o\n"
         "overrides: {oe1: {T: 0}}\n", "T must be positive"),
        ("database_dir: d\ndrugs: [x]\nalgorithms: [oe1]\noutput_dir: o\n"
         "overrides: {oe1: {T: abc}}\n", "bad overrides for oe1"),
        ("database_dir: d\ndrugs: [x]\nalgorithms: [mutara60]\n"
         "output_dir: o\noverrides: {mutara60: {control_period: [1, 2]}}\n",
         "control_period must be"),
        ("database_dir: d\ndrugs: [x]\nalgorithms: [oe1]\noutput_dir: o\n"
         "overrides: {oe1: {T: 30.5}}\n",
         "bad overrides for oe1 {'T': 30.5}: T must be an integer, not 30.5"),
        ("database_dir: d\ndrugs: [x]\nalgorithms: [ror05]\noutput_dir: o\n"
         "overrides: {ror05: {T: true}}\n",
         "bad overrides for ror05 {'T': True}: T must be an integer, "
         "not True"),
        ("database_dir: d\ndrugs: [x]\nalgorithms: [mutara60]\n"
         "output_dir: o\noverrides: {mutara60: {rng_seed: abc}}\n",
         "bad overrides for mutara60 {'rng_seed': 'abc'}: rng_seed must be "
         "an integer, not 'abc'"),
        ("database_dir: d\ndrugs: [x]\nalgorithms: [hunt180]\n"
         "output_dir: o\noverrides: {hunt180: {pre_window: 1.5}}\n",
         "pre_window must be an integer, not 1.5"),
        ("database_dir: d\ndrugs: [x]\nalgorithms: [oe1]\noutput_dir: o\n"
         "overrides: {oe1: {T: 9223372036854775000}}\n",
         "bad overrides for oe1 {'T': 9223372036854775000}: T must be under "
         "10000000 days, not 9223372036854775000"),
        ("database_dir: d\ndrugs: [x]\nalgorithms: [oe1]\noutput_dir: o\n"
         "overrides: {oe1: {T: 99999999999999999999}}\n",
         "bad overrides for oe1 {'T': 99999999999999999999}: T must be "
         "under 10000000 days, not 99999999999999999999"),
        # 0 would open stdin as the ground-truth file
        ("database_dir: d\ndrugs: [x]\nalgorithms: [ror05]\noutput_dir: o\n"
         "ground_truth: 0\n",
         "manifest ground_truth must be a non-empty string or null, not 0"),
        ("database_dir: 5\ndrugs: [x]\nalgorithms: [ror05]\noutput_dir: o\n",
         "manifest database_dir must be a non-empty string, not 5"),
        ("database_dir: null\ndrugs: [x]\nalgorithms: [ror05]\n"
         "output_dir: o\n",
         "manifest database_dir must be a non-empty string, not None"),
        ("database_dir: d\ndrugs: [x]\nalgorithms: [ror05]\noutput_dir: 7\n",
         "manifest output_dir must be a non-empty string, not 7"),
        ("database_dir: d\ndrugs: [x]\nalgorithms: [ror05]\noutput_dir: o\n"
         "overrides: {ror05: {excluded_event_codes: adr_alpha}}\n",
         "excluded_event_codes must be a list of event code strings, not "
         "'adr_alpha'"),
        ("database_dir: d\ndrugs: [x]\nalgorithms: [ror05]\noutput_dir: o\n"
         "overrides: {ror05: {excluded_event_codes: [1, 2]}}\n",
         "excluded_event_codes must be a list of event code strings, not "
         "[1, 2]"),
        ("database_dir: d\ndrugs: [x]\nalgorithms: [oe1]\noutput_dir: o\n"
         "overrides: {oe1: {include_day0: 'false'}}\n",
         "bad overrides for oe1 {'include_day0': 'false'}: include_day0 must "
         "be a boolean, not 'false'"),
        ("database_dir: d\ndrugs: [x]\nalgorithms: [oe1]\noutput_dir: o\n"
         "overrides: {oe1: {control_period: [3, true]}}\n",
         "control_period[1] must be an integer, not True"),
        ("database_dir: d\ndrugs: [x]\nalgorithms: [oe1]\noutput_dir: o\n"
         "overrides: {oe1: {control_period: [27.5, 21]}}\n",
         "control_period[0] must be an integer, not 27.5"),
        # each of these failed in Python's own words
        ("database_dir: d\ndrugs: [x]\nalgorithms: [oe1]\noutput_dir: o\n"
         "overrides: {oe1: {control_period: 5}}\n",
         "bad overrides for oe1 {'control_period': 5}: control_period must "
         "be [start, end] month offsets, not 5"),
        ("database_dir: d\ndrugs: [x]\nalgorithms: [oe1]\noutput_dir: o\n"
         "overrides: {oe1: {control_period: [27]}}\n",
         "control_period must be [start, end] month offsets, not [27]"),
        ("database_dir: d\ndrugs: [x]\nalgorithms: [oe1]\noutput_dir: o\n"
         "overrides: {oe1: {T: '30'}}\n",
         "bad overrides for oe1 {'T': '30'}: T must be an integer, not '30'"),
        ("database_dir: d\ndrugs: [x]\nalgorithms: [hunt60]\n"
         "output_dir: o\noverrides: {hunt60: {pre_window: '60'}}\n",
         "pre_window must be an integer, not '60'"),
    ], ids=["list", "string_seed", "repeated_drug", "malformed_yaml",
            "override_T_zero", "override_T_text",
            "override_control_period", "override_T_float",
            "override_T_bool", "override_rng_seed_text",
            "override_pre_window_float", "override_T_wraps_int64",
            "override_T_beyond_int64", "ground_truth_int",
            "database_dir_int", "database_dir_null", "output_dir_int",
            "override_excluded_codes_string", "override_excluded_codes_ints",
            "override_include_day0_string", "override_control_period_bool",
            "override_control_period_float", "override_control_period_int",
            "override_control_period_one_item", "override_T_string",
            "override_pre_window_string"])
    def test_bad_manifest_is_one_line_usage_error(self, tmp_path, capsys,
                                                  monkeypatch, text,
                                                  message):
        monkeypatch.setattr(lodsig.cli, "_load_db", None)  # never reached
        path = tmp_path / "m.yaml"
        path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--manifest", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert message in err.splitlines()[-1]

    def test_missing_manifest_is_one_line_usage_error(self, tmp_path,
                                                      capsys):
        path = tmp_path / "absent.yaml"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--manifest", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{path}: No such file or directory" in err.splitlines()[-1]

    @pytest.mark.parametrize("text, message", [
        ("n_patients: 10\nbackground_event_rates: {e: 0.1}\n",
         "no 'years_span' key"),
        ("n_patients: ten\nyears_span: 2\nbackground_event_rates: {e: 1}\n",
         "n_patients must be an integer, not 'ten'"),
        ("- n_patients: 10\n- years_span: 2\n",
         "a scenario must be a mapping of keys, not a list"),
        ("n_patients: 0\nyears_span: 2\nbackground_event_rates: {e: 1}\n",
         "n_patients and years_span must be positive"),
        ("n_patients: [10\n", "not valid YAML"),
        ("n_patients: 10\nyears_span: 2\nbackground_event_rates: {e: 1}\n"
         "drug_models: {d: 0.3}\n",
         "a drug model 'd' must be a mapping of keys, not a float"),
        ("n_patients: 10\nyears_span: 2\n"
         "background_event_rates: {noise_05: .nan}\n",
         "background rate of 'noise_05' must be in [0, 4.612e+18] events "
         "per patient-year, not nan"),
        ("n_patients: 10\nyears_span: 2\n"
         "background_event_rates: {noise_05: 1.0e+300}\n",
         "background rate of 'noise_05' must be in [0, 4.612e+18] events "
         "per patient-year, not 1e+300"),
        ("n_patients: 10\nyears_span: 2\nbackground_event_rates: {e: 1}\n"
         "drug_models: {d: {prescription_rate: 0.3}}\n"
         "injections: [{drug_code: d, event_code: e, relative_risk: .nan}]\n",
         "relative_risk of 'e' for 'd' must be at least 1, not nan"),
        # unknown keys were dropped: a database without injections
        (f"{SCENARIO}injection: [{INJECTION}]\n",
         "unknown scenario keys: ['injection']"),
        (f"{SCENARIO}dropout_prob: 0.5\n",
         "unknown scenario keys: ['dropout_prob']"),
        ("n_patients: 10\nyears_span: 2\nbackground_event_rates: {e: 1}\n"
         "drug_models: {d: {prescription_rate: 0.3, repeat_rte: 0.5}}\n",
         "unknown drug model 'd' keys: ['repeat_rte']"),
        (f"{SCENARIO}injections: [{{latency_window: 20, {INJECTION[1:]}]\n",
         "unknown injection keys: ['latency_window']"),
        # non-integers were truncated
        ("n_patients: 300.9\nyears_span: 2\nbackground_event_rates: {e: 1}\n",
         "n_patients must be an integer, not 300.9"),
        ("n_patients: 10\nyears_span: 4.7\nbackground_event_rates: {e: 1}\n",
         "years_span must be an integer, not 4.7"),
        (f"{SCENARIO}rng_seed: 3.2\n", "rng_seed must be an integer, not 3.2"),
        (f"{SCENARIO}rng_seed: true\n",
         "rng_seed must be an integer, not True"),
        (f"{SCENARIO}injections: [{{latency_window_days: 20.9, "
         f"{INJECTION[1:]}]\n",
         "latency_window_days of 'e' for 'd' must be an integer, not 20.9"),
        # a quoted boolean was read as true
        (f"{SCENARIO}injections: [{{is_reaction_code: 'false', "
         f"{INJECTION[1:]}]\n",
         "is_reaction_code of 'e' for 'd' must be a boolean, not 'false'"),
        # quoted numbers, flags and a longer indication were taken
        ("n_patients: 10\nyears_span: 2\nbackground_event_rates: {e: '1'}\n",
         "background rate of 'e' must be a real number, not '1'"),
        ("n_patients: 10\nyears_span: 2\n"
         "background_event_rates: {e: 1, f: true}\n",
         "background rate of 'f' must be a real number, not True"),
        # an exponent is a whole number: this is text in YAML 1.1 and 1.2
        ("n_patients: 10\nyears_span: 2\n"
         "background_event_rates: {noise_05: 1e3.5}\n",
         "background rate of 'noise_05' must be a real number, not '1e3.5'"),
        # YAML 1.1 read an exponent without a dot and a sign as text
        ("n_patients: 10\nyears_span: 2\n"
         "background_event_rates: {noise_05: 1e300}\n",
         "background rate of 'noise_05' must be in [0, 4.612e+18] events "
         "per patient-year, not 1e+300"),
        ("n_patients: 10\nyears_span: 2\nbackground_event_rates: {e: 1}\n"
         "drug_models: {d: {prescription_rate: '0.3'}}\n",
         "drug model 'd': prescription_rate must be a real number, "
         "not '0.3'"),
        ("n_patients: 10\nyears_span: 2\nbackground_event_rates: {e: 1}\n"
         "drug_models: {d: {prescription_rate: 0.3, repeat_rate: false}}\n",
         "drug model 'd': repeat_rate must be a real number, not False"),
        ("n_patients: 10\nyears_span: 2\nbackground_event_rates: {e: 1}\n"
         "drug_models: {d: {prescription_rate: 0.3}, "
         "d2: {prescription_rate: 1.5}}\n",
         "drug model 'd2': prescription_rate must be in [0, 1]"),
        (f"{SCENARIO}injections: [{{drug_code: d, event_code: e, "
         "relative_risk: '2'}]\n",
         "relative_risk of 'e' for 'd' must be a real number, not '2'"),
        ("n_patients: 10\nyears_span: 2\nbackground_event_rates: {e: 1}\n"
         "drug_models: {d: {prescription_rate: 0.3, "
         "indication_event: [e, 4.0, 99]}}\n",
         "drug model 'd': indication_event must be [code, multiplier], "
         "not ['e', 4.0, 99]"),
        ("n_patients: 10\nyears_span: 2\nbackground_event_rates: {e: 1}\n"
         "drug_models: {d: {prescription_rate: 0.3, "
         "indication_event: [7, 4.0]}}\n",
         "drug model 'd': indication_event must be [code, multiplier], "
         "not [7, 4.0]"),
        ("n_patients: 10\nyears_span: 2\nbackground_event_rates: {e: 1}\n"
         "drug_models: {d: {prescription_rate: 0.3, "
         "indication_event: [e, '4']}}\n",
         "drug model 'd': indication multiplier of 'e' must be a real "
         "number, not '4'"),
        # a code that is not a string: unhashable, unsortable or renamed
        (f"{SCENARIO}injections: [{{drug_code: [d], event_code: e, "
         "relative_risk: 2}]\n",
         "injection drug_code must be a string, not ['d']"),
        (f"{SCENARIO}injections: [{{drug_code: d, event_code: [e], "
         "relative_risk: 2}]\n",
         "injection event_code must be a string, not ['e']"),
        ("n_patients: 10\nyears_span: 2\n"
         "background_event_rates: {e: 1, 7: 1}\n",
         "background_event_rates codes must be strings, not [7]"),
        ("n_patients: 10\nyears_span: 2\nbackground_event_rates: {e: 1}\n"
         "drug_models: {7: {prescription_rate: 0.3}}\n",
         "drug_models codes must be strings, not [7]"),
    ], ids=["no_years_span", "text_n_patients", "list", "zero_patients",
            "malformed_yaml", "scalar_drug_model", "rate_nan",
            "rate_too_large", "relative_risk_nan", "unknown_key",
            "unread_config_field", "unknown_drug_model_key",
            "unknown_injection_key", "float_n_patients", "float_years_span",
            "float_rng_seed", "bool_rng_seed", "float_latency",
            "quoted_boolean", "text_rate", "bool_rate", "text_exponent_rate",
            "exponent_rate_too_large", "text_prescription_rate",
            "bool_repeat_rate", "prescription_rate_too_large",
            "text_relative_risk", "three_item_indication",
            "number_indication_code", "text_indication_multiplier",
            "list_injection_drug", "list_injection_event",
            "number_background_code", "number_drug_code"])
    def test_bad_scenario_is_one_line_usage_error(self, tmp_path, capsys,
                                                  text, message):
        path = tmp_path / "scenario.yaml"
        path.write_text(text)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--config", str(path), "--output", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(
            f"lodsig: error: {path}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("rate", [
        "1e-3", "1.0e3", "1e-05", "json"])
    def test_exponent_rates_read_as_numbers(self, tmp_path, rate):
        # YAML 1.1 read the first three as text; json.dumps writes 0.00001
        # as 1e-05, and a JSON document is YAML
        path = tmp_path / "scenario.yaml"
        if rate == "json":
            path.write_text(json.dumps({
                "n_patients": 10, "years_span": 2,
                "background_event_rates": {"e": 0.00001},
                "drug_models": {"d": {"prescription_rate": 0.3}}}))
        else:
            path.write_text("n_patients: 10\nyears_span: 2\n"
                            f"background_event_rates: {{e: {rate}}}\n")
        config = _read_yaml(path, synth_config_from_dict)
        assert config.background_event_rates == \
            {"e": 0.00001 if rate == "json" else float(rate)}
        out = tmp_path / "out"
        assert main(["generate", "--config", str(path), "--output",
                     str(out)]) == 0
        assert (out / "events.csv").exists()

    def test_jobs_below_one_is_usage_error(self, demo_data, tmp_path,
                                           capsys, monkeypatch):
        monkeypatch.setattr(lodsig.cli, "_load_db", None)  # never reached
        path = tmp_path / "m.yaml"
        path.write_text(yaml.safe_dump({
            "database_dir": str(demo_data[1]), "drugs": ["drug_x"],
            "algorithms": ["ror05"], "output_dir": str(tmp_path / "res")}))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--manifest", str(path), "--jobs", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert "--jobs must be at least 1" in err[-1]
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("name, line, message", [
        ("events.csv", b"p0000001,\xff,2012-01-01\n", "not UTF-8 text"),
        ("prescriptions.csv",
         b"p0000001,drug_x," + b"9" * 200_000 + b"\n",
         "field larger than field limit"),
    ], ids=["non_utf8", "csv_error"])
    def test_unreadable_csv_is_one_line_data_error(
            self, demo_data, tmp_path, caplog, name, line, message):
        data = tmp_path / "data"
        shutil.copytree(demo_data[1], data)
        bad = data / name
        n_lines = len(bad.read_bytes().splitlines()) + 1
        bad.write_bytes(bad.read_bytes() + line)
        path = tmp_path / "m.yaml"
        path.write_text(yaml.safe_dump({
            "database_dir": str(data), "drugs": ["drug_x"],
            "algorithms": ["ror05"], "output_dir": str(tmp_path / "res")}))
        with caplog.at_level("ERROR"):
            assert main(["run", "--manifest", str(path)]) == 1
        failures = [r.getMessage() for r in caplog.records
                    if r.levelname == "ERROR"]
        assert len(failures) == 1
        assert failures[0].startswith(
            f"run failed: {bad}, line {n_lines}: {message}")
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("shift, message", [
        (-1, "death for patient p0000000 dated before registration"),
        (1, "event for patient p0000000 dated after death"),
    ], ids=["death_before_registration", "record_after_death"])
    def test_impossible_death_date_is_one_line_data_error(
            self, demo_data, tmp_path, caplog, shift, message):
        data = tmp_path / "data"
        shutil.copytree(demo_data[1], data)
        with open(data / "patients.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        # the first patient dies a day before or after registering
        registered = datetime.date.fromisoformat(rows[1][3])
        rows[1][4] = (registered + datetime.timedelta(shift)).isoformat()
        with open(data / "patients.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        path = tmp_path / "m.yaml"
        path.write_text(yaml.safe_dump({
            "database_dir": str(data), "drugs": ["drug_x"],
            "algorithms": ["ror05"], "output_dir": str(tmp_path / "res")}))
        with caplog.at_level("ERROR"):
            assert main(["run", "--manifest", str(path)]) == 1
        failures = [r.getMessage() for r in caplog.records
                    if r.levelname == "ERROR"]
        assert failures == [f"run failed: {message}"]
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("text, message", [
        ("drug_code,event_code,is_reaction_code\nX,A,false\n",
         ": missing columns ['frequency_class']"),
        ("drug_code,event_code,frequency_class,is_reaction_code\n"
         "X,A,often,false\n", ", row 2: unknown frequency_class 'often'"),
    ], ids=["missing_column", "unknown_frequency_class"])
    def test_bad_ground_truth_is_data_error_before_load(
            self, demo_data, tmp_path, caplog, monkeypatch, text, message):
        monkeypatch.setattr(lodsig.cli, "_load_db", None)  # never reached
        truth = tmp_path / "truth.csv"
        truth.write_text(text)
        path = tmp_path / "m.yaml"
        path.write_text(yaml.safe_dump({
            "database_dir": str(demo_data[1]), "drugs": ["drug_x"],
            "algorithms": ["ror05"], "output_dir": str(tmp_path / "res"),
            "ground_truth": str(truth)}))
        with caplog.at_level("ERROR"):
            assert main(["run", "--manifest", str(path)]) == 1
        failures = [r.getMessage() for r in caplog.records
                    if r.levelname == "ERROR"]
        assert failures == [f"run failed: {truth}{message}"]
        assert not (tmp_path / "res").exists()

    def test_seed_override_changes_demo_data(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["run", "--generate-demo", "--output", str(out_a),
              "--seed", "1"])
        main(["run", "--generate-demo", "--output", str(out_b),
              "--seed", "2"])
        a = (out_a / "data" / "events.csv").read_bytes()
        b = (out_b / "data" / "events.csv").read_bytes()
        assert a != b

    def test_synth_config_from_dict_parses_indication(self):
        config = synth_config_from_dict({
            "n_patients": 10, "years_span": 2,
            "background_event_rates": {"e": 0.1},
            "drug_models": {"d": {"prescription_rate": 0.2,
                                  "indication_event": ["e", 3.0],
                                  "repeat_rate": 0.1}},
        })
        assert config.drug_models["d"].indication_event == ("e", 3.0)

    @pytest.mark.parametrize("command, text, message", [
        ("run", "database_dir: d\nalgorithms: [ror05]\noutput_dir: o\n",
         "no 'drugs' key in manifest"),
        ("generate", "years_span: 2\nbackground_event_rates: {e: 1}\n",
         "no 'n_patients' key in scenario"),
        ("generate", "n_patients: 10\nyears_span: 2\n"
         "background_event_rates: {e: 1}\n"
         "drug_models: {d: {repeat_rate: 0.1}}\n",
         "no 'prescription_rate' key in drug model 'd'"),
        ("generate", f"{SCENARIO}injections: [{{drug_code: d, "
         "relative_risk: 2.0}]\n", "no 'event_code' key in injection"),
        ("generate", "n_patients: 10\nyears_span: 2\n"
         "background_event_rates: {e: 1}\ndrug_models: [a, b]\n",
         "scenario drug_models must be a mapping, not ['a', 'b']"),
        ("generate", "n_patients: 10\nyears_span: 2\n"
         "background_event_rates: [e]\n",
         "scenario background_event_rates must be a mapping, not ['e']"),
        ("generate", f"{SCENARIO}injections: {INJECTION}\n",
         "scenario injections must be a list, not {'drug_code': 'd', "
         "'event_code': 'e', 'relative_risk': 2.0}"),
        ("generate", f"{SCENARIO}injections:\n",
         "scenario injections must be a list, not None"),
    ], ids=["manifest_no_drugs", "scenario_no_n_patients",
            "drug_model_no_rate", "injection_no_event_code",
            "drug_models_list", "rates_list", "injections_mapping",
            "injections_null"])
    def test_missing_key_or_container_is_named(self, tmp_path, capsys,
                                               command, text, message):
        # these once reached the user as Python's own TypeError,
        # AttributeError or KeyError text
        path = tmp_path / "input.yaml"
        path.write_text(text)
        out = tmp_path / "out"
        argv = (["run", "--manifest", str(path)] if command == "run" else
                ["generate", "--config", str(path), "--output", str(out)])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == f"lodsig: error: {path}: {message}"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["input.yaml"]

    @pytest.mark.parametrize("argv", [
        ["generate", "--demo", "--output", ""],
        ["run", "--manifest", "m.yaml", "--output", ""],
        ["run", "--generate-demo", "--output", ""],
        ["summarize", ""],
    ], ids=["generate", "run", "run_demo", "summarize"])
    def test_empty_path_is_one_line_usage_error(self, demo_data, tmp_path,
                                                capsys, monkeypatch, argv):
        # Path('') is the current directory: each file would land there
        (tmp_path / "m.yaml").write_text(yaml.safe_dump({
            "database_dir": str(demo_data[1]), "drugs": ["drug_x"],
            "algorithms": ["ror05"], "output_dir": str(tmp_path / "res")}))
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].endswith(": must be a non-empty path")
        assert [p.name for p in tmp_path.iterdir()] == ["m.yaml"]

    def test_all_algorithms_replaces_the_list_and_is_recorded(
            self, demo_data, tmp_path):
        path = tmp_path / "m.yaml"
        path.write_text(yaml.safe_dump({
            "database_dir": str(demo_data[1]), "drugs": ["drug_x"],
            "algorithms": ["ror05"], "output_dir": str(tmp_path / "res")}))
        assert main(["run", "--manifest", str(path), "--all-algorithms"]) == 0
        res = tmp_path / "res"
        assert sorted(p.name for p in res.glob("ranked_*")) == sorted(
            f"ranked_drug_x_{a}.csv" for a in ALGORITHM_IDS)
        resolved = RunManifest.from_file(res / "manifest_resolved.yaml")
        assert resolved.algorithms == list(ALGORITHM_IDS)


# (source, --all-algorithms, --seed, --output); --generate-demo needs --output
FLAG_CASES = [(source, all_algorithms, seed, output)
              for source in ("manifest", "demo")
              for all_algorithms in (False, True)
              for seed in (None, 3)
              for output in (False, True) if output or source == "manifest"]


@pytest.mark.parametrize(
    "source, all_algorithms, seed, output", FLAG_CASES,
    ids=["-".join([case[0]] + [flag for flag, on in zip(
        ("all", "seed", "output"), case[1:]) if on]) for case in FLAG_CASES])
def test_flags_are_recorded_manifest_entries(demo_data, tmp_path,
                                             monkeypatch, source,
                                             all_algorithms, seed, output):
    # a smaller demo database: main reads its drugs and seed, and
    # generate writes it
    monkeypatch.setattr(lodsig.cli, "demo_synth_config", lambda seed=7:
                        dataclasses.replace(demo_synth_config(seed),
                                            n_patients=300))
    used, real_run = [], run
    monkeypatch.setattr(lodsig.cli, "run", lambda manifest, **kw:
                        used.append(manifest) or real_run(manifest, **kw))
    written = {"database_dir": str(demo_data[1]), "drugs": ["drug_x"],
               "algorithms": ["ror05"], "output_dir": str(tmp_path / "res"),
               "seed": 5}
    path = tmp_path / "m.yaml"
    path.write_text(yaml.safe_dump(written))
    out = tmp_path / "out"
    argv = ["run", "--manifest", str(path)] if source == "manifest" \
        else ["run", "--generate-demo"]
    argv += ["--all-algorithms"] * all_algorithms
    argv += ["--seed", str(seed)] if seed is not None else []
    argv += ["--output", str(out)] if output else []
    assert main(argv) == 0

    if source == "demo":
        written = {"database_dir": str(out / "data"),
                   "drugs": ["drug_x", "drug_other"],
                   "algorithms": list(ALGORITHM_IDS),
                   "output_dir": str(out / "results"), "seed": 7,
                   "ground_truth": str(out / "data" / "ground_truth.csv")}
    elif output:
        written["output_dir"] = str(out)
    if all_algorithms:
        written["algorithms"] = list(ALGORITHM_IDS)
    if seed is not None:
        written["seed"] = seed
    assert used == [RunManifest.from_dict(written)]
    resolved = Path(used[0].output_dir) / "manifest_resolved.yaml"
    assert RunManifest.from_file(resolved) == used[0]


def _env_with_src(**extra):
    src = str(Path(lodsig.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_seed_sweep_script_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "seed_sweep.py"), "1", "300"],
        env=_env_with_src(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert [row.split()[0] for row in rows] == list(ALGORITHM_IDS)


def test_import_does_not_load_scipy():
    # run, summarize and the parser need neither; generate imports
    # synthgen and streams when it is called
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, lodsig.cli; "
         "print(sorted({'scipy', 'lodsig.synthgen', 'lodsig.streams'} "
         "& set(sys.modules)))"],
        env=_env_with_src(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"]


# lodsig.__all__ at the commit before the generator names became lazy
PUBLIC_NAMES = [
    "AdrDictionary", "AdrEntry", "Database", "DrugModel", "EvalReport",
    "Gender", "Injection", "Period", "RankedEntry", "RankedSignalList",
    "StudyConfig", "SynthConfig", "build_database", "cohort_summary",
    "compare_algorithms", "evaluate", "evaluation", "generate", "ic",
    "ic_credibility_bounds", "ic_delta_from", "load_database", "map_score",
    "precision_k", "ranking", "realized_truth", "ror", "ror05", "srs",
    "store", "streams", "synthgen", "temporal_ic", "truth_vector"]


def test_public_names_unchanged_and_resolved():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, lodsig; "
         "names = list(lodsig.__all__); "
         "lazy = 'lodsig.synthgen' in sys.modules; "
         "values = {n: getattr(lodsig, n) for n in names}; "
         "print(json.dumps([names, lazy, "
         "{n: getattr(v, '__module__', getattr(v, '__name__', None)) "
         "for n, v in values.items()}]))"],
        env=_env_with_src(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    names, lazy, owners = json.loads(proc.stdout)
    assert names == PUBLIC_NAMES
    assert not lazy
    for name in ("DrugModel", "Injection", "SynthConfig", "build_database",
                 "generate", "realized_truth"):
        assert owners[name] == "lodsig.synthgen"
        assert getattr(lodsig, name) is getattr(lodsig.synthgen, name)
    assert owners["streams"] == "lodsig.streams"
    assert "generate" in dir(lodsig)
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        lodsig.bogus


def test_runs_do_not_load_numpy_ma(tmp_path):
    # numpy's unique imports numpy.ma (about 1.3 MB): a generate and a
    # cached run of every algorithm id reach none, and the run loads
    # neither generator module
    env = _env_with_src(XDG_CACHE_HOME=str(tmp_path / "cache"),
                        LODSIG_LOG="info")
    bare = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy; print('numpy.ma' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    if bare.stdout.strip() != "False":
        pytest.skip("import numpy alone loads numpy.ma")
    manifest = tmp_path / "manifest.yaml"
    manifest.write_text(yaml.safe_dump({
        "database_dir": str(tmp_path / "data"),
        "drugs": ["drug_x", "drug_other"], "algorithms": list(ALGORITHM_IDS),
        "ground_truth": str(tmp_path / "data" / "ground_truth.csv"),
        "output_dir": str(tmp_path / "out")}))
    loaded = ("print(sorted({'numpy.ma', 'lodsig.synthgen', "
              "'lodsig.streams'} & set(sys.modules)))")
    for argv, want in (
            (["generate", "--demo", "--output", str(tmp_path / "data")],
             "['lodsig.streams', 'lodsig.synthgen']"),
            (["run", "--manifest", str(manifest)], "[]")):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import json, sys; from lodsig.cli import main; "
             f"status = main(json.loads(sys.argv[1])); {loaded}; "
             "sys.exit(status)", json.dumps(argv)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [want], argv[0]
    # the run loaded the slot generate wrote
    assert "load cache hit" in proc.stderr
    assert (tmp_path / "out" / "significance_map_all.csv").is_file()


def test_no_output_waits_on_a_finalizer(tmp_path):
    # main freezes the heap at exit, so the final collection finalizes
    # nothing: every file a generate and a run write must be closed
    # before main returns, and an unclosed one warns when collected
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--generate-demo", "--output",
                     str(tmp_path)]) == 0
        assert main(["summarize", str(tmp_path / "results")]) == 0
        registered = atexit._ncallbacks()
        assert main(["summarize", str(tmp_path / "results")]) == 0
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] \
        == []
    # the freeze is registered once per process, however often main runs
    assert atexit._ncallbacks() == registered


def _main_with_log_level(level, output_dir):
    """`lodsig summarize` in a fresh interpreter with LODSIG_LOG set."""
    env = _env_with_src(LODSIG_LOG=level)
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from lodsig.cli import main; sys.exit(main())",
         "summarize", str(output_dir)],
        env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("level", ["debug", "INFO", "warn", "warning",
                                   "Warning", "error"])
def test_log_level_accepted(level, tmp_path):
    # summarize of an empty directory reports its missing input and
    # exits 1, so reaching it shows the log level was accepted
    proc = _main_with_log_level(level, tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("level", ["bogus", "warningg"])
def test_unknown_log_level_is_one_line_usage_error(level, tmp_path):
    proc = _main_with_log_level(level, tmp_path)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert "LODSIG_LOG" in lines[0] and "warning" in lines[0]


METRICS_HEADER = ("algorithm,drug_code,precision_10,precision_50,map_all,"
                  "map_rare,map_reaction_codes,n_candidates,"
                  "n_known_adrs_in_list\n")
METRICS_ROW = "oe1,drug_x,0.5,0.2,0.4,,0.1,12,3\n"


@pytest.mark.parametrize("text, message", [
    (METRICS_HEADER + METRICS_ROW + METRICS_ROW.replace("0.5", "abc"),
     "row 3: bad precision_10 value 'abc'"),
    (METRICS_HEADER + METRICS_ROW.replace(",,", ",x,"),
     "row 2: bad map_rare value 'x'"),
    (METRICS_HEADER.replace("precision_50,", "") + METRICS_ROW,
     "missing columns ['precision_50']"),
    (METRICS_HEADER + METRICS_ROW + METRICS_ROW.replace("oe1", "oe2")
     + METRICS_ROW.replace("0.5", "0.9"),
     "row 4: repeats algorithm 'oe1' and drug 'drug_x' of row 2"),
], ids=["precision", "map", "missing_column", "repeated_row"])
def test_summarize_bad_metric_is_one_line_data_error(text, message,
                                                     tmp_path):
    (tmp_path / "metrics_summary.csv").write_text(text)
    proc = _main_with_log_level("warning", tmp_path)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("ERROR lodsig.cli: summarize failed: ")
    assert str(tmp_path / "metrics_summary.csv") in lines[0]
    assert lines[0].endswith(message)


SUMMARY_FILES = ("table_precision_10.csv", "table_precision_50.csv",
                 "chart_map_all.csv", "chart_map_rare.csv",
                 "chart_map_reaction_codes.csv")


def test_summarize_reads_utf8_bom(tmp_path):
    plain, bom = tmp_path / "plain", tmp_path / "bom"
    for out, prefix in ((plain, ""), (bom, "\ufeff")):
        out.mkdir()
        (out / "metrics_summary.csv").write_text(
            prefix + METRICS_HEADER + METRICS_ROW
            + METRICS_ROW.replace("oe1", "oe2"),
            encoding="utf-8")
        proc = _main_with_log_level("warning", out)
        assert proc.returncode == 0, proc.stderr
    for name in SUMMARY_FILES:
        assert (bom / name).read_bytes() == (plain / name).read_bytes(), name
    assert (bom / "table_precision_10.csv").read_text().splitlines() == [
        "drug,oe1,oe2", "drug_x,0.500,0.500", "Mean (3dp),0.500,0.500"]


def test_summarize_of_seed7_demo_is_pinned(tmp_path):
    # sha256 of the files summarize wrote for this demo before it read
    # metrics_summary.csv through the store's reader
    want = {
        "table_precision_10.csv": "f53b9872c47272a361e7b0c6b9e34aa1"
                                  "33aeb4106a60dbae7ee41f31854ce676",
        "table_precision_50.csv": "06e2e26522d7cf3196e2f06b9e322499"
                                  "f3019f15b4d48a83510137bf25cf5a1f",
        "chart_map_all.csv": "818e430d9bec3f717c5fdece5d55a79f"
                             "1f409184b21a194de981f9afae571adb",
        "chart_map_rare.csv": "0ffbad96675a0977454b7f9742c154fa"
                              "d992bfd9e2cdf5dffed5250ef4ef710a",
        "chart_map_reaction_codes.csv": "0a902be89c890f2dab2540835ad2a9cd"
                                        "6389a12ddb7fc97ed532029629f41756",
    }
    out = tmp_path / "exp"
    assert main(["run", "--generate-demo", "--output", str(out),
                 "--seed", "7"]) == 0
    assert main(["summarize", str(out / "results")]) == 0
    assert {name: hashlib.sha256((out / "results" / name).read_bytes())
            .hexdigest() for name in SUMMARY_FILES} == want


@pytest.mark.parametrize("tail, message", [
    (b"oe1,drug_x,0.5,\xff,0.4,,0.1,12,3\n",
     "line 2: not UTF-8 text (byte b'\\xff')"),
    (b"oe1,drug_x," + b"9" * 200_000 + b"\n",
     "line 2: field larger than field limit (131072)"),
], ids=["non_utf8", "csv_error"])
def test_summarize_unreadable_file_is_one_line_data_error(tail, message,
                                                          tmp_path):
    path = tmp_path / "metrics_summary.csv"
    path.write_bytes(METRICS_HEADER.encode() + tail)
    proc = _main_with_log_level("warning", tmp_path)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert lines == [f"ERROR lodsig.cli: summarize failed: {path}, "
                     f"{message}"], proc.stderr


def test_generate_demo_logs_duplicates_once(tmp_path, caplog):
    with caplog.at_level("WARNING"):
        assert main(["run", "--generate-demo", "--output",
                     str(tmp_path / "exp")]) == 0
    collapsed = [r.getMessage() for r in caplog.records
                 if "duplicate record rows" in r.getMessage()]
    assert len(collapsed) == 1, collapsed


def test_generate_output_is_a_file_fails_before_drawing(tmp_path, caplog,
                                                       monkeypatch):
    # the output directory is made before a patient is drawn
    def drawn(config):
        raise AssertionError("patients drawn for an output that is a file")
    monkeypatch.setattr(synthgen, "generate_tables", drawn)
    output = tmp_path / "res"
    output.write_bytes(b"")
    with caplog.at_level("ERROR"):
        assert main(["generate", "--demo", "--no-cache", "--output",
                     str(output)]) == 1
    assert [r.getMessage().split(":")[0] for r in caplog.records] == \
        ["generate failed"]


def _event_of_a_living_patient_in_9999(text, data):
    with open(data / "patients.csv", newline="") as fh:
        pid = next(row[0] for row in list(csv.reader(fh))[1:] if not row[4])
    return text + f"{pid},noise_00,9999-12-31\n".encode()


def _output_is_a_file(text, data):
    """Leaves events.csv as it is and makes the command's output a file."""
    (data.parent / "res").write_bytes(b"")
    return text


BOUNDARY_ALGORITHMS = ["ror05", "oe1", "mutara60"]


def _each_algorithm(overrides):
    """Manifest keys that give every algorithm the same overrides."""
    return {"overrides": {a: overrides for a in BOUNDARY_ALGORITHMS}}


def _scenario(rates, injections=()):
    """The keys of a one-drug scenario file."""
    return {"n_patients": 10, "years_span": 2,
            "background_event_rates": rates,
            "drug_models": {"drug_x": {"prescription_rate": 0.5}},
            "injections": list(injections)}


# name: (change to the bytes of events.csv, or None; manifest keys that
# replace the defaults, or for a `generate --config m.yaml` command line
# every key of the scenario m.yaml; the command line, which `--output OUT`
# ends, or None for `run --manifest M --no-cache`; exit status)
BOUNDARY_CASES = {
    "empty_file": (lambda text, data: b"", {}, None, 1),
    "header_only": (lambda text, data: text[:text.index(b"\n") + 1], {},
                    None, 0),
    # the last row loses its date's last digits and its newline
    "truncated_last_row": (lambda text, data: text[:-3], {}, None, 1),
    # the first record ends in a lone CR instead of a newline
    "lone_cr": (lambda text, data: text.replace(b"\n", b"\r", 2)
                .replace(b"\r", b"\n", 1), {}, None, 0),
    "dropped_column": (lambda text, data: b"\n".join(
        line.rpartition(b",")[0] for line in text.split(b"\n")), {}, None,
        1),
    # the first record's patient id starts with a NUL
    "nul_byte": (lambda text, data: text.replace(b"\n", b"\n\0", 1), {},
                 None, 1),
    "year_9999": (_event_of_a_living_patient_in_9999, {}, None, 0),
    # as a window, index day + T would wrap in int64 and empty every list
    "T_wraps_int64": (None, _each_algorithm({"T": 9223372036854775000}),
                      None, 2),
    # too large for int64: an OverflowError in score_drug
    "T_beyond_int64": (None, _each_algorithm({"T": 99999999999999999999}),
                       None, 2),
    # the longest windows StudyConfig accepts
    "longest_windows": (None, _each_algorithm(
        {"T": 9999999, "pre_window": 9999999,
         "control_period": [333333, 21]}), None, 0),
    # a path that is not a string; open(0) would read and close stdin
    "ground_truth_fd": (None, {"ground_truth": 0}, None, 2),
    "database_dir_int": (None, {"database_dir": 5}, None, 2),
    "database_dir_null": (None, {"database_dir": None}, None, 2),
    "output_dir_int": (None, {"output_dir": 7}, None, 2),
    "demo_run_negative_seed": (
        None, {}, ["run", "--generate-demo", "--seed", "-1"], 2),
    "demo_generate_negative_seed": (
        None, {}, ["generate", "--demo", "--seed", "-1"], 2),
    # values of the wrong type, each of which used to change a list silently
    "excluded_codes_string": (None, _each_algorithm(
        {"excluded_event_codes": "adr_alpha"}), None, 2),
    "excluded_codes_ints": (None, _each_algorithm(
        {"excluded_event_codes": [1, 2]}), None, 2),
    "include_day0_string": (None, _each_algorithm({"include_day0": "false"}),
                            None, 2),
    "control_period_bool": (None, _each_algorithm(
        {"control_period": [3, True]}), None, 2),
    "control_period_float": (None, _each_algorithm(
        {"control_period": [27.5, 21]}), None, 2),
    # a second source of input must not be dropped in silence; the
    # scenario file is never read
    "demo_run_and_manifest": (
        None, {}, ["run", "--generate-demo", "--manifest", "m.yaml"], 2),
    "demo_generate_and_config": (
        None, {}, ["generate", "--demo", "--config", "m.yaml"], 2),
    # an output path that cannot be a directory once ended in a traceback
    "generate_output_is_a_file": (
        _output_is_a_file, {}, ["generate", "--demo", "--no-cache"], 1),
    "demo_run_output_is_a_file": (
        _output_is_a_file, {}, ["run", "--generate-demo", "--no-cache"], 1),
    # a bad rate once reached numpy, or was injected at full strength
    "scenario_rate_nan": (None, _scenario({"noise_05": math.nan}),
                          ["generate", "--config", "m.yaml"], 2),
    "scenario_rate_too_large": (None, _scenario({"noise_05": 1e300}),
                                ["generate", "--config", "m.yaml"], 2),
    "scenario_relative_risk_nan": (None, _scenario({"noise_05": 0.3}, [{
        "drug_code": "drug_x", "event_code": "noise_05",
        "relative_risk": math.nan}]), ["generate", "--config", "m.yaml"], 2),
}


@pytest.mark.parametrize("change, manifest, command, status",
                         BOUNDARY_CASES.values(), ids=BOUNDARY_CASES)
def test_cli_boundary_ends_in_one_line(demo_data, tmp_path, capsys, caplog,
                                       monkeypatch, change, manifest,
                                       command, status):
    data = tmp_path / "data"
    shutil.copytree(demo_data[1], data)
    if change is not None:
        events = data / "events.csv"
        events.write_bytes(change(events.read_bytes(), data))
    path = tmp_path / "m.yaml"
    path.write_text(yaml.safe_dump(manifest if command and "--config" in
                                   command else {
        "database_dir": str(data), "drugs": ["drug_x"],
        "algorithms": BOUNDARY_ALGORITHMS, "output_dir": str(tmp_path / "res"),
        "seed": 7, "ground_truth": str(data / "ground_truth.csv"),
        **manifest}))
    # a relative path in the manifest would land here
    monkeypatch.chdir(tmp_path)
    argv = ([*command, "--output", str(tmp_path / "res")] if command
            else ["run", "--manifest", str(path), "--no-cache"])
    with caplog.at_level("WARNING"):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse's exit on a usage error
            code = exc.code
    # pytest holds the log records main would print; a usage error prints
    # argparse's usage synopsis, wrapped onto indented lines, before its
    # one line
    lines, synopsis = [], False
    for line in capsys.readouterr().err.splitlines():
        synopsis = line.startswith("usage: ") or synopsis and \
            line.startswith(" ")
        if not synopsis:
            lines.append(line)
    lines += [r.getMessage() for r in caplog.records
              if r.levelname != "WARNING"]
    assert (code, len(lines) <= 1) == (status, True), lines
    if status == 2:     # a usage error writes nothing
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "m.yaml"]
    ranked = sorted(p.name for p in (tmp_path / "res").glob("ranked_*"))
    assert len(ranked) == (3 if status == 0 else 0)
