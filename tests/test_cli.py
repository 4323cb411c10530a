import csv
import dataclasses
import datetime
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import lodsig
from lodsig.cli import (ALGORITHM_IDS, RunManifest, _base_config,
                        demo_synth_config, main, run, score_drug,
                        synth_config_from_dict)
from lodsig.mutara import rank_hunt, rank_mutara
from lodsig.srs import rank_ror
from lodsig.synthgen import DrugModel, generate
from lodsig.temporal_ic import rank_oe

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
        ({"overrides": {"oe1": 60}}, "overrides for oe1 must map keys"),
        ({"overrides": {"oe1": {"TT": 60}}}, "overrides for oe1 must map"),
        ({"overrides": {"oe1": {"drug_code": "y"}}},
         "overrides for oe1 must map"),
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
         "bad overrides for oe1 {'T': 'abc'}: '<=' not supported"),
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
    ], ids=["scalar_drugs", "int_drug", "scalar_algorithms",
            "overrides_list", "override_unknown_id", "override_scalar",
            "override_unknown_key", "override_drug_code", "drug_slash",
            "drug_backslash", "drug_nul", "drug_dot", "drug_dotdot",
            "seed_string", "seed_numeric_string", "seed_bool",
            "seed_float", "repeated_drug", "override_T_zero",
            "override_T_text", "override_control_period",
            "override_excluded_codes_scalar", "override_T_wraps_int64",
            "override_T_beyond_int64", "override_pre_window_too_long",
            "override_control_period_too_long"])
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


def _rank_alone(db, algorithm_id, config):
    """The public per-configuration ranking of one algorithm id."""
    if algorithm_id == "ror05":
        return rank_ror(db, config)
    if algorithm_id.startswith("oe"):
        return rank_oe(db, config, int(algorithm_id[-1]))
    if algorithm_id.startswith("mutara"):
        return rank_mutara(db, config)
    return rank_hunt(db, config)


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
            config = _base_config(ranked.algorithm, "X", seed % 1000,
                                  overrides.get(ranked.algorithm, {}))
            alone = _rank_alone(db, ranked.algorithm, config)
            assert ranked.entries == alone.entries, ranked.algorithm
            assert ranked.filtered == alone.filtered, ranked.algorithm


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
        manifest = demo_manifest(demo_data, tmp_path / "res")
        manifest.ground_truth = None
        assert run(manifest, jobs=1) == 0
        ranked = tmp_path / "res" / "ranked_drug_x_ror05.csv"
        with open(ranked, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["y"] == "0" for r in rows)
        assert not (tmp_path / "res" / "metrics_summary.csv").exists()


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
        assert "overrides for oe1" in err[-1] and "TT" in err[-1]
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
    ], ids=["list", "string_seed", "repeated_drug", "malformed_yaml",
            "override_T_zero", "override_T_text",
            "override_control_period", "override_T_float",
            "override_T_bool", "override_rng_seed_text",
            "override_pre_window_float", "override_T_wraps_int64",
            "override_T_beyond_int64"])
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
         "invalid literal for int() with base 10: 'ten'"),
        ("- n_patients: 10\n- years_span: 2\n",
         "a scenario must be a mapping of keys, not a list"),
        ("n_patients: 0\nyears_span: 2\nbackground_event_rates: {e: 1}\n",
         "n_patients and years_span must be positive"),
        ("n_patients: [10\n", "not valid YAML"),
        ("n_patients: 10\nyears_span: 2\nbackground_event_rates: {e: 1}\n"
         "drug_models: {d: 0.3}\n",
         "'float' object has no attribute 'get'"),
    ], ids=["no_years_span", "text_n_patients", "list", "zero_patients",
            "malformed_yaml", "scalar_drug_model"])
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
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, lodsig.cli; assert 'scipy' not in sys.modules"],
        env=_env_with_src(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


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


def _event_of_a_living_patient_in_9999(text, data):
    with open(data / "patients.csv", newline="") as fh:
        pid = next(row[0] for row in list(csv.reader(fh))[1:] if not row[4])
    return text + f"{pid},noise_00,9999-12-31\n".encode()


# name: (change to the bytes of events.csv, or None; overrides of each
# algorithm; exit status)
BOUNDARY_CASES = {
    "empty_file": (lambda text, data: b"", {}, 1),
    "header_only": (lambda text, data: text[:text.index(b"\n") + 1], {}, 0),
    # the last row loses its date's last digits and its newline
    "truncated_last_row": (lambda text, data: text[:-3], {}, 1),
    # the first record ends in a lone CR instead of a newline
    "lone_cr": (lambda text, data: text.replace(b"\n", b"\r", 2)
                .replace(b"\r", b"\n", 1), {}, 0),
    "dropped_column": (lambda text, data: b"\n".join(
        line.rpartition(b",")[0] for line in text.split(b"\n")), {}, 1),
    # the first record's patient id starts with a NUL
    "nul_byte": (lambda text, data: text.replace(b"\n", b"\n\0", 1), {}, 1),
    "year_9999": (_event_of_a_living_patient_in_9999, {}, 0),
    # as a window, index day + T would wrap in int64 and empty every list
    "T_wraps_int64": (None, {"T": 9223372036854775000}, 2),
    # too large for int64: an OverflowError in score_drug
    "T_beyond_int64": (None, {"T": 99999999999999999999}, 2),
    # the longest windows StudyConfig accepts
    "longest_windows": (None, {"T": 9999999, "pre_window": 9999999,
                               "control_period": [333333, 21]}, 0),
}


@pytest.mark.parametrize("change, overrides, status",
                         BOUNDARY_CASES.values(), ids=BOUNDARY_CASES)
def test_cli_boundary_ends_in_one_line(demo_data, tmp_path, capsys, caplog,
                                       change, overrides, status):
    data = tmp_path / "data"
    shutil.copytree(demo_data[1], data)
    if change is not None:
        events = data / "events.csv"
        events.write_bytes(change(events.read_bytes(), data))
    algorithms = ["ror05", "oe1", "mutara60"]
    path = tmp_path / "m.yaml"
    path.write_text(yaml.safe_dump({
        "database_dir": str(data), "drugs": ["drug_x"],
        "algorithms": algorithms, "output_dir": str(tmp_path / "res"),
        "seed": 7, "ground_truth": str(data / "ground_truth.csv"),
        "overrides": {a: overrides for a in algorithms if overrides}}))
    with caplog.at_level("WARNING"):
        try:
            code = main(["run", "--manifest", str(path), "--no-cache"])
        except SystemExit as exc:   # argparse's exit on a usage error
            code = exc.code
    # pytest holds the log records main would print; a usage error prints
    # argparse's usage synopsis before its one line
    lines = [line for line in capsys.readouterr().err.splitlines()
             if not line.startswith("usage: ")]
    lines += [r.getMessage() for r in caplog.records
              if r.levelname != "WARNING"]
    assert (code, len(lines) <= 1) == (status, True), lines
    ranked = sorted(p.name for p in (tmp_path / "res").glob("ranked_*"))
    assert len(ranked) == (3 if status == 0 else 0)
