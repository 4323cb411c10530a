import math
import re

import numpy as np
import pytest

from lodsig import synthgen
from lodsig.store import load_database
from lodsig.synthgen import (DrugModel, Injection, SynthConfig, VISIT_CODE,
                             _bernoulli_prob, _pcg64_states, build_database,
                             generate, generate_tables, realized_truth)

from conftest import table_rows
from oracles import brute_write_tables


def small_config(seed=0, injections=(), n_patients=300):
    return SynthConfig(
        n_patients=n_patients,
        years_span=4,
        background_event_rates={"headache": 0.8, "nausea": 0.3,
                                "rash": 0.05},
        drug_models={"drug_x": DrugModel(prescription_rate=0.4,
                                         repeat_rate=0.5),
                     "drug_b": DrugModel(prescription_rate=0.3)},
        injections=list(injections),
        rng_seed=seed,
    )


class TestConfigValidation:

    def test_injection_requires_drug_model(self):
        with pytest.raises(ValueError, match="drug model"):
            small_config(injections=[Injection("nope", "rash", 5.0)])

    def test_injection_requires_background_rate_entry(self):
        with pytest.raises(ValueError, match="background"):
            small_config(injections=[Injection("drug_x", "nope", 5.0)])

    def test_bad_injection_kind(self):
        with pytest.raises(ValueError):
            Injection("drug_x", "rash", 5.0, kind="mystery")

    def test_relative_risk_below_one(self):
        with pytest.raises(ValueError):
            Injection("drug_x", "rash", 0.5)

    def test_relative_risk_nan(self):
        with pytest.raises(ValueError, match="'rash' for 'drug_x' must be "
                           "at least 1, not nan"):
            Injection("drug_x", "rash", math.nan)

    @pytest.mark.parametrize("rate", [-0.1, math.nan, math.inf, 1e300])
    def test_bad_background_rate(self, rate):
        with pytest.raises(ValueError, match=re.escape(
                "background rate of 'rash' must be in [0, 2.306e+18] events "
                f"per patient-year, not {rate}")):
            SynthConfig(n_patients=5, years_span=4,
                        background_event_rates={"rash": rate},
                        drug_models={})

    @pytest.mark.parametrize("mult", [math.nan, math.inf, 1e300])
    def test_bad_indication_multiplier(self, mult):
        with pytest.raises(ValueError, match="indication multiplier of "
                           "'rash' for 'drug_x' must be finite"):
            SynthConfig(n_patients=5, years_span=4,
                        background_event_rates={"rash": 0.5},
                        drug_models={"drug_x": DrugModel(0.5, ("rash", mult))})


# 2**100 is four 32-bit words: with the patient index, the entropy is longer
# than SeedSequence's 4-word pool and takes its extra mixing loop
@pytest.mark.parametrize("seed", [0, 1, 404, 2 ** 32 - 1, 2 ** 32, 2 ** 64,
                                  2 ** 100, 2 ** 200],
                         ids=["0", "1", "404", "2**32-1", "2**32", "2**64",
                              "2**100", "2**200"])
def test_pcg64_states_are_default_rng_streams(seed):
    """The one-pass port of SeedSequence and PCG64 seeding gives the state
    numpy's own `default_rng([seed, index])` starts from; a numpy release
    that changes either fails here first."""
    want = []
    for i in range(1000):
        state = np.random.default_rng([seed, i]).bit_generator.state
        assert state["bit_generator"] == "PCG64"
        want.append((state["state"]["state"], state["state"]["inc"]))
    assert _pcg64_states(seed, 1000) == want


class TestBernoulliProb:

    def test_finite_risk(self):
        assert _bernoulli_prob(5.0, 0.1, 30) == \
            pytest.approx(4 * 0.1 * 30 / 365)

    def test_infinite_risk_capped(self):
        assert _bernoulli_prob(math.inf, 0.0, 30) == 0.95

    def test_cap_applies(self):
        assert _bernoulli_prob(1e9, 1.0, 30) == 0.95


class TestGenerateTables:

    def test_deterministic_per_seed(self):
        a = generate_tables(small_config(seed=3))
        b = generate_tables(small_config(seed=3))
        assert a.patient_rows == b.patient_rows
        assert table_rows(a.rx) == table_rows(b.rx)
        assert table_rows(a.ev) == table_rows(b.ev)

    def test_seed_changes_output(self):
        a = generate_tables(small_config(seed=3))
        b = generate_tables(small_config(seed=4))
        assert table_rows(a.ev) != table_rows(b.ev)

    def test_visit_markers_pin_last_active(self):
        db, result = build_database(small_config(seed=1))
        for pid, _, _, reg, death in result.patient_rows:
            i = db.patient_index(pid)
            assert db.registration[i] == reg
            assert db.last_active[i] >= reg + 540 or death is not None

    def test_records_stay_in_active_span(self):
        result = generate_tables(small_config(seed=2))
        spans = {pid: (reg, None) for pid, _, _, reg, _ in
                 result.patient_rows}
        ends = {}
        for pid, code, day in table_rows(result.ev):
            if code == VISIT_CODE:
                ends[pid] = max(day, ends.get(pid, 0))
        for pid, drug, day in table_rows(result.rx):
            reg, _ = spans[pid]
            assert reg <= day <= ends[pid]

    def test_injection_rows_counted(self):
        inj = Injection("drug_x", "rash", relative_risk=40.0)
        _, result = build_database(small_config(seed=5, injections=[inj]))
        assert result.injected_counts[("drug_x", "rash")] > 0


class TestRealizedTruth:

    def test_strong_injection_lands_in_dictionary(self):
        inj = Injection("drug_x", "rash", relative_risk=60.0,
                        is_reaction_code=True)
        config = small_config(seed=7, injections=[inj])
        db, _ = build_database(config)
        truth = realized_truth(db, config)
        assert ("drug_x", "rash") in truth.entries
        assert truth.entries[("drug_x", "rash")].is_reaction_code

    def test_unrealized_injection_dropped_with_warning(self, caplog):
        # relative risk 1 adds nothing beyond a tiny background rate, so
        # with a rate of 0 the event never occurs at all
        config = SynthConfig(
            n_patients=20, years_span=4,
            background_event_rates={"headache": 0.8, "never_event": 0.0},
            drug_models={"drug_x": DrugModel(prescription_rate=0.4)},
            injections=[Injection("drug_x", "never_event", 5.0)],
            rng_seed=7)
        db, _ = build_database(config)
        with caplog.at_level("WARNING"):
            truth = realized_truth(db, config)
        assert ("drug_x", "never_event") not in truth.entries
        assert "no realized occurrences" in caplog.text

    def test_frequency_classes_follow_incidence_terciles(self):
        rates = {f"ev{i}": 0.1 for i in range(6)}
        rates["other"] = 1.0
        injections = [Injection("drug_x", f"ev{i}", 10.0 + 30 * i)
                      for i in range(6)]
        config = SynthConfig(
            n_patients=2000, years_span=4,
            background_event_rates=rates,
            drug_models={"drug_x": DrugModel(prescription_rate=0.5)},
            injections=injections, rng_seed=13)
        db, _ = build_database(config)
        truth = realized_truth(db, config)
        classes = [truth.entries[("drug_x", f"ev{i}")].frequency_class
                   for i in range(6)]
        assert classes == ["rare", "rare", "less_frequent", "less_frequent",
                           "frequent", "frequent"]


class TestGenerateFiles:

    def test_round_trip_through_loader(self, tmp_path):
        inj = Injection("drug_x", "rash", relative_risk=40.0)
        config = small_config(seed=9, injections=[inj])
        paths = generate(config, tmp_path)
        db = load_database(paths["prescriptions"], paths["events"],
                           paths["patients"], cache=False)
        assert db.n_patients == config.n_patients
        assert len(db.episodes("drug_x")[0])

    def test_output_files_byte_identical_across_runs(self, tmp_path):
        config = small_config(seed=10)
        p1 = generate(config, tmp_path / "a")
        p2 = generate(config, tmp_path / "b")
        for key in p1:
            assert p1[key].read_bytes() == p2[key].read_bytes()

    def test_chunked_write_matches_per_row_writer(self, tmp_path,
                                                  monkeypatch):
        # a chunk of 7 rows puts many chunk ends inside each record file
        monkeypatch.setattr(synthgen, "_WRITE_ROWS", 7)
        config = small_config(seed=11, n_patients=40)
        result = generate_tables(config)
        assert min(len(result.rx[1]), len(result.ev[1])) > 2 * 7
        want = tmp_path / "want"
        want.mkdir()
        brute_write_tables(result.patient_rows, table_rows(result.rx),
                           table_rows(result.ev), want)
        paths = generate(config, tmp_path / "got", cache=False)
        for name in ("patients", "prescriptions", "events"):
            assert paths[name].read_bytes() == \
                (want / paths[name].name).read_bytes(), name
