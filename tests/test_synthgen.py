import math

import pytest

from lodsig.store import StudyConfig, extract_exposures, load_database
from lodsig.synthgen import (DrugModel, Injection, SynthConfig, VISIT_CODE,
                             _bernoulli_prob, build_database, generate,
                             generate_tables, realized_truth)


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
        assert a.rx_rows == b.rx_rows
        assert a.ev_rows == b.ev_rows

    def test_seed_changes_output(self):
        a = generate_tables(small_config(seed=3))
        b = generate_tables(small_config(seed=4))
        assert a.ev_rows != b.ev_rows

    def test_visit_markers_pin_last_active(self):
        db, result = build_database(small_config(seed=1))
        for pid, _, _, reg, death in result.patient_rows:
            p = db.patient(pid)
            assert p.registration == reg
            assert p.last_active >= reg + 540 or death is not None

    def test_records_stay_in_active_span(self):
        result = generate_tables(small_config(seed=2))
        spans = {pid: (reg, None) for pid, _, _, reg, _ in
                 result.patient_rows}
        ends = {}
        for pid, code, day in result.ev_rows:
            if code == VISIT_CODE:
                ends[pid] = max(day, ends.get(pid, 0))
        for pid, drug, day in result.rx_rows:
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
        exposures = extract_exposures(db, StudyConfig(drug_code="drug_x"))
        assert exposures

    def test_output_files_byte_identical_across_runs(self, tmp_path):
        config = small_config(seed=10)
        p1 = generate(config, tmp_path / "a")
        p2 = generate(config, tmp_path / "b")
        for key in p1:
            assert p1[key].read_bytes() == p2[key].read_bytes()
