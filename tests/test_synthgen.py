import math
import re
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodsig import synthgen
from lodsig.store import load_database
from lodsig.streams import _SCALAR_RUNS, _Streams
from lodsig.synthgen import (DrugModel, Injection, SynthConfig, VISIT_CODE,
                             _bernoulli_prob, _pcg64_states, build_database,
                             generate, generate_tables, realized_truth)

from conftest import table_rows
from oracles import brute_write_tables, patient_index


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

    def test_years_span_past_the_last_date(self):
        # the samplers' day ranges also stay below 2**32 this way
        with pytest.raises(ValueError, match="years_span must be at most "
                           "7995, not 7996"):
            SynthConfig(n_patients=5, years_span=7996,
                        background_event_rates={"rash": 0.5})

    def test_patients_past_int32(self):
        # the largest count passes; building a config allocates nothing
        SynthConfig(n_patients=2 ** 31 - 1, years_span=4,
                    background_event_rates={"rash": 0.5})
        with pytest.raises(ValueError, match=re.escape(
                "n_patients must be below 2**31")):
            SynthConfig(n_patients=2 ** 31, years_span=4,
                        background_event_rates={"rash": 0.5})

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


# Generator call sequences, each made for every patient: ("random",),
# ("integers", low, high[, sizes]) and ("poisson", scales, rates), where
# a patient i takes sizes[i % len(sizes)] values and a count at each rate
# times scales[i % len(scales)]
SAMPLER_CASES = {
    "random": [("random",)] * 3,
    # a range of one value returns low and draws nothing
    "integers_0_1": [("integers", 0, 1), ("random",), ("integers", 0, 1),
                     ("integers", 5, 9)],
    # both halves of one raw, with a random() between them that neither
    # reads nor clears the held half
    "halves_of_one_raw": [("integers", 0, 100), ("random",),
                          ("integers", 0, 100), ("integers", 0, 100)],
    # Lemire's method rejects about half the draws of this range, so
    # most rows draw their sized values one at a time
    "lemire_rejects": [("integers", 0, 2 ** 31 + 1)] * 6 + [
        ("integers", 0, 2 ** 31 + 1, (0, 1, 3, 4)), ("integers", 0, 9),
        ("random",)],
    # odd and even sizes after a held half, then what the sizes hold
    "sizes_after_held_half": [
        ("integers", 0, 7), ("integers", 733_000, 734_500, (0, 1, 2, 3, 5, 8)),
        ("integers", 0, 7), ("integers", 10, 70, (4, 3)), ("integers", 0, 7)],
    # values past the first of a row that Lemire rejects: the row reads
    # on from the rejected value's half in a further pass
    "lemire_rejects_sized": [
        ("integers", 0, 7),
        ("integers", 0, 2 ** 31 + 1, (300, 301, 0, 45)), ("random",),
        ("integers", 0, 2 ** 31 + 1, (3, 2)), ("integers", 0, 7)],
    # a mean of 0 draws nothing, below 10 the multiplication method, from
    # 10 PTRS; the held half outlives the draws
    "poisson": [("integers", 0, 9),
                ("poisson", (0.0, 0.08, 1.3, 9.99, 10.0, 40.0), (1.0,) * 25),
                ("integers", 0, 9), ("poisson", (40.0, 0.08), (1.0,)),
                ("random",)],
    # calls of one run of equal rates, each drawn at a scalar mean a row:
    # means all below 10, a call of one rate (a drug's indication draw),
    # and means of 10 or more, whose rows start again
    "poisson_run": [("integers", 0, 9),
                    ("poisson", (0.08, 1.3, 9.99, 0.001), (1.0,) * 25),
                    ("random",), ("poisson", (12.0, 0.5), (1.0,) * 6),
                    ("poisson", (0.08, 1.3, 9.99, 0.001), (1.0,)),
                    ("poisson", (10.0, 0.5), (1.0,) * 6),
                    ("random",)],
    # means that change from count to count, in calls of more than
    # _SCALAR_RUNS runs of equal rates, each row drawn at its array of
    # means: alternating small means, a mean of 0 among them, runs of PTRS
    # counts, counts above 0 far from the one before, and runs between
    # shorter stretches
    "poisson_per_count": [
        ("poisson", (1.0, 0.5, 2.0, 0.001),
         (0.02, 0.03) * 10 + (0.5, 0.0, 12.0, 0.01) * 5
         + (11.0, 35.0, 10.0, 0.3) * 5 + (9.99, 10.0) * 5 + (0.001,) * 9
         + (3.0,)),
        ("random",), ("poisson", (1.0,), (0.02, 0.03) * 150),
        ("random",),
        ("poisson", (1.0, 4.0),
         (0.02,) * 6 + (0.3, 0.02) * 3 + (0.3,) * 9 + (12.0,) * 3
         + (0.02,) * 5),
        ("random",)],
}
SAMPLER_PATIENTS = 40


def sampler_call(streams, call):
    """One Generator call for every patient of a _Streams."""
    rows = np.arange(SAMPLER_PATIENTS)
    name, *args = call
    if name == "random":
        return streams.random(rows).tolist()
    if name == "poisson":
        scales, rates = np.array(args[0]), np.array(args[1])
        return streams.poisson(rows, scales[rows % len(scales)],
                               rates).tolist()
    low, high, *sizes = args
    if not sizes:
        return (low + streams.integers(rows, high - low - 1)).tolist()
    sizes = np.resize(np.array(sizes[0]), SAMPLER_PATIENTS)
    values = (low + streams.integers_each(
        rows, sizes, np.full(SAMPLER_PATIENTS, high - low - 1))).tolist()
    return [values[a:b] for a, b in zip(np.cumsum(sizes) - sizes,
                                        np.cumsum(sizes))]


def numpy_call(rng, i, call):
    """The same call on patient i's Generator."""
    name, *args = call
    if name == "random":
        return rng.random()
    if name == "poisson":
        scale = args[0][i % len(args[0])]
        return rng.poisson([scale * rate for rate in args[1]]).tolist()
    low, high, *sizes = args
    if not sizes:
        return int(rng.integers(low, high))
    return rng.integers(low, high, size=sizes[0][i % len(sizes[0])]).tolist()


def assert_draws_what_default_rng_draws(case, seed):
    streams = _Streams(_pcg64_states(seed, SAMPLER_PATIENTS), 1024)
    rngs = [np.random.default_rng([seed, i]) for i in range(SAMPLER_PATIENTS)]
    for call in SAMPLER_CASES[case]:
        assert sampler_call(streams, call) == \
            [numpy_call(rng, i, call) for i, rng in enumerate(rngs)], call
    assert not streams.overflowed()


class TestBlockSampler:
    """_Streams makes, for a block of patients at once, the draws each
    patient's `default_rng([seed, index])` makes, call for call.  It ports
    numpy's samplers (numpy/random/src/distributions) to PCG64's raw
    outputs, and draws every Poisson count with numpy's Generator from a
    PCG64 it moves to each patient's position: a numpy release that
    changes a sampler or PCG64's advance fails here first."""

    @pytest.mark.parametrize("case", SAMPLER_CASES)
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 128))
    def test_draws_what_default_rng_draws(self, case, seed):
        assert_draws_what_default_rng_draws(case, seed)

    def test_scalar_means_for_few_runs(self, monkeypatch):
        # a call of at most _SCALAR_RUNS runs of equal rates makes one
        # Generator call a run and row, at the float mean of the row's own
        # scale times the rate; a call of more runs makes one a row, at
        # the row's array of means.  Equal rates apart are runs apart
        calls = []

        class Generator(np.random.Generator):
            def poisson(self, lam=1.0, size=None):
                calls.append((lam, size))
                return super().poisson(lam, size)
        monkeypatch.setattr(np.random, "Generator", Generator)

        streams = _Streams(_pcg64_states(3, SAMPLER_PATIENTS), 1024)
        rngs = [np.random.default_rng([3, i])
                for i in range(SAMPLER_PATIENTS)]
        rows = np.arange(SAMPLER_PATIENTS)
        # a scale a row, from 0.5 to 10.25: means from 0 to 12.3
        scale = 0.5 + 0.25 * rows
        # rates and their runs as (first, length), None for too many runs
        for rates, runs in [
                ((0.5, 0.5, 1.2, 0.0, 0.0, 0.0, 0.3),
                 [(0, 2), (2, 1), (3, 3), (6, 1)]),
                ((0.3, 0.08, 0.3), [(0, 1), (1, 1), (2, 1)]),
                ((0.5, 1.2, 0.5, 1.2, 0.3), None)]:
            rates = np.array(rates)
            calls.clear()
            counts = streams.poisson(rows, scale, rates)
            assert counts.tolist() == \
                [rng.poisson(s * rates).tolist()
                 for rng, s in zip(rngs, scale)]
            if runs is not None:
                assert len(runs) <= _SCALAR_RUNS
                assert all(type(lam) is float for lam, _ in calls)
                assert calls == [(s * rates[a], n) for s in scale
                                 for a, n in runs]
            else:
                assert [(lam.tolist(), size) for lam, size in calls] == \
                    [((s * rates).tolist(), None) for s in scale]
            assert streams.random(rows).tolist() == \
                [rng.random() for rng in rngs]
        assert not streams.overflowed()

    def test_lost_position_returns_other_counts(self, monkeypatch):
        # the mutation "drop advance": each row's Generator draws from its
        # stream's first raw, not past the 3 raws the row has read; the
        # call still returns at once, with counts that are not numpy's
        def advance(self, delta):
            return self

        streams = _Streams(_pcg64_states(5, SAMPLER_PATIENTS), 1024)
        rngs = [np.random.default_rng([5, i])
                for i in range(SAMPLER_PATIENTS)]
        rows = np.arange(SAMPLER_PATIENTS)
        for _ in range(3):
            streams.random(rows)
            for rng in rngs:
                rng.random()
        # named PCG64, as the state setter asks
        monkeypatch.setattr(np.random, "PCG64", type(
            "PCG64", (np.random.PCG64,), {"advance": advance}))

        def hung(signum, frame):
            raise TimeoutError("the Poisson call did not return")
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(10)
        try:
            counts = streams.poisson(rows, np.ones(SAMPLER_PATIENTS),
                                     np.array([40.0, 0.5, 12.0]))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert counts.tolist() != \
            [rng.poisson([40.0, 0.5, 12.0]).tolist() for rng in rngs]

    def test_reads_past_a_row_overflow(self):
        streams = _Streams(_pcg64_states(7, SAMPLER_PATIENTS), 8)
        rngs = [np.random.default_rng([7, i])
                for i in range(SAMPLER_PATIENTS)]
        for _ in range(8):
            assert sampler_call(streams, ("random",)) == \
                [rng.random() for rng in rngs]
        assert not streams.overflowed()
        streams.random(np.arange(1))
        assert streams.overflowed()

    def test_restart_keeps_an_overflow(self):
        # a row past its raws before a Poisson call at a mean of 10 or more
        # is not started again there, so the block is still drawn again
        # with wider rows; the other rows start again and draw what
        # default_rng draws, in the block's own copy of the states
        states = _pcg64_states(7, SAMPLER_PATIENTS)
        streams = _Streams(states, 8)
        rngs = [np.random.default_rng([7, i])
                for i in range(SAMPLER_PATIENTS)]
        rows = np.arange(SAMPLER_PATIENTS)
        for _ in range(9):
            streams.random(rows[:1])
        assert streams.overflowed()
        counts = streams.poisson(rows, np.ones(SAMPLER_PATIENTS),
                                 np.array([12.0]))
        assert streams.overflowed()
        assert counts[1:, 0].tolist() == \
            [rng.poisson(12.0) for rng in rngs[1:]]
        assert streams.random(rows[1:]).tolist() == \
            [rng.random() for rng in rngs[1:]]
        assert states == _pcg64_states(7, SAMPLER_PATIENTS)


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
            i = patient_index(db, pid)
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
