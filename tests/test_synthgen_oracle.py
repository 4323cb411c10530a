"""The column-native generator against the per-row generator it replaced.

`oracles.brute_generate_tables` and `oracles.brute_write_tables` are the
tuple-per-record generator and the `sorted(tuples)` CSV writer as they
were; on every small configuration the generator must draw the same
records, count the same injections, build the same database and write
the same bytes.
"""

import math
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodsig import synthgen
from lodsig.store import Database
from lodsig.synthgen import (INJECTION_KINDS, VISIT_CODE, DrugModel,
                             Injection, SynthConfig, build_database,
                             generate, generate_tables, realized_truth)

from conftest import table_rows
from oracles import (brute_from_records, brute_generate_tables,
                     brute_write_tables)

# a comma and a quote must be quoted in a CSV field, a leading space is
# written as it is; the visit marker's code may also be a background code
EVENT_CODES = ["headache", "a,b", 'say "x"', " lead", VISIT_CODE]
DRUG_CODES = ["drug_x", "d,2", ' d"3']


@st.composite
def synth_configs(draw):
    codes = draw(st.lists(st.sampled_from(EVENT_CODES), min_size=1,
                          max_size=4, unique=True))
    rates = {c: draw(st.sampled_from([0.0, 0.1, 0.8, 3.0])) for c in codes}
    drugs = draw(st.lists(st.sampled_from(DRUG_CODES), min_size=1,
                          max_size=2, unique=True))
    models = {}
    for drug in drugs:
        # "no_rate" is an indication code without a background rate
        indication = draw(st.none() | st.tuples(
            st.sampled_from([*codes, "no_rate"]),
            st.sampled_from([1.0, 5.0, 40.0])))
        models[drug] = DrugModel(draw(st.sampled_from([0.0, 0.5, 1.0])),
                                 indication,
                                 draw(st.sampled_from([0.0, 0.5, 0.9])))
    injections = [
        Injection(draw(st.sampled_from(drugs)), draw(st.sampled_from(codes)),
                  draw(st.sampled_from([1.0, 8.0, 200.0, math.inf])),
                  draw(st.integers(1, 30)), kind)
        for kind in draw(st.lists(st.sampled_from(INJECTION_KINDS),
                                  max_size=4))]
    return SynthConfig(
        n_patients=draw(st.integers(1, 30)),
        years_span=draw(st.integers(1, 4)),
        background_event_rates=rates,
        drug_models=models,
        injections=injections,
        rng_seed=draw(st.integers(0, 2 ** 32 - 1)),
        dropout_prob=draw(st.sampled_from([0.0, 0.3, 1.0])),
        death_prob=draw(st.sampled_from([0.0, 0.3, 1.0])))


def assert_same_database(got: Database, want: Database):
    def arrays(db):
        return {k: v for k, v in vars(db).items()
                if isinstance(v, np.ndarray)}
    got_arrays, want_arrays = arrays(got), arrays(want)
    assert sorted(got_arrays) == sorted(want_arrays)
    for name, value in want_arrays.items():
        assert got_arrays[name].dtype == value.dtype, name
        assert np.array_equal(got_arrays[name], value), name
    assert got.patient_ids == want.patient_ids
    assert got.drug_codes == want.drug_codes
    assert got.event_codes == want.event_codes
    assert got.duplicates_dropped == want.duplicates_dropped


def assert_matches_oracle(config):
    patient_rows, rx_rows, ev_rows, injected = brute_generate_tables(config)

    result = generate_tables(config)
    assert result.patient_rows == patient_rows
    assert Counter(table_rows(result.rx)) == Counter(rx_rows)
    assert Counter(table_rows(result.ev)) == Counter(ev_rows)
    assert result.injected_counts == injected

    db, _ = build_database(config)
    want_db = brute_from_records(patient_rows, rx_rows, ev_rows)
    assert_same_database(db, want_db)

    with tempfile.TemporaryDirectory() as directory:
        want, got = Path(directory, "want"), Path(directory, "got")
        want.mkdir()
        brute_write_tables(patient_rows, rx_rows, ev_rows, want)
        realized_truth(want_db, config).to_csv(want / "ground_truth.csv")
        paths = generate(config, got)
        assert sorted(p.name for p in paths.values()) == \
            sorted(p.name for p in want.iterdir())
        for path in paths.values():
            assert path.read_bytes() == (want / path.name).read_bytes(), \
                path.name


@settings(max_examples=120, deadline=None)
@given(synth_configs())
def test_generator_matches_per_row_oracle(config):
    assert_matches_oracle(config)


def _config(rates, seed=404, indication=None):
    drugs = {"drug_x": DrugModel(0.6, indication, 0.5),
             "d,2": DrugModel(0.4)}
    code = max(rates, key=rates.get)
    injections = [Injection("drug_x", code, 8.0, 20, kind)
                  for kind in INJECTION_KINDS]
    return SynthConfig(n_patients=40, years_span=4,
                       background_event_rates=rates, drug_models=drugs,
                       injections=injections, rng_seed=seed,
                       dropout_prob=0.3, death_prob=0.3)


# configurations the strategy above never draws, one for each path of the
# one-pass seeding and the Poisson draws
OFF_STRATEGY = {
    # 13 runs of equal rates, one code each
    "array_path": _config({f"c{k:02d}": (0.1, 0.8)[k % 2]
                           for k in range(13)}),
    "one_run": _config({c: 0.8 for c in EVENT_CODES}),
    # Poisson means of 10 and more take numpy's PTRS sampler, for the
    # background counts and the indication events alike
    "large_means": _config({"headache": 30.0, "a,b": 4.0, " lead": 0.0},
                           indication=("headache", 40.0)),
    "seed_two_words": _config({"headache": 0.8, "a,b": 3.0}, seed=2 ** 32),
    # four seed words and the index overflow SeedSequence's 4-word pool
    "seed_past_pool": _config({"headache": 0.8, "a,b": 3.0},
                              seed=2 ** 100 + 7),
    # no drug models: no prescription, indication or injected draws
    "no_drugs": SynthConfig(n_patients=40, years_span=4,
                            background_event_rates={"headache": 0.8,
                                                    "a,b": 3.0},
                            rng_seed=404, dropout_prob=0.3, death_prob=0.3),
}


@pytest.mark.parametrize("config", OFF_STRATEGY.values(), ids=OFF_STRATEGY)
def test_generator_matches_oracle_off_the_strategy(config):
    assert_matches_oracle(config)


# the strategy's few patients fit in one block, and its rows in the first
# raw buffer: (configuration, raws a patient's first row holds, raws a
# block holds)
BLOCK_CASES = {
    # blocks of 3 patients: the 40 patients make 14 blocks
    "three_patient_blocks": (OFF_STRATEGY["large_means"], 1024, 3 * 1024),
    # rows of 2 raws, which every patient outgrows before the background
    # counts: the block is drawn again with rows twice as wide until they
    # hold every patient's draws
    "rows_outgrown": (OFF_STRATEGY["one_run"], 2, 2 ** 17),
    # the same for counts numpy's Generator draws a row at a time, which
    # move each row on past its raws
    "rows_outgrown_each": (OFF_STRATEGY["large_means"], 2, 2 ** 17),
}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_generator_matches_oracle_across_blocks(case, monkeypatch):
    config, width, block_raws = BLOCK_CASES[case]
    monkeypatch.setattr(synthgen, "_first_width", lambda *_: width)
    monkeypatch.setattr(synthgen, "_BLOCK_RAWS", block_raws)
    blocks = []   # (patients, raws a row) of each block drawn

    class Streams(synthgen._Streams):
        def __init__(self, states, row_raws):
            blocks.append((len(states), row_raws))
            super().__init__(states, row_raws)
    monkeypatch.setattr(synthgen, "_Streams", Streams)
    generate_tables(config)
    if case == "three_patient_blocks":
        assert blocks == [(3, width)] * 13 + [(1, width)]
    else:
        assert blocks[0] == (config.n_patients, width) and len(blocks) > 2
    assert_matches_oracle(config)
