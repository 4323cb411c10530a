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
from hypothesis import given, settings
from hypothesis import strategies as st

from lodsig.store import Database
from lodsig.synthgen import (INJECTION_KINDS, VISIT_CODE, DrugModel,
                             Injection, SynthConfig, build_database, generate,
                             generate_tables, realized_truth)

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


@settings(max_examples=120, deadline=None)
@given(synth_configs())
def test_generator_matches_per_row_oracle(config):
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
