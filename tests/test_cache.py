"""The load cache: served only for the exact bytes and rules it was built
from, never pickled, never the cause of a failed run."""

import csv
import logging
import os
import re
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lodsig import store
from lodsig.cli import demo_synth_config, main
from lodsig.store import DataFormatError, load_database
from lodsig.synthgen import DrugModel, Injection, SynthConfig, generate


def write_database(directory):
    """A small database whose ids and codes hold spaces, commas and
    quotes, with one duplicate event row; its three paths in
    load_database order."""
    rows = {
        "patients": [["patient_id", "year_of_birth", "gender",
                      "registration_date", "death_date"],
                     ['p 1,"a"', "1950", "F", "2015-01-01", ""],
                     ["p2", "1970", "M", "2014-06-01", "2019-03-01"]],
        "prescriptions": [["patient_id", "drug_code", "date"],
                          ['p 1,"a"', "drug, x", "2016-02-01"],
                          ["p2", "drug, x", "2015-08-01"],
                          ["p2", "y", "2016-08-01"]],
        "events": [["patient_id", "event_code", "date"],
                   ['p 1,"a"', 'rash "mild"', "2016-03-01"],
                   ['p 1,"a"', 'rash "mild"', "2016-03-01"],
                   ['p 1,"a"', "head ache", "2016-02-10"],
                   ["p2", "C", "2015-09-01"]]}
    for name, table in rows.items():
        with open(directory / f"{name}.csv", "w", newline="",
                  encoding="utf-8") as fh:
            csv.writer(fh).writerows(table)
    return tuple(directory / f"{name}.csv"
                 for name in ("prescriptions", "events", "patients"))


def assert_same_database(got, want):
    """Every array with its dtype, the id and code dicts in order and the
    duplicate count agree."""
    arrays = sorted(k for k, v in vars(want).items()
                    if isinstance(v, np.ndarray))
    assert arrays == sorted(k for k, v in vars(got).items()
                            if isinstance(v, np.ndarray))
    for name in arrays:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    for name in ("patient_ids", "drug_codes", "event_codes"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("_drug_index", "_event_index"):
        assert list(getattr(got, name).items()) == \
            list(getattr(want, name).items()), name
    assert got.duplicates_dropped == want.duplicates_dropped


UNPICKLED = []


class Exploit:
    def __reduce__(self):
        return UNPICKLED.append, ("unpickled",)


def rewrite_members(slot, change):
    """Rewrite a cache file with change(its members) as members."""
    with np.load(slot, allow_pickle=False) as npz:
        members = dict(npz)
    change(members)
    with open(slot, "wb") as fh:
        np.savez(fh, **members)


def load_twice(paths, slot):
    return [load_database(*paths), load_database(*paths)]


def change_one_byte(paths, slot):
    events = paths[1]
    text = events.read_bytes()
    assert b"2015-09-01" in text
    events.write_bytes(text.replace(b"2015-09-01", b"2015-09-02"))
    assert len(events.read_bytes()) == len(text)
    return load_twice(paths, slot)


def truncate(paths, slot):
    slot.write_bytes(slot.read_bytes()[:slot.stat().st_size // 2])
    return load_twice(paths, slot)


def garbage(paths, slot):
    slot.write_bytes(bytes(range(256)) * 64)
    return load_twice(paths, slot)


def object_array(paths, slot):
    rewrite_members(slot, lambda m: m.update(
        texts=np.array([Exploit()], dtype=object)))
    dbs = load_twice(paths, slot)
    assert UNPICKLED == []
    return dbs


def member_missing(paths, slot):
    rewrite_members(slot, lambda m: m.pop("rx_day"))
    return load_twice(paths, slot)


def wrong_dtype(paths, slot):
    rewrite_members(slot, lambda m: m.update(
        rx_day=m["rx_day"].astype(np.int32)))
    return load_twice(paths, slot)


def int64_event_codes(paths, slot):
    # the event codes of the layout that stored them as int64
    rewrite_members(slot, lambda m: m.update(
        ev_code=m["ev_code"].astype(np.int64)))
    return load_twice(paths, slot)


def stored_event_columns(paths, slot):
    # the patient and day columns of the layout that stored them
    rewrite_members(slot, lambda m: m.update(
        zip(("ev_pid", "ev_day"), np.divmod(m["_ev_key"], store._KEY_BASE))))
    return load_twice(paths, slot)


def stored_last_active(paths, slot):
    # the last_active member of the layout that stored it
    rewrite_members(slot, lambda m: m.update(
        last_active=np.maximum(m["registration"], m["death"])))
    return load_twice(paths, slot)


def two_dimensional(paths, slot):
    rewrite_members(slot, lambda m: m.update(rx_day=m["rx_day"][:, None]))
    return load_twice(paths, slot)


def wrong_length(paths, slot):
    rewrite_members(slot, lambda m: m.update(rx_day=m["rx_day"][:-1]))
    return load_twice(paths, slot)


def foreign(paths, slot):
    # another database's entry, copied into this one's slot
    other = paths[0].parent / "other"
    other.mkdir()
    other_paths = write_database(other)
    other_paths[2].write_text(other_paths[2].read_text() + "p3,1980,M,"
                              "2014-01-01,\n")
    load_database(*other_paths)
    slots = set(slot.parent.glob("*.npz")) - {slot}
    assert len(slots) == 1
    slot.write_bytes(slots.pop().read_bytes())
    return load_twice(paths, slot)


def rules_changed(paths, slot):
    with mock.patch.object(store, "_source_digest",
                           lambda: b"other loading rules"):
        return load_twice(paths, slot)


def unwritable(paths, slot):
    # the cache directory's path is taken by a regular file
    for path in slot.parent.iterdir():
        path.unlink()
    slot.parent.rmdir()
    slot.parent.write_text("not a directory")
    return load_twice(paths, slot)


def no_home(paths, slot):
    # no XDG_CACHE_HOME, no HOME and no password entry: no cache directory
    slot.unlink()
    with mock.patch.dict(os.environ), mock.patch.object(
            Path, "home", side_effect=RuntimeError("no home directory")):
        os.environ.pop("XDG_CACHE_HOME")
        os.environ.pop("HOME", None)
        dbs = load_twice(paths, slot)
        assert store.cache_database(dbs[0], *paths) == (
            "not written: no cache directory, or a CSV could not be hashed")
    assert not any(slot.parent.iterdir())
    return dbs


def two_threads(paths, slot):
    slot.unlink()
    # both threads are parsing at once, so neither read the other's entry
    both_parsing = threading.Barrier(2, timeout=30)
    parse = store._parse_database

    def parse_together(*args):
        both_parsing.wait()
        return parse(*args)
    with mock.patch.object(store, "_parse_database", parse_together):
        with ThreadPoolExecutor(2) as pool:
            dbs = list(pool.map(lambda _: load_database(*paths), range(2)))
    assert [p.name for p in slot.parent.iterdir()] == [slot.name]
    return dbs + [load_database(*paths)]


def no_cache(paths, slot):
    slot.unlink()
    data = paths[0].parent
    manifest = data / "manifest.yaml"
    manifest.write_text(yaml.safe_dump({
        "database_dir": str(data), "drugs": ["drug, x"],
        "algorithms": ["ror05"], "output_dir": str(data / "out")}))
    refuse = mock.Mock(side_effect=AssertionError("cache used"))
    with mock.patch.object(store, "_read_cache", refuse), \
            mock.patch.object(store, "_write_cache", refuse):
        assert main(["run", "--manifest", str(manifest), "--no-cache"]) == 0
        assert main(["generate", "--demo", "--output", str(data / "demo"),
                     "--no-cache"]) == 0
    assert not slot.parent.exists() or not any(slot.parent.iterdir())
    return [load_database(*paths, cache=False)]


HIT = r"load cache hit: .*\.npz"


def wrote(why):
    return rf"load cache miss \({why}\): wrote .*\.npz"


CASES = {
    "hit": (load_twice, [HIT, HIT]),
    "csv_byte_changed": (change_one_byte, [wrote("stale entry"), HIT]),
    "truncated": (truncate, [wrote("unreadable entry: BadZipFile"), HIT]),
    "garbage": (garbage, [wrote("unreadable entry: ValueError"), HIT]),
    "object_array": (object_array,
                     [wrote("unreadable entry: ValueError"), HIT]),
    "member_missing": (member_missing,
                       [wrote("unreadable entry: KeyError"), HIT]),
    "wrong_dtype": (wrong_dtype, [wrote("malformed entry"), HIT]),
    "int64_event_codes": (int64_event_codes,
                          [wrote("malformed entry"), HIT]),
    "stored_event_columns": (stored_event_columns,
                             [wrote("malformed entry"), HIT]),
    "stored_last_active": (stored_last_active,
                           [wrote("malformed entry"), HIT]),
    "two_dimensional": (two_dimensional, [wrote("malformed entry"), HIT]),
    "wrong_length": (wrong_length, [wrote("malformed entry"), HIT]),
    "foreign": (foreign, [wrote("no entry"), wrote("stale entry"), HIT]),
    "rules_changed": (rules_changed, [wrote("stale entry"), HIT]),
    "unwritable": (unwritable, [
        r"load cache miss \(unreadable entry: NotADirectoryError\): "
        r"not written: .*"] * 2),
    "no_home": (no_home, [r"load cache unused: no cache directory, .*"] * 2),
    "two_threads": (two_threads, [wrote("no entry")] * 2 + [HIT]),
    "no_cache": (no_cache, ["load cache off: parsed the CSVs"] * 2),
}


@pytest.mark.parametrize("case", CASES)
def test_load_cache(case, tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    data = tmp_path / "data"
    data.mkdir()
    paths = write_database(data)
    first = load_database(*paths)
    slot, = (tmp_path / "xdg" / "lodsig").iterdir()
    run_case, expected = CASES[case]
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="lodsig.store"):
        dbs = run_case(paths, slot)
    records = [r for r in caplog.records if r.name == "lodsig.store"]
    outcomes = [r.getMessage() for r in records if r.levelno == logging.INFO]
    assert len(outcomes) == len(expected), outcomes
    for line, pattern in zip(outcomes, expected):
        assert re.fullmatch(pattern, line), (line, pattern)
    # a hit warns of the duplicates it collapsed like a parse does
    assert [r.getMessage() for r in records
            if r.levelno == logging.WARNING] == \
        ["collapsed 1 duplicate record rows"] * len(outcomes)
    want = load_database(*paths, cache=False)
    assert want.n_patients == 2 and want.duplicates_dropped == 1
    for db in dbs:
        assert_same_database(db, want)
    if case != "csv_byte_changed":
        assert_same_database(first, want)


@pytest.mark.parametrize("change, message, error", [
    (lambda c: c.update(gender=c["gender"].astype("<U2")),
     "column gender must be a one-dimensional <U1 array", ValueError),
    (lambda c: c.update(year_of_birth=c["year_of_birth"][:, None]),
     "column year_of_birth must be a one-dimensional int64 array",
     ValueError),
    (lambda c: c.update(ev_code=c["ev_code"].astype(np.int64)),
     "column ev_code must be a one-dimensional int32 array", ValueError),
    (lambda c: c.update(rx_drug=c["rx_drug"][1:]),
     "columns ['rx_pid', 'rx_drug', 'rx_day'] differ in length",
     ValueError),
    (lambda c: c.update({n: c[n][1:] for n in store.COLUMNS[0]}),
     "patient columns must have one entry per patient", ValueError),
    # p2 dies on the day of registration, before its event
    (lambda c: c.update(death=np.where(c["death"] > 0, c["registration"],
                                       0)),
     "event for patient p2 dated after death", DataFormatError),
], ids=["dtype", "two_dimensional", "int64_event_codes", "record_lengths",
        "patient_count", "record_after_death"])
def test_database_keeps_the_column_schema(tmp_path, change, message, error):
    db = load_database(*write_database(tmp_path), cache=False)
    columns = {n: getattr(db, n) for group in store.COLUMNS for n in group}
    change(columns)
    with pytest.raises(ValueError) as exc:
        store.Database(db.patient_ids, db.drug_codes, db.event_codes,
                       columns)
    assert (exc.type, str(exc.value)) == (error, message)


def assert_generate_caches_the_loaded_database(config, directory,
                                               must_cache=True):
    """generate's cache entry, if any, is a hit that equals a no-cache
    load of its files; there is none for files that fail to load."""
    paths = generate(config, directory)
    paths = (paths["prescriptions"], paths["events"], paths["patients"])
    cached = None
    if any(store.cache_dir().glob("*.npz")):
        with mock.patch.object(store, "_parse_database",
                               side_effect=AssertionError("parsed")):
            cached = load_database(*paths)
    try:
        fresh = load_database(*paths, cache=False)
    except DataFormatError:
        assert cached is None
        return None
    assert cached is not None or not must_cache, "no cache entry written"
    if cached is not None:
        assert_same_database(cached, fresh)
    return fresh


def test_generate_caches_the_demo_database(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    db = assert_generate_caches_the_loaded_database(demo_synth_config(),
                                                    tmp_path / "data")
    assert db.n_patients == 2000 and db.duplicates_dropped > 0


# ids and codes with spaces, commas, quotes and line ends; outer
# whitespace and empty codes too, which the load strips or refuses, so
# generate must not cache them
CODES = st.text(alphabet=' ,"\'ab\t\r\n', max_size=4)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(events=st.lists(CODES, min_size=1, max_size=4, unique=True),
       drugs=st.lists(CODES, min_size=1, max_size=3, unique=True),
       indication=CODES, n_patients=st.integers(1, 40),
       seed=st.integers(0, 2 ** 16))
def test_generate_caches_what_the_load_gives(events, drugs, indication,
                                             n_patients, seed):
    config = SynthConfig(
        n_patients=n_patients, years_span=3,
        background_event_rates={e: 2.0 for e in events},
        drug_models={d: DrugModel(0.6, (indication, 3.0), 0.5)
                     for d in drugs},
        injections=[Injection(drugs[0], events[0], 5.0)], rng_seed=seed)
    with tempfile.TemporaryDirectory() as directory, \
            mock.patch.dict(os.environ,
                            {"XDG_CACHE_HOME": f"{directory}/xdg"}):
        assert_generate_caches_the_loaded_database(
            config, Path(directory) / "data",
            must_cache=all(t and t == t.strip()
                           for t in [*events, *drugs, indication]))
