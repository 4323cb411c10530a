import datetime

import numpy as np
import pytest

from lodsig.store import Database, Gender, StudyConfig, row_columns

BASE = datetime.date(2015, 1, 1).toordinal()


def day(n: int) -> int:
    return BASE + n


def db_from_rows(patient_rows, rx_rows, ev_rows):
    """Database.from_columns of patient rows and (pid, code, day) rows."""
    def table(rows):
        (pid, each), (code, _), (days, _) = row_columns(rows, 3)
        return pid, each, code, each, np.array(days, dtype=np.int64)
    return Database.from_columns(row_columns(patient_rows, 5), table(rx_rows),
                                 table(ev_rows))


def table_rows(table):
    """(patient_id, code, day) rows of a from_columns record table."""
    pid_values, pid, code_values, code, days = table
    return [(pid_values[p], code_values[c], d)
            for p, c, d in zip(pid.tolist(), code.tolist(), days.tolist())]


def make_db(patients, rx=(), events=()):
    """Hand-built database from relative day numbers.

    patients: (pid, reg_day, active_until_day) — active_until is pinned via
    the death date, since last_active derives from record dates otherwise.
    rx: (pid, drug_code, day); events: (pid, event_code, day).
    """
    patient_rows = [(pid, 1960, Gender.FEMALE, day(reg), day(until))
                    for pid, reg, until in patients]
    rx_rows = [(pid, drug, day(d)) for pid, drug, d in rx]
    ev_rows = [(pid, code, day(d)) for pid, code, d in events]
    return db_from_rows(patient_rows, rx_rows, ev_rows)


def random_small_db(rng: np.random.Generator, n_patients=10,
                    drugs=("X", "B"), codes=("A", "C", "D"), near_rx=0):
    """Random dense little database for oracle-equivalence checks.

    near_rx > 0 adds up to that many events around each prescription, at
    offsets of -30, -20, ..., 30 days (clipped to the patient's span), so
    that events on the prescription day and equal counts in the periods
    around it are common; with 0 the stream draws nothing for them.
    """
    patients, rx, events = [], [], []
    for i in range(n_patients):
        pid = f"r{i}"
        reg = int(rng.integers(0, 120))
        until = reg + int(rng.integers(450, 1500))
        patients.append((pid, reg, until))
        first_rx = len(rx)
        for _ in range(int(rng.integers(0, 5))):
            rx.append((pid, str(rng.choice(drugs)),
                       int(rng.integers(reg, until + 1))))
        for _ in range(int(rng.integers(0, 12))):
            events.append((pid, str(rng.choice(codes)),
                           int(rng.integers(reg, until + 1))))
        for _, _, rx_day in rx[first_rx:] if near_rx else ():
            for _ in range(int(rng.integers(0, near_rx + 1))):
                near = rx_day + 10 * int(rng.integers(-3, 4))
                events.append((pid, str(rng.choice(codes)),
                               min(max(near, reg), until)))
    return make_db(patients, rx=rx, events=events)


def counts_of(db, vectors, event_code):
    """One code's entry of each count in a pass's vectors, as ints.

    Arrays are indexed by event code, and a code absent from the
    database has 0 in each; scalars (populations) are every code's.
    """
    ci = db.event_index(event_code)
    return tuple(int(v) if np.ndim(v) == 0 else 0 if ci is None
                 else int(v[ci]) for v in vectors)


@pytest.fixture(autouse=True, scope="session")
def private_load_cache(tmp_path_factory):
    """The tests load through a load cache of their own, never the
    user's; session-scoped, so it is in place before any module-scoped
    fixture generates a database."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg")))
        yield


@pytest.fixture
def simple_config():
    return StudyConfig(drug_code="X", rng_seed=11)
