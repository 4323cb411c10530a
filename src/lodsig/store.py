"""Indexed longitudinal patient record store.

Loads patient / prescription / medical-event CSV files, read by
csv.reader and interning every column's values so that stripping, checks
and date parsing run once per distinct value, into an immutable columnar
store: one array per patient field beside the sorted record columns.
The store applies the data-quality rules (12-month registration washout,
13-month first-prescription rule, 30-day active-follow-up rule) and
serves the windowed event queries every detection algorithm is built
on through one kernel, `window_pairs`: each windowed count is a
`bincount` over the (window, code, event) triples it returns for many
windows at once.  Dates are proleptic-Gregorian day ordinals internally.

`load_database` keeps a load cache in `cache_dir()`: one `.npz` slot of
a Database's columns per set of three resolved CSV paths, served only
when its key matches (each file's size and sha256, this module's source
and the Python and numpy versions), read without unpickling, and
written to a temporary file that is renamed over the slot.  Any file
that is not a valid entry for that key is a miss, and a cache that
cannot be written, or no cache directory, leaves the load uncached; none
of these fails a load.
"""

from __future__ import annotations

import array
import bisect
import csv
import datetime
import functools
import hashlib
import itertools
import logging
import math
import numbers
import operator
import os
import sys
import tempfile
import threading
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

# Month-granular durations are fixed day counts so tests are exact.
DAYS_13_MONTHS = 395
DAYS_12_MONTHS = 365
DAYS_PER_MONTH = 30
MIN_ACTIVE_FOLLOWUP_DAYS = 30

# day ordinals are < 10**7, so this key packs (patient, day) collision-free
_KEY_BASE = 10 ** 7


class DataFormatError(ValueError):
    """Raised for malformed or inconsistent input files."""


class Gender(Enum):
    FEMALE = "F"
    MALE = "M"
    UNKNOWN = "U"


_GENDER_ALIASES = {
    "f": Gender.FEMALE, "female": Gender.FEMALE,
    "m": Gender.MALE, "male": Gender.MALE,
    "u": Gender.UNKNOWN, "unknown": Gender.UNKNOWN, "": Gender.UNKNOWN,
}
# day ordinal of numpy's datetime64 epoch, 1970-01-01
_EPOCH = datetime.date(1970, 1, 1).toordinal()


def from_ordinal(o: int) -> datetime.date:
    return datetime.date.fromordinal(o)


@dataclass(frozen=True)
class StudyConfig:
    drug_code: str
    T: int = 30
    pre_window: int = 180                      # predictable-event filter, days
    control_period: tuple[int, int] = (27, 21)  # month offsets before index
    rng_seed: int = 0
    excluded_event_codes: frozenset[str] = frozenset()
    include_day0: bool = False

    def __post_init__(self):
        # types first: a comparison or an unpacking would fail in
        # Python's own words
        for name in ("T", "pre_window", "rng_seed"):
            object.__setattr__(self, name, _int(name, getattr(self, name)))
        period = self.control_period
        if not (isinstance(period, (list, tuple)) and len(period) == 2):
            raise ValueError("control_period must be [start, end] month "
                             f"offsets, not {period!r}")
        # hashable containers, so equal configurations can share a pass
        a, b = (_int(f"control_period[{i}]", v) for i, v in enumerate(period))
        object.__setattr__(self, "control_period", (a, b))
        if self.T <= 0:
            raise ValueError("T must be positive")
        if self.pre_window < 0:
            raise ValueError("pre_window must be non-negative")
        if not (a > b > 0):
            raise ValueError("control_period must be (start, end) month offsets "
                             "with start > end > 0 before the index date")
        codes = self.excluded_event_codes
        # a string is an iterable of its characters, not of event codes
        if not isinstance(codes, str):
            object.__setattr__(self, "excluded_event_codes", frozenset(codes))
        if isinstance(codes, str) or not all(
                isinstance(code, str) for code in self.excluded_event_codes):
            raise ValueError("excluded_event_codes must be a list of event "
                             f"code strings, not {codes!r}")
        if not isinstance(self.include_day0, bool):
            raise ValueError("include_day0 must be a boolean, not "
                             f"{self.include_day0!r}")
        # a window is shorter than the packed key's day range, which
        # window_pairs clips every window to; far longer ones would also
        # overflow `index day + T` in int64
        for name, days in (("T", self.T), ("pre_window", self.pre_window),
                           ("control_period start",
                            self.control_period[0] * DAYS_PER_MONTH)):
            if days >= _KEY_BASE:
                raise ValueError(f"{name} must be under {_KEY_BASE} days, "
                                 f"not {days}")


def _int(name: str, value) -> int:
    # any integer type, numpy's too, is kept as an int; operator.index
    # takes a bool as well, but `T: true` is not a window length
    if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return operator.index(value)


def _real(name: str, value) -> float:
    # a quoted "0.3" is text and `rate: true` a flag, neither a number
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, not {value!r}")
    return float(value)


# each stored column of a Database with its dtype, in groups of equal
# length: one entry per patient, per prescription and per event
COLUMNS = ({"year_of_birth": "int64", "gender": "<U1", "registration": "int64",
            "death": "int64"},
           {"rx_pid": "int64", "rx_drug": "int32", "rx_day": "int64"},
           {"_ev_key": "int64", "ev_code": "int32"})


class Database:
    """Immutable indexed store of patients, prescriptions and events.

    Patient columns are indexed like the sorted `patient_ids`, with each
    `gender` as its Gender value letter and a `death` of 0 for none.  The
    constructor derives `last_active`, the latest of registration, death and
    any record day, and refuses (DataFormatError) a death or record dated
    outside [registration, death].  Record columns are sorted by (patient
    index, day, code index).  Prescriptions are `rx_pid`, `rx_drug` and
    `rx_day`.  The event table, by far the largest, is 12 bytes an event:
    the int64 key `_ev_key` packing (patient index, day) as
    pid * _KEY_BASE + day, and the int32 `ev_code`; `ev_pid` and `ev_day`
    are derived from the key on each access.  Queries are read-only; the
    derived arrays they cache are built once under a lock, so the store
    stays safe for concurrent use.
    """

    def __init__(self, patient_ids, drug_codes, event_codes, columns,
                 duplicates_dropped=0):
        # the ids and codes in index order; columns: {name: array}
        self.patient_ids: list[str] = list(patient_ids)
        self.drug_codes: list[str] = list(drug_codes)
        self.event_codes: list[str] = list(event_codes)
        self.duplicates_dropped = int(duplicates_dropped)
        self._drug_index, self._event_index = (
            dict(zip(texts, range(len(texts)))) for texts in
            (self.drug_codes, self.event_codes))
        for group in COLUMNS:
            for name, dtype in group.items():
                if columns[name].ndim != 1 or columns[name].dtype != dtype:
                    raise ValueError(f"column {name} must be a "
                                     f"one-dimensional {dtype} array")
                setattr(self, name, columns[name])
            if len({len(columns[name]) for name in group}) != 1:
                raise ValueError(f"columns {list(group)} differ in length")
        if len(self.death) != self.n_patients:
            raise ValueError("patient columns must have one entry per patient")
        # each patient's first and last date, widened a kind at a time
        first, dead = self.registration.copy(), self.death > 0
        self.last_active = self.registration.copy()
        for kind, key in (("death", lambda: np.flatnonzero(dead) * _KEY_BASE
                           + self.death[dead]),
                          ("event", lambda: self._ev_key),
                          ("prescription", lambda: self.rx_pid * _KEY_BASE
                           + self.rx_day)):
            _widen(key(), first, self.last_active)
            for bad, when in (
                    (first < self.registration, "before registration"),
                    (dead & (self.last_active > self.death), "after death")):
                if bad.any():
                    patient = self.patient_ids[np.argmax(bad)]
                    raise DataFormatError(
                        f"{kind} for patient {patient} dated {when}")
        self._cache: dict = {}
        self._cache_lock = threading.RLock()

    # -- construction -----------------------------------------------------

    @classmethod
    def from_columns(cls, patients, rx, ev):
        """Build a database from a patient table and two record tables.

        patients: (values, index) of patient_id, year_of_birth, Gender,
        registration day and death day (0 or None for none); patient i
        has values[index[i]] of each.
        rx, ev: (pid_values, pid_index, code_values, code_index, day_ord);
        record i is pid_values[pid_index[i]], code_values[code_index[i]]
        and day_ord[i] (integer arrays; every listed code is used; days lie
        in [0, _KEY_BASE)); events keep the sorted key, not patient and day.
        """
        (pid_values, pid_index), yob, genders, reg, deaths = patients
        ids = [pid_values[i] for i in pid_index.tolist()]
        order = sorted(range(len(ids)), key=ids.__getitem__)
        pt_index = {ids[i]: n for n, i in enumerate(order)}
        if len(pt_index) != len(ids):
            raise DataFormatError("duplicate patient_id in patients input")

        def column(values, index, dtype=np.int64):
            return np.array(values, dtype=dtype)[index[order]]

        def records(pid_values, pid_index, code_values, code_index, day,
                    kind):
            code_of = {c: i for i, c in enumerate(sorted(set(code_values)))}
            pid_of = np.array([pt_index.get(p, -1) for p in pid_values],
                              dtype=np.int64)
            unknown = (pid_of < 0)[pid_index]
            if unknown.any():
                p = pid_values[pid_index[np.argmax(unknown)]]
                raise DataFormatError(
                    f"unknown patient_id {p!r} in {kind} input")
            code = np.array([code_of[c] for c in code_values],
                            dtype=np.int32)[code_index]
            pid = pid_of[pid_index]
            # by the observed day range, not _KEY_BASE, so that the packed
            # sort key stays inside int64 at millions of patients
            order = record_order(pid, day, code)
            key = pid[order]
            # each record-sized array goes as soon as it is used
            del pid
            key *= _KEY_BASE
            key += day[order]
            code = code[order]
            del order
            # an exact duplicate follows its first copy
            keep = run_starts(key, code)
            return code_of, code[keep], key[keep], len(keep) - keep.sum()

        drug_index, rx_drug, rx_key, rx_dropped = records(*rx, "prescriptions")
        event_index, ev_code, ev_key, ev_dropped = records(*ev, "events")
        rx_pid, rx_day = np.divmod(rx_key, _KEY_BASE)
        return cls(pt_index, drug_index, event_index, dict(
            year_of_birth=column(*yob),
            gender=column([g.value for g in genders[0]], genders[1], "U1"),
            registration=column(*reg),
            death=column([d or 0 for d in deaths[0]], deaths[1]),
            rx_pid=rx_pid, rx_drug=rx_drug, rx_day=rx_day, _ev_key=ev_key,
            ev_code=ev_code), rx_dropped + ev_dropped)

    # -- indexed access ---------------------------------------------------

    @property
    def n_patients(self) -> int:
        return len(self.patient_ids)

    @property
    def ev_pid(self):
        """Each event's patient index, derived from `_ev_key`."""
        return self._ev_key // _KEY_BASE

    @property
    def ev_day(self):
        """Each event's day ordinal, derived from `_ev_key`."""
        return self._ev_key % _KEY_BASE

    def patient_index(self, patient_id: str) -> int:
        i = bisect.bisect_left(self.patient_ids, patient_id)
        if i == self.n_patients or self.patient_ids[i] != patient_id:
            raise KeyError(f"unknown patient_id {patient_id!r}")
        return i

    def drug_index(self, drug_code: str) -> int | None:
        return self._drug_index.get(drug_code)

    def event_index(self, event_code: str) -> int | None:
        return self._event_index.get(event_code)

    def cached(self, key, build):
        """build(), once per key; concurrent callers wait for that build."""
        with self._cache_lock:
            if key not in self._cache:
                self._cache[key] = build()
            return self._cache[key]

    def prescriptions_of_drug(self, drug_code: str):
        """(patient index, day) arrays of one drug's prescriptions."""
        mask = self.rx_drug == self._drug_index.get(drug_code, -1)
        return self.rx_pid[mask], self.rx_day[mask]

    def all_episodes(self):
        """(drug index, patient index, index day) arrays of every drug's
        qualifying episodes, in (drug, patient, day) order."""
        return self.cached("episodes", lambda: _qualifying_episodes(self))

    def episodes(self, drug_code: str):
        """(patient index, index day) arrays of the qualifying episodes of
        one drug, in (patient, day) order."""
        drug, pts, idx = self.all_episodes()
        di = self._drug_index.get(drug_code, -1)
        lo, hi = np.searchsorted(drug, [di, di + 1])
        return pts[lo:hi], idx[lo:hi]


def row_columns(rows, width):
    """(values, index) of each of the `width` columns of a list of rows."""
    each = np.arange(len(rows))
    return [(list(column), each) for column in zip(*rows)] or \
        [([], each)] * width


def record_order(*columns):
    """Indices that order the rows of int columns by the first column,
    then the next, and so on.

    The columns are packed into one int64 by their observed ranges,
    (c0 - min0) * r1 * r2 + (c1 - min1) * r2 + (c2 - min2), and sorted
    by one argsort: rows with equal keys are equal in every column, so
    the sort need not be stable.  Only when the product of the ranges
    reaches 2**63 are the columns sorted one by one, last first, by
    stable argsorts.
    """
    n = len(columns[0])
    if not n:
        return np.arange(0)
    lows = [int(c.min()) for c in columns]
    spans = [int(c.max()) - low + 1 for c, low in zip(columns, lows)]
    if math.prod(spans) >= 2 ** 63:
        order = np.arange(n)
        for column in reversed(columns):
            order = order[np.argsort(column[order], kind="stable")]
        return order
    key = np.zeros(n, dtype=np.int64)
    for column, low, span in zip(columns, lows, spans):
        # the sum may wrap before low is taken off; the result fits
        key *= span
        key += column
        key -= low
    return np.argsort(key)


def _widen(key, first, last, block=1024):
    """Lower first and raise last to each patient's first and last day in
    a sorted (patient, day) key, in blocks of patients to allocate little."""
    for lo in range(0, len(first), block):
        base = np.arange(lo, min(lo + block, len(first)) + 1,
                         dtype=np.int64) * _KEY_BASE
        bounds = np.searchsorted(key, base)
        some = np.flatnonzero(bounds[:-1] < bounds[1:])
        pid = lo + some
        first[pid] = np.minimum(first[pid], key[bounds[some]] - base[some])
        last[pid] = np.maximum(last[pid], key[bounds[some + 1] - 1]
                               - base[some])


# -- CSV loading ----------------------------------------------------------

def _reader_columns(path, required, optional):
    """The named columns of any CSV file, read by csv.reader."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            missing = [c for c in required if c not in header]
            if missing:
                raise DataFormatError(f"{path}: missing columns {missing}")
            # a repeated column name reads the last column of that name
            where = {name: i for i, name in enumerate(header)}
            names = [c for c in (*required, *optional) if c in where]
            columns = [(where[c], {}, array.array("i")) for c in names]
            width = max(where[c] for c in names) + 1
            for row in filter(None, reader):  # skips blank lines
                if len(row) < width:
                    row += [""] * (width - len(row))
                for i, table, index in columns:
                    index.append(table.setdefault(row[i], len(table)))
        except UnicodeDecodeError:
            # the text layer decodes ahead of the reader, whose line_num
            # can lag: name the line of the first byte that is not UTF-8
            with open(path, "rb") as raw:
                data = raw.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as first:
                line = data.count(b"\n", 0, first.start) + 1
                raise DataFormatError(
                    f"{path}, line {line}: not UTF-8 text "
                    f"(byte {data[first.start:first.start + 1]!r})") from None
        except csv.Error as exc:
            raise DataFormatError(
                f"{path}, line {reader.line_num}: {exc}") from None
    return {c: (list(table), np.frombuffer(index, dtype=np.intc))
            for c, (_, table, index) in zip(names, columns)}


def read_table(path, fields, optional=()):
    """Read, parse and check the named columns of a CSV file with
    csv.reader: the package's one CSV reader.  A UTF-8 BOM and blank
    lines are skipped; a short row's missing fields read "".  fields:
    (column, parse, message) in the order a row is checked; parse runs
    once per distinct raw text and returns None or raises ValueError for
    a bad one, which message(text) describes.  An error names the file
    and the row (record i is row i + 2), or the line of text that is not
    UTF-8 or not CSV.  Returns {column: (parsed distinct texts, int32
    index of each row's text)}.
    """
    required = [f[0] for f in fields if f[0] not in optional]
    columns = _reader_columns(path, required, optional)
    n_rows = len(columns[required[0]][1])
    out, errors = {}, []
    for order, (name, parse, message) in enumerate(fields):
        texts, index = columns.get(name) or \
            ([""], np.zeros(n_rows, dtype=np.intc))
        values = []
        for text in texts:
            try:
                values.append(parse(text))
            except ValueError:
                values.append(None)
        bad = np.array([v is None for v in values], dtype=bool)[index]
        if bad.any():
            row = int(np.argmax(bad))
            errors.append((row, order, message(texts[index[row]])))
        out[name] = (values, index)
    if errors:
        row, _, message = min(errors)
        raise DataFormatError(f"{path}, row {row + 2}: {message}")
    return out


def read_rows(path, fields):
    """The rows of read_table, each a tuple of its values in field order."""
    return list(zip(*([values[i] for i in index.tolist()]
                      for values, index in read_table(path, fields).values())))


def _id(text):
    """A patient id or a code as the load keeps it; None when empty."""
    return text.strip() or None


def _day(text):
    return datetime.date.fromisoformat(text.strip()).toordinal()


def _load_records(path, code_column):
    """(pid_values, pid_index, code_values, code_index, day_ord) of a file."""
    missing = f"missing patient_id or {code_column}"
    columns = read_table(path, [
        ("patient_id", _id, lambda t: missing),
        (code_column, _id, lambda t: missing),
        ("date", _day, lambda t: f"bad date {t!r}")])
    days, date = columns["date"]
    return (*columns["patient_id"], *columns[code_column],
            np.array(days, dtype=np.int32)[date])


def load_database(prescriptions_path, events_path, patients_path,
                  cache: bool = True) -> Database:
    """Load and index the three-file CSV database.

    Hard errors (DataFormatError) name the offending file and row; exact
    duplicate rows are collapsed with a warning counter on the result.
    With cache, a load cache entry of these three files' contents is
    served in place of parsing them, and a load that parses them stores
    one (see _cache_entry).
    """
    paths = (prescriptions_path, events_path, patients_path)
    entry = _cache_entry(paths) if cache else None
    found = _read_cache(*entry) if entry else None
    if isinstance(found, Database):
        log.info("load cache hit: %s", entry[0])
        db = found
    else:
        db = _parse_database(*paths)
        if not cache:
            log.info("load cache off: parsed the CSVs")
        elif entry is None or _cache_entry(paths) != entry:
            log.info("load cache unused: no cache directory, or a CSV "
                     "could not be hashed or changed while it was parsed")
        else:
            log.info("load cache miss (%s): %s", found,
                     _write_cache(db, *entry))
    if db.duplicates_dropped:
        log.warning("collapsed %d duplicate record rows",
                    db.duplicates_dropped)
    return db


def _parse_database(prescriptions_path, events_path, patients_path):
    fields = [
        ("patient_id", _id, lambda t: "missing patient_id"),
        # a year of birth must fit its int64 column
        ("year_of_birth", lambda t: int(t) if abs(int(t)) < 2 ** 63 else None,
         lambda t: f"bad year_of_birth {t!r}"),
        ("gender", lambda t: _GENDER_ALIASES.get(t.strip().lower()),
         lambda t: f"bad gender {t!r}"),
        ("registration_date", _day, lambda t: f"bad date {t!r}"),
        # no date is ordinal 0, so 0 stands for an empty death date
        ("death_date", lambda t: _day(t) if t.strip() else 0,
         lambda t: f"bad date {t.strip()!r}")]
    columns = read_table(patients_path, fields, optional=("death_date",))
    rx = _load_records(prescriptions_path, "drug_code")
    ev = _load_records(events_path, "event_code")
    return Database.from_columns([columns[f[0]] for f in fields], rx, ev)


# -- load cache -----------------------------------------------------------

# the members of a cache file besides the COLUMNS: its key, the ids and
# codes as NUL-separated UTF-8, and the counts _read_cache unpacks
_CACHE_HEADER = {"key": "uint8", "texts": "uint8", "counts": "int64"}


def cache_dir() -> Path:
    """The load cache directory: $XDG_CACHE_HOME/lodsig, or
    ~/.cache/lodsig when that variable is unset (or not absolute)."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = Path.home() / ".cache"
    return Path(base) / "lodsig"


@functools.cache
def _source_digest() -> bytes:
    """What a cached Database depends on besides its files: this module's
    loading rules and the Python and numpy that ran them."""
    with open(__file__, "rb") as fh:
        source = hashlib.sha256(fh.read()).hexdigest()
    return f"{source}|{sys.version}|{np.__version__}".encode()


def _cache_entry(paths):
    """(slot file, key) of three CSV paths, or None when one cannot be
    read or there is no cache directory (no home directory to put it in).

    Each set of resolved paths has one slot, so the cache holds one entry
    per database.  The key is the size and sha256 of each file with
    _source_digest(): an entry is served only for the bytes it was built
    from, by the rules that built it.
    """
    key = hashlib.sha256(_source_digest())
    try:
        for path in paths:
            digest, size = hashlib.sha256(), 0
            with open(path, "rb") as fh:
                for chunk in iter(functools.partial(fh.read, 1 << 20), b""):
                    digest.update(chunk)
                    size += len(chunk)
            key.update(b"%d:" % size + digest.digest())
        slot = "\0".join(str(Path(p).resolve()) for p in paths)
        directory = cache_dir()
    # Path.home() raises RuntimeError (KeyError before Python 3.12) when
    # neither HOME nor the password database names a home directory
    except (OSError, RuntimeError, KeyError):
        return None
    name = hashlib.sha256(slot.encode(errors="surrogateescape")).hexdigest()
    return directory / f"{name[:32]}.npz", key.digest()


def _read_cache(slot, key) -> Database | str:
    """The Database a cache file holds under this key, or why there is
    none: a missing, stale, truncated, foreign or pickled file."""
    try:
        with np.load(slot, allow_pickle=False) as npz:
            a = {n: npz[n] for n in itertools.chain(_CACHE_HEADER, *COLUMNS)}
            extra = set(npz.files) - set(a)
        if a["key"].tobytes() != key:
            return "stale entry"
        # a member of another layout (a stored ev_day) is never served
        if extra or any(a[n].ndim != 1 or a[n].dtype != dtype
                        for n, dtype in _CACHE_HEADER.items()):
            return "malformed entry"
        n_patients, n_drugs, n_events, dropped = a["counts"].tolist()
        total = n_patients + n_drugs + n_events
        texts = a["texts"].tobytes().decode().split("\0") if total else []
        if len(texts) != total:
            return "malformed entry"
    except FileNotFoundError:
        return "no entry"
    # a file that cannot be read as an entry is a miss, never a failed
    # run: besides OSError, BadZipFile, a ValueError for a pickle and a
    # KeyError for a missing member, a corrupt zip or .npy header can
    # raise NotImplementedError, EOFError or tokenize.TokenError
    except Exception as exc:
        return f"unreadable entry: {type(exc).__name__}"

    try:
        return Database(texts[:n_patients],
                        texts[n_patients:n_patients + n_drugs],
                        texts[n_patients + n_drugs:], a, dropped)
    except ValueError:   # a column of another shape or dtype
        return "malformed entry"


def _write_cache(db: Database, slot, key) -> str:
    """Store db in a cache slot under key; says what happened.

    The file is written beside the slot and renamed over it, so a reader
    never sees it half written.  A cache that cannot be written leaves
    the run uncached.
    """
    texts = [*db.patient_ids, *db.drug_codes, *db.event_codes]
    joined = "\0".join(texts)
    if joined.count("\0") != max(len(texts) - 1, 0):
        return "not written: an id or code holds a NUL"
    try:
        members = {
            "key": np.frombuffer(key, dtype=np.uint8),
            "texts": np.frombuffer(joined.encode(), dtype=np.uint8),
            "counts": np.array([db.n_patients, len(db.drug_codes),
                                len(db.event_codes), db.duplicates_dropped],
                               dtype=np.int64),
            **{n: getattr(db, n) for group in COLUMNS for n in group}}
        slot.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=slot.parent, prefix=slot.stem,
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **members)
            os.replace(tmp, slot)
        except BaseException:
            os.unlink(tmp)
            raise
    except (OSError, ValueError) as exc:
        return f"not written: {exc}"
    return f"wrote {slot}"


def cache_database(db: Database, prescriptions_path, events_path,
                   patients_path) -> str:
    """Store db as load_database's result for three files, which the
    caller vouches it is but for the ids and codes: db is not stored when
    one of them would load differently (see _id).  Says what happened."""
    texts = itertools.chain(db.patient_ids, db.drug_codes, db.event_codes)
    if not all(isinstance(t, str) and _id(t) == t for t in texts):
        return "not written: an id or code would load differently"
    entry = _cache_entry((prescriptions_path, events_path, patients_path))
    if entry is None:
        return "not written: no cache directory, or a CSV could not be hashed"
    return _write_cache(db, *entry)


# -- eligibility and windowed queries -------------------------------------

def _qualifying_episodes(db: Database):
    """(drug, patient, day) arrays of every qualifying prescription.

    A prescription qualifies when no same-drug prescription precedes it by
    395 days or fewer, the patient has at least 365 days of history since
    registration, and the patient remains active for 30 days after.
    Output is in (drug, patient, day) order.
    """
    # rx is sorted by (patient, day): a stable sort by drug puts each row
    # after the latest earlier one of its drug and patient, if any
    order = np.argsort(db.rx_drug, kind="stable")
    drug, pid, day = db.rx_drug[order], db.rx_pid[order], db.rx_day[order]
    qualifies = run_starts(drug, pid)
    qualifies[1:] |= day[1:] - day[:-1] > DAYS_13_MONTHS
    qualifies &= day - db.registration[pid] >= DAYS_12_MONTHS
    qualifies &= db.last_active[pid] - day >= MIN_ACTIVE_FOLLOWUP_DAYS
    return drug[qualifies], pid[qualifies], day[qualifies]


def run_starts(*columns):
    """Bool mask, True at row 0 and at every row that differs from the
    row before in any column: on rows sorted by the columns, the first
    row of each distinct row.  The package's one neighbour rule, and with
    a sort its one dedup: numpy 2's unique hashes, 20-65x slower than a
    sort, and imports numpy.ma."""
    starts = np.zeros(len(columns[0]), dtype=bool)
    for column in columns:
        starts[1:] |= column[1:] != column[:-1]
    starts[:1] = True
    return starts


def first_per_patient(pts, idx):
    """Each patient's first episode (MUTARA/HUNT convention), by patient,
    of episodes in (patient, day) order, as `Database.episodes` gives
    them."""
    first = run_starts(pts)
    return pts[first], idx[first]


def extract_exposures(db: Database, config: StudyConfig) -> np.ndarray:
    """`Database.episodes` of the study drug as (patient, index day) rows.

    Kept with `candidate_events` for perfbench/run.py, whose input-size
    probe calls both by name; the package itself calls `episodes`.
    """
    return np.column_stack(db.episodes(config.drug_code))


def previous_days(db: Database, block: int = 1024):
    """Each event's day of its patient's previous event of its code, or
    the int32 minimum (before every window): int32, sorted a block of
    whole patients at a time so that the keys fit int32 and stay small."""
    n_codes = max(len(db.event_codes), 1)
    block = max(1, min(block, (2 ** 31 - 1) // n_codes))
    previous = np.full(len(db._ev_key), np.iinfo(np.int32).min, np.int32)
    for first in range(0, db.n_patients, block):
        lo, hi = np.searchsorted(db._ev_key, [first * _KEY_BASE,
                                              (first + block) * _KEY_BASE])
        pid, day = np.divmod(db._ev_key[lo:hi], _KEY_BASE)
        # a stable sort keeps each (patient, code) group in day order
        group = ((pid - first) * n_codes + db.ev_code[lo:hi]).astype(np.int32)
        order = np.argsort(group, kind="stable")
        same = group[order[1:]] == group[order[:-1]]
        previous[lo + order[1:][same]] = day[order[:-1][same]]
    return previous


def window_pairs(db: Database, pts, lo_day, hi_day):
    """(row, code, event) of every event in a window: the windowed-count
    kernel.

    Window `row` is patient pts[row] over the inclusive days
    [lo_day[row], hi_day[row]]; a window with lo_day > hi_day is empty.
    Returns arrays with one entry per event of that patient dated in the
    window, rows ascending: int64 rows, the int32 codes of `ev_code` and
    the int64 event indices.
    Windows may overlap and a patient may have several, and may reach
    past the key's day range, which holds every record day: clipped to
    it, a window stays inside its patient's keys, and an empty one stays
    empty.  pts of any integer dtype is packed in int64.
    """
    base = np.asarray(pts, dtype=np.int64) * _KEY_BASE
    lo = np.searchsorted(db._ev_key, base + np.clip(lo_day, 0, _KEY_BASE))
    hi = np.searchsorted(db._ev_key, base + np.clip(hi_day, -1, _KEY_BASE - 1),
                         side="right")
    counts = np.maximum(hi - lo, 0)
    # expand to one entry per (window, in-window event) pair
    row = np.repeat(np.arange(len(lo)), counts)
    starts = np.cumsum(counts) - counts
    flat = np.repeat(lo - starts, counts) + np.arange(len(row))
    return row, db.ev_code[flat], flat


def candidate_codes(db: Database, episodes, T: int,
                    excluded: frozenset[str] = frozenset(),
                    include_day0: bool = False) -> np.ndarray:
    """Ascending indices of the codes of the events in the risk window of
    >=1 episode, less the excluded codes.

    The default window is (index_date, index_date + T]; include_day0
    pulls the prescription day itself into the window.
    """
    pts, idx = episodes
    code = window_pairs(db, pts, idx if include_day0 else idx + 1,
                        idx + T)[1]
    present = np.bincount(code, minlength=len(db.event_codes)) > 0
    dropped = [i for i in map(db.event_index, excluded) if i is not None]
    present[dropped] = False
    return np.flatnonzero(present)


def candidate_events(db: Database, exposures, T: int,
                     excluded: frozenset[str] = frozenset(),
                     include_day0: bool = False) -> np.ndarray:
    """`candidate_codes` of `extract_exposures` rows (for the perfbench
    probe, like `extract_exposures`)."""
    return candidate_codes(db, exposures.T, T, excluded, include_day0)


def cohort_summary(db: Database, drug_code: str) -> dict:
    """Prescription-level cohort statistics for one drug.

    total counts every prescription (repeats included), first counts
    first-ever prescriptions per patient and thirteen_month applies the
    395-day first-in-13-months rule.  Ages use prescription year minus
    year of birth; gender_ratio is female/male prescriptions (None when
    no male prescriptions exist).
    """
    pid, day = db.prescriptions_of_drug(drug_code)
    if len(pid) == 0:
        return {"total": 0, "first": 0, "thirteen_month": 0,
                "mean_age": None, "sd_age": None, "gender_ratio": None}
    first = run_starts(pid)
    gap = first.copy()
    gap[1:] |= day[1:] - day[:-1] > DAYS_13_MONTHS
    years = (day - _EPOCH).astype("datetime64[D]").astype("datetime64[Y]")
    ages = years.astype(np.int64) + 1970 - db.year_of_birth[pid]
    gender = db.gender[pid]
    males = np.count_nonzero(gender == Gender.MALE.value)
    females = np.count_nonzero(gender == Gender.FEMALE.value)
    return {
        "total": len(pid),
        "first": int(first.sum()),
        "thirteen_month": int(gap.sum()),
        "mean_age": float(ages.mean()),
        "sd_age": float(ages.std(ddof=0)),
        "gender_ratio": females / males if males else None,
    }
