"""Indexed longitudinal patient record store.

Loads patient / prescription / medical-event CSV files, interning every
column's values so that stripping, checks and date parsing run once per
distinct value, into an immutable columnar store: one array per patient
field beside the sorted record columns.  A file that needs no
CSV quoting rules is split and interned with numpy a block at a time;
csv.reader reads any other, with the same result.  The store applies
the data-quality rules (12-month registration washout, 13-month
first-prescription rule, 30-day active-follow-up rule) and serves the
windowed event queries every detection algorithm is built on through
one kernel, `window_pairs`: each windowed count is a `bincount` over
the (window, event code) pairs it returns for many windows at once.
Dates are proleptic-Gregorian day ordinals internally.

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
import csv
import datetime
import functools
import hashlib
import itertools
import logging
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
class ExposureEpisode:
    """A qualifying first-in-13-months prescription with its follow-up window."""
    patient_id: str
    drug_code: str
    index_date: int            # day ordinal of the qualifying prescription
    followup_end: int          # index_date + T, clipped at last_active


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
        if self.T <= 0:
            raise ValueError("T must be positive")
        if self.pre_window < 0:
            raise ValueError("pre_window must be non-negative")
        a, b = self.control_period
        if not (a > b > 0):
            raise ValueError("control_period must be (start, end) month offsets "
                             "with start > end > 0 before the index date")
        # any integer type, numpy's too, is kept as an int; operator.index
        # takes a bool as well, but `T: true` is not a window length
        for name in ("T", "pre_window", "rng_seed"):
            value = getattr(self, name)
            try:
                if isinstance(value, (bool, np.bool_)):
                    raise TypeError
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(
                    f"{name} must be an integer, not {value!r}") from None
        # a window is shorter than the packed key's day range, which
        # window_pairs clips every window to; far longer ones would also
        # overflow `index day + T` in int64
        for name, days in (("T", self.T), ("pre_window", self.pre_window),
                           ("control_period start", a * DAYS_PER_MONTH)):
            if days >= _KEY_BASE:
                raise ValueError(f"{name} must be under {_KEY_BASE} days, "
                                 f"not {days}")


class Database:
    """Immutable indexed store of patients, prescriptions and events.

    Patient columns are indexed like the sorted `patient_ids`, with each
    `gender` as its Gender value letter and a `death` of 0 for none;
    `last_active` is the latest of registration, death and any record
    day.  Record columns are sorted by (patient index, day, code index).
    Queries are read-only; the derived arrays they cache are built once
    under a lock, so the store stays safe for concurrent use.
    """

    def __init__(self, pt_index, year_of_birth, gender, registration,
                 death, last_active,
                 rx_pid, rx_drug, rx_day, ev_pid, ev_code, ev_day, ev_key,
                 drug_index, event_index, duplicates_dropped=0):
        # each {id or code: index} dict lists its keys in index order
        self.patient_ids: list[str] = list(pt_index)
        self.drug_codes: list[str] = list(drug_index)
        self.event_codes: list[str] = list(event_index)
        self.duplicates_dropped = int(duplicates_dropped)

        self._pt_index = pt_index
        self._drug_index = drug_index
        self._event_index = event_index

        self.year_of_birth = year_of_birth
        self.gender = gender
        self.registration = registration
        self.death = death
        self.last_active = last_active

        self.rx_pid = rx_pid
        self.rx_drug = rx_drug
        self.rx_day = rx_day
        self.ev_pid = ev_pid
        self.ev_code = ev_code
        self.ev_day = ev_day
        self._ev_key = ev_key
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
        and day_ord[i] (int64 arrays; every listed code is used; days lie
        in [0, _KEY_BASE)).
        """
        (pid_values, pid_index), yob, genders, reg, deaths = patients
        ids = [pid_values[i] for i in pid_index.tolist()]
        order = sorted(range(len(ids)), key=ids.__getitem__)
        pt_index = {ids[i]: n for n, i in enumerate(order)}
        if len(pt_index) != len(ids):
            raise DataFormatError("duplicate patient_id in patients input")

        def column(values, index, dtype=np.int64):
            return np.array(values, dtype=dtype)[index[order]]
        year_of_birth = column(*yob)
        gender = column([g.value for g in genders[0]], genders[1], "U1")
        registration = column(*reg)
        death = column([d or 0 for d in deaths[0]], deaths[1])

        def columns(pid_values, pid_index, code_values, code_index, day,
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
                            dtype=np.int64)[code_index]
            key, code = _sorted_records(pid_of[pid_index] * _KEY_BASE + day,
                                        code)
            # an exact duplicate follows its first copy
            keep = np.ones(len(key), dtype=bool)
            keep[1:] = (key[1:] != key[:-1]) | (code[1:] != code[:-1])
            key, code = key[keep], code[keep]
            pid, day = np.divmod(key, _KEY_BASE)
            return code_of, pid, code, day, key, len(keep) - len(key)

        drug_index, rx_pid, rx_drug, rx_day, _, rx_dropped = columns(
            *rx, "prescriptions")
        event_index, ev_pid, ev_code, ev_day, ev_key, ev_dropped = columns(
            *ev, "events")

        last_active = np.maximum(registration, death)
        for arr_pid, arr_day in ((rx_pid, rx_day), (ev_pid, ev_day)):
            np.maximum.at(last_active, arr_pid, arr_day)

        db = cls(pt_index, year_of_birth, gender, registration, death,
                 last_active, rx_pid, rx_drug, rx_day, ev_pid, ev_code, ev_day,
                 ev_key, drug_index, event_index, rx_dropped + ev_dropped)
        db._validate()
        return db

    def _validate(self):
        dead = np.flatnonzero(self.death)
        # no death date is a death after every day ordinal
        death = np.where(self.death > 0, self.death, _KEY_BASE)
        for pid, day, kind in ((dead, self.death[dead], "death"),
                               (self.ev_pid, self.ev_day, "event"),
                               (self.rx_pid, self.rx_day, "prescription")):
            for bad, when in ((day < self.registration[pid],
                               "before registration"),
                              (day > death[pid], "after death")):
                if bad.any():
                    patient = self.patient_ids[pid[np.argmax(bad)]]
                    raise DataFormatError(
                        f"{kind} for patient {patient} dated {when}")

    # -- indexed access ---------------------------------------------------

    @property
    def n_patients(self) -> int:
        return len(self.patient_ids)

    def patient_index(self, patient_id: str) -> int:
        try:
            return self._pt_index[patient_id]
        except KeyError:
            raise KeyError(f"unknown patient_id {patient_id!r}") from None

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

    def episodes(self, drug_code: str | None = None):
        """(patient index, index day) arrays of the qualifying episodes of
        one drug, in (patient, day) order, or of all drugs, drug by drug."""
        drug, pts, idx = self.cached("episodes",
                                     lambda: _qualifying_episodes(self))
        if drug_code is None:
            return pts, idx
        di = self._drug_index.get(drug_code, -1)
        lo, hi = np.searchsorted(drug, [di, di + 1])
        return pts[lo:hi], idx[lo:hi]


def row_columns(rows, width):
    """(values, index) of each of the `width` columns of a list of rows."""
    each = np.arange(len(rows))
    return [(list(column), each) for column in zip(*rows)] or \
        [([], each)] * width


def _sorted_records(key, code):
    """key and code in the order of np.lexsort((code, key)), by two stable
    argsorts (faster on int64); key packs (patient, day).  A function of
    its own, so that its temporaries are freed before the caller's next
    allocation of their size."""
    order = np.argsort(code, kind="stable")
    order = order[np.argsort(key[order], kind="stable")]
    return key[order], code[order]


# -- CSV loading ----------------------------------------------------------

# the numpy reader takes a file in blocks of about this many bytes, each
# cut after a newline: its temporaries stay small and are reused block
# after block, so they add little to a load's peak memory
_BLOCK_BYTES = 1 << 17
# _MASKS[n] keeps the first n bytes of a little-endian uint64 word
_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
# zero-padded to the longest, a block's fields and the texts kept so far
# may take at most this many times (their bytes + 8 each); a field far
# longer than the rest of its column is left to csv.reader
_MAX_SPREAD = 8


class _Declined(Exception):
    """A file the numpy reader leaves to csv.reader; args[0] says why."""


def _numpy_columns(path, required, optional):
    """_reader_columns of a file whose rows are its lines split at the
    commas, or _Declined for any other file.

    Such a file has no quote, no NUL and no CR outside a CRLF, is UTF-8,
    has every row exactly as wide as its header, no field longer than
    csv.field_size_limit() bytes and none far longer than the rest of its
    column (see _MAX_SPREAD).  Each block's fields are read as
    zero-padded uint64 words (no NUL, so the padding is unambiguous),
    hashed and factorised; every field is checked word for word against
    the one field kept for its hash, and only the distinct texts are
    decoded.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        line = line[3:] if line.startswith(b"\xef\xbb\xbf") else line
        _check_text(line, len(line))
        line = line[:-2] if line.endswith(b"\r\n") else line.rstrip(b"\n")
        if b"\r" in line:
            raise _Declined("lone CR")
        header = line.decode().split(",") if line else []
        if any(c not in header for c in required):
            raise _Declined("missing column")
        where = {name: i for i, name in enumerate(header)}
        names = [c for c in (*required, *optional) if c in where]
        # each index is allocated once, at most one row per line left
        body = fh.tell()
        n_lines = 1 + sum(
            np.count_nonzero(np.frombuffer(chunk, dtype=np.uint8) == 10)
            for chunk in iter(functools.partial(fh.read, _BLOCK_BYTES), b""))
        fh.seek(body)
        index = {c: np.empty(n_lines, dtype=np.int64) for c in names}
        texts = {c: _Texts() for c in names}
        row, tail = 0, b""
        while True:
            chunk = fh.read(_BLOCK_BYTES)
            # 8 zero bytes: a word may read past the last field's end
            data = b"".join((tail, chunk, bytes(8)))
            n = len(data) - 8
            cut = data.rfind(b"\n", 0, n) + 1 if chunk else n
            if cut:
                _check_text(data, cut)
                fields = _split_block(data, cut, len(header))
                for c in names:
                    hashes, local, words, length = _intern(
                        data, *fields(where[c]), texts[c])
                    np.take(texts[c].ids(hashes, words, length), local,
                            out=index[c][row:row + len(local)], mode="clip")
                row += len(local)
            if not chunk:
                break
            tail = data[cut:n]
    return {c: (texts[c].decoded(), index[c][:row]) for c in names}


def _check_text(data, end):
    """Raise _Declined for a quote, a NUL or a non-UTF-8 byte in data[:end]."""
    for byte, why in ((b'"', "quote"), (b"\0", "NUL")):
        if data.find(byte, 0, end) >= 0:
            raise _Declined(why)
    if not data.isascii():
        try:
            str(memoryview(data)[:end], "utf-8")
        except UnicodeDecodeError:
            raise _Declined("non-UTF-8 byte") from None


def _split_block(data, end, width):
    """fields(j): (start, end) byte offsets of column j in each row of the
    whole lines in data[:end], skipping blank lines; or _Declined for a
    lone CR, a row not `width` fields wide or an over-long field."""
    a = np.frombuffer(data, dtype=np.uint8, count=end)
    stops = np.flatnonzero(a == 10)
    if data[end - 1] != 10:             # the last line has no newline
        stops = np.append(stops, end)
    starts = np.concatenate(([0], stops[:-1] + 1))
    # a[-1], read at a stop at 0, is a newline unless the block ends
    # without one, and then it must not be a CR
    crlf = a[stops - 1] == 13
    if data[end - 1] == 13 or np.count_nonzero(a == 13) != crlf.sum():
        raise _Declined("lone CR")
    stops -= crlf
    rows = stops > starts
    starts, stops = starts[rows], stops[rows]
    commas = np.flatnonzero(a == 44)
    if len(commas) != len(starts) * (width - 1):
        raise _Declined("ragged row")
    commas = commas.reshape(len(starts), width - 1)
    if width > 1 and not ((commas[:, 0] >= starts).all()
                          and (commas[:, -1] < stops).all()):
        raise _Declined("ragged row")
    limit = csv.field_size_limit()
    if len(starts) and (stops - starts).max() > limit:
        edges = np.column_stack((starts - 1, commas, stops))
        if (np.diff(edges, axis=1) - 1).max() > limit:
            raise _Declined("long field")

    def fields(j):
        return (starts if j == 0 else commas[:, j - 1] + 1,
                stops if j == width - 1 else commas[:, j])
    return fields


def _hash_words(words):
    """A uint64 hash of each column of words; zero words add nothing, so
    a text hashes alike at any padding."""
    h = words[0].copy()
    factor = 1
    for k in range(1, len(words)):
        factor = factor * 0x9E3779B97F4A7C15 % 2 ** 64
        h += words[k] * np.uint64(factor)
    return h


def _intern(data, starts, stops, texts):
    """(hashes, index into them, their words, their lengths) of the fields
    data[starts[i]:stops[i]], which join the _Texts texts; each field
    equals the one its hash keeps."""
    length = stops - starts
    n_words = max(1, (int(length.max(initial=0)) + 7) // 8)
    if 8 * max(n_words, len(texts.words)) * (len(starts) + len(texts.hashes)) \
            > _MAX_SPREAD * (int(length.sum()) + 8 * len(starts) + texts.size):
        raise _Declined("long field")
    # element i holds bytes i to i + 7; a word past a field's end reads
    # from the end and is masked to 0
    u64 = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data,
                     strides=(1,))
    words = np.empty((n_words, len(starts)), dtype="<u8")
    for k in range(n_words):
        words[k] = u64[np.minimum(starts + 8 * k, stops)]
        if length.min(initial=8 * k + 8) < 8 * k + 8:
            words[k] &= _MASKS[np.clip(length - 8 * k, 0, 8)]
    hashes, index = np.unique(_hash_words(words), return_inverse=True)
    kept = np.empty(len(hashes), dtype=np.int64)
    kept[index] = np.arange(len(index))
    same = kept[index]
    if not all(np.array_equal(w[same], w) for w in words):
        raise _Declined("hash collision")
    return hashes, index, words[:, kept], length[kept]


class _Texts:
    """The distinct texts of a column, numbered in the order first met."""

    def __init__(self):
        self.hashes = np.zeros(0, dtype=np.uint64)      # sorted
        self.numbers = np.zeros(0, dtype=np.int64)      # of each hash
        self.words = np.zeros((1, 0), dtype="<u8")      # of each hash
        self.size = 0                       # bytes of all texts, 8 more each

    def ids(self, hashes, words, length):
        """The numbers of a block's distinct (sorted hashes, words,
        lengths)."""
        n_words = max(len(words), len(self.words))
        self.words, words = _pad(self.words, n_words), _pad(words, n_words)
        at = np.searchsorted(self.hashes, hashes)
        known = at < len(self.hashes)
        known[known] = self.hashes[at[known]] == hashes[known]
        if not (self.words[:, at[known]] == words[:, known]).all():
            raise _Declined("hash collision")
        ids = np.empty(len(hashes), dtype=np.int64)
        ids[known] = self.numbers[at[known]]
        new = ~known
        self.size += int(length[new].sum()) + 8 * np.count_nonzero(new)
        if new.any():
            ids[new] = np.arange(len(self.hashes),
                                 len(self.hashes) + np.count_nonzero(new))
            self.hashes = np.insert(self.hashes, at[new], hashes[new])
            self.numbers = np.insert(self.numbers, at[new], ids[new])
            self.words = np.insert(self.words, at[new], words[:, new],
                                   axis=1)
        return ids

    def decoded(self):
        """The texts in number order; an S dtype drops the zero padding."""
        words = self.words[:, np.argsort(self.numbers)]
        texts = np.ascontiguousarray(words.T).view(f"S{8 * len(words)}")
        return [t.decode() for t in texts.ravel().tolist()]


def _pad(words, n_words):
    """words with zero rows added up to n_words rows."""
    if len(words) == n_words:
        return words
    return np.concatenate(
        (words, np.zeros((n_words - len(words), words.shape[1]),
                         dtype=words.dtype)))


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
            columns = [(where[c], {}, array.array("q")) for c in names]
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
    return {c: (list(table), np.frombuffer(index, dtype=np.int64))
            for c, (_, table, index) in zip(names, columns)}


def read_table(path, fields, optional=()):
    """Read, parse and check the named columns of a CSV file: the
    package's one CSV reader (numpy splits a file that needs no quoting
    rules, csv.reader any other, alike).  A UTF-8 BOM and blank lines are
    skipped; a short row's missing fields read "".  fields: (column,
    parse, message) in the order a row is checked; parse runs once per
    distinct raw text and returns None or raises ValueError for a bad
    one, which message(text) describes.  An error names the file and the
    row (record i is row i + 2), or the line of text that is not UTF-8 or
    not CSV.  Returns {column: (parsed distinct texts, int64 index of
    each row's text)}.
    """
    required = [f[0] for f in fields if f[0] not in optional]
    try:
        columns = _numpy_columns(path, required, optional)
        log.debug("%s: read by numpy", path)
    except _Declined as why:
        log.debug("%s: read by csv.reader (%s)", path, why)
        columns = _reader_columns(path, required, optional)
    n_rows = len(columns[required[0]][1])
    out, errors = {}, []
    for order, (name, parse, message) in enumerate(fields):
        texts, index = columns.get(name) or \
            ([""], np.zeros(n_rows, dtype=np.int64))
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
            np.array(days, dtype=np.int64)[date])


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

# the array members of a cache file, in groups of equal length: the key,
# the ids and codes as NUL-separated UTF-8, the counts (patients, drugs,
# event codes, duplicates dropped) and the Database's columns
_CACHE_GROUPS = (("key",), ("texts",), ("counts",),
                 ("year_of_birth", "gender", "registration", "death",
                  "last_active"),
                 ("rx_pid", "rx_drug", "rx_day"),
                 ("ev_pid", "ev_code", "ev_day", "_ev_key"))
# each member is one-dimensional, of dtype int64 unless named here
_CACHE_DTYPES = {"key": np.uint8, "texts": np.uint8, "gender": "<U1"}


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
            a = {n: npz[n] for group in _CACHE_GROUPS for n in group}
        if a["key"].tobytes() != key:
            return "stale entry"
        if any(v.ndim != 1 or v.dtype != _CACHE_DTYPES.get(n, np.int64)
               for n, v in a.items()) or any(
                len({len(a[n]) for n in g}) != 1 for g in _CACHE_GROUPS):
            return "malformed entry"
        n_patients, n_drugs, n_events, dropped = a["counts"].tolist()
        total = n_patients + n_drugs + n_events
        texts = a["texts"].tobytes().decode().split("\0") if total else []
        if len(texts) != total or len(a["death"]) != n_patients:
            return "malformed entry"
    except FileNotFoundError:
        return "no entry"
    # a file that cannot be read as an entry is a miss, never a failed
    # run: besides OSError, BadZipFile, a ValueError for a pickle and a
    # KeyError for a missing member, a corrupt zip or .npy header can
    # raise NotImplementedError, EOFError or tokenize.TokenError
    except Exception as exc:
        return f"unreadable entry: {type(exc).__name__}"

    def index(names):
        return dict(zip(names, range(len(names))))
    return Database(
        index(texts[:n_patients]), *(a[n] for g in _CACHE_GROUPS[3:]
                                     for n in g),
        index(texts[n_patients:n_patients + n_drugs]),
        index(texts[n_patients + n_drugs:]), dropped)


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
            **{n: getattr(db, n) for g in _CACHE_GROUPS[3:] for n in g}}
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
    qualifies = np.ones(len(pid), dtype=bool)
    qualifies[1:] = ((drug[1:] != drug[:-1]) | (pid[1:] != pid[:-1])
                     | (day[1:] - day[:-1] > DAYS_13_MONTHS))
    qualifies &= day - db.registration[pid] >= DAYS_12_MONTHS
    qualifies &= db.last_active[pid] - day >= MIN_ACTIVE_FOLLOWUP_DAYS
    return drug[qualifies], pid[qualifies], day[qualifies]


def first_per_patient(pts, idx):
    """Each patient's first episode (MUTARA/HUNT convention), by patient."""
    _, first = np.unique(pts, return_index=True)
    return pts[first], idx[first]


def extract_exposures(db: Database, config: StudyConfig) -> list[ExposureEpisode]:
    """`Database.episodes` of the study drug as a list, sorted by
    (patient_id, index_date).

    Kept with `candidate_events` for perfbench/run.py, whose input-size
    probe calls both by name; the package itself uses the arrays.
    """
    pts, idx = db.episodes(config.drug_code)
    return [ExposureEpisode(db.patient_ids[p], config.drug_code, i,
                            min(i + config.T, last))
            for p, i, last in zip(pts.tolist(), idx.tolist(),
                                  db.last_active[pts].tolist())]


def window_pairs(db: Database, pts, lo_day, hi_day):
    """(row, code) of every event in a window: the windowed-count kernel.

    Window `row` is patient pts[row] over the inclusive days
    [lo_day[row], hi_day[row]]; a window with lo_day > hi_day is empty.
    Returns int64 arrays with one entry per event of that patient dated
    in the window, rows ascending.  Windows may overlap and a patient may
    have several, and may reach past the key's day range, which holds
    every record day: clipped to it, a window stays inside its patient's
    keys, and an empty one stays empty.
    """
    base = pts * _KEY_BASE
    lo = np.searchsorted(db._ev_key, base + np.clip(lo_day, 0, _KEY_BASE))
    hi = np.searchsorted(db._ev_key, base + np.clip(hi_day, -1, _KEY_BASE - 1),
                         side="right")
    counts = np.maximum(hi - lo, 0)
    # expand to one entry per (window, in-window event) pair
    row = np.repeat(np.arange(len(lo)), counts)
    starts = np.cumsum(counts) - counts
    flat = np.repeat(lo - starts, counts) + np.arange(len(row))
    return row, db.ev_code[flat]


def candidate_codes(db: Database, episodes, T: int,
                    excluded: frozenset[str] = frozenset(),
                    include_day0: bool = False) -> list[str]:
    """Sorted codes of the events in the risk window of >=1 episode.

    The default window is (index_date, index_date + T]; include_day0
    pulls the prescription day itself into the window.
    """
    pts, idx = episodes
    _, code = window_pairs(db, pts, idx if include_day0 else idx + 1,
                           idx + T)
    codes = (db.event_codes[c] for c in np.unique(code).tolist())
    return [c for c in codes if c not in excluded]


def candidate_events(db: Database, exposures, T: int,
                     excluded: frozenset[str] = frozenset(),
                     include_day0: bool = False) -> set[str]:
    """`candidate_codes` of an `extract_exposures` list, as a set (for
    the perfbench probe, like `extract_exposures`)."""
    pts = np.array([db.patient_index(e.patient_id) for e in exposures],
                   dtype=np.int64)
    idx = np.array([e.index_date for e in exposures], dtype=np.int64)
    return set(candidate_codes(db, (pts, idx), T, excluded, include_day0))


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
    first = np.ones(len(pid), dtype=bool)
    first[1:] = pid[1:] != pid[:-1]
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
