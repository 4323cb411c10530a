"""Indexed longitudinal patient record store.

Loads patient / prescription / medical-event CSV files into an immutable
columnar store, applies the data-quality rules (12-month registration
washout, 13-month first-prescription rule, 30-day active-follow-up rule)
and serves the windowed event queries every detection algorithm is built
on through one kernel, `window_pairs`: each windowed count is a
`bincount` over the (window, event code) pairs it returns for many
windows at once.  Dates are proleptic-Gregorian day ordinals internally.
"""

from __future__ import annotations

import csv
import datetime
import logging
from dataclasses import dataclass, field
from enum import Enum

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


def to_ordinal(d) -> int:
    """Accept a datetime.date or an int day ordinal."""
    if isinstance(d, datetime.date):
        return d.toordinal()
    return int(d)


def from_ordinal(o: int) -> datetime.date:
    return datetime.date.fromordinal(o)


@dataclass(frozen=True)
class Patient:
    patient_id: str
    year_of_birth: int
    gender: Gender
    registration: int          # day ordinal
    last_active: int           # max(record dates, death date), >= registration
    death: int | None = None


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


class Database:
    """Immutable indexed store of patients, prescriptions and events.

    Record columns are numpy arrays sorted by (patient index, day, code
    index); all queries are read-only and safe for concurrent use.
    """

    def __init__(self, patients, rx_pid, rx_drug, rx_day,
                 ev_pid, ev_code, ev_day,
                 patient_ids, drug_codes, event_codes,
                 duplicates_dropped=0):
        self.patients: dict[str, Patient] = patients
        self.patient_ids: list[str] = patient_ids
        self.drug_codes: list[str] = drug_codes
        self.event_codes: list[str] = event_codes
        self.duplicates_dropped = int(duplicates_dropped)

        self._pt_index = {pid: i for i, pid in enumerate(patient_ids)}
        self._drug_index = {d: i for i, d in enumerate(drug_codes)}
        self._event_index = {e: i for i, e in enumerate(event_codes)}

        self.rx_pid = rx_pid
        self.rx_drug = rx_drug
        self.rx_day = rx_day
        self.ev_pid = ev_pid
        self.ev_code = ev_code
        self.ev_day = ev_day

        n = len(patient_ids)
        self.registration = np.array(
            [patients[p].registration for p in patient_ids], dtype=np.int64)
        self.last_active = np.array(
            [patients[p].last_active for p in patient_ids], dtype=np.int64)

        # per-patient slices into the event / prescription columns
        self._ev_offsets = np.searchsorted(ev_pid, np.arange(n + 1))
        self._rx_offsets = np.searchsorted(rx_pid, np.arange(n + 1))
        # sorted packed (patient, day) key of every event, for window_pairs
        self._ev_key = ev_pid * _KEY_BASE + ev_day
        self._per_drug_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def from_records(cls, patient_rows, rx_rows, ev_rows):
        """Build a database from parsed in-memory rows.

        patient_rows: (patient_id, year_of_birth, Gender, reg_ord, death_ord|None)
        rx_rows: (patient_id, drug_code, day_ord)
        ev_rows: (patient_id, event_code, day_ord)
        """
        patient_ids = sorted(r[0] for r in patient_rows)
        if len(patient_ids) != len(set(patient_ids)):
            raise DataFormatError("duplicate patient_id in patients input")
        pt_index = {pid: i for i, pid in enumerate(patient_ids)}

        drug_codes = sorted({r[1] for r in rx_rows})
        event_codes = sorted({r[1] for r in ev_rows})
        drug_index = {d: i for i, d in enumerate(drug_codes)}
        event_index = {e: i for i, e in enumerate(event_codes)}

        def columns(rows, code_index, kind):
            pid = np.empty(len(rows), dtype=np.int64)
            code = np.empty(len(rows), dtype=np.int64)
            day = np.empty(len(rows), dtype=np.int64)
            for i, (p, c, d) in enumerate(rows):
                j = pt_index.get(p)
                if j is None:
                    raise DataFormatError(
                        f"unknown patient_id {p!r} in {kind} input")
                pid[i], code[i], day[i] = j, code_index[c], d
            order = np.lexsort((code, day, pid))
            pid, code, day = pid[order], code[order], day[order]
            if len(pid):
                stacked = np.stack([pid, code, day])
                keep = np.ones(len(pid), dtype=bool)
                keep[1:] = np.any(stacked[:, 1:] != stacked[:, :-1], axis=0)
                dropped = int((~keep).sum())
                pid, code, day = pid[keep], code[keep], day[keep]
            else:
                dropped = 0
            return pid, code, day, dropped

        rx_pid, rx_drug, rx_day, rx_dropped = columns(rx_rows, drug_index,
                                                      "prescriptions")
        ev_pid, ev_code, ev_day, ev_dropped = columns(ev_rows, event_index,
                                                      "events")
        dropped = rx_dropped + ev_dropped
        if dropped:
            log.warning("collapsed %d duplicate record rows", dropped)

        # last_active = max date of any record, or death date if later
        last_rec = np.full(len(patient_ids), np.iinfo(np.int64).min,
                           dtype=np.int64)
        for arr_pid, arr_day in ((rx_pid, rx_day), (ev_pid, ev_day)):
            if len(arr_pid):
                np.maximum.at(last_rec, arr_pid, arr_day)

        patients = {}
        for pid_str, yob, gender, reg, death in patient_rows:
            candidates = [reg, int(last_rec[pt_index[pid_str]])]
            if death is not None:
                candidates.append(death)
            patients[pid_str] = Patient(pid_str, yob, gender, reg,
                                        max(candidates), death)

        db = cls(patients, rx_pid, rx_drug, rx_day, ev_pid, ev_code, ev_day,
                 patient_ids, drug_codes, event_codes, dropped)
        db._validate()
        return db

    def _validate(self):
        for arr_pid, arr_day, kind in ((self.ev_pid, self.ev_day, "event"),
                                       (self.rx_pid, self.rx_day,
                                        "prescription")):
            if len(arr_pid) and np.any(arr_day < self.registration[arr_pid]):
                i = int(np.argmax(arr_day < self.registration[arr_pid]))
                pid = self.patient_ids[arr_pid[i]]
                raise DataFormatError(
                    f"{kind} for patient {pid} dated before registration")

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

    def events_for_patient(self, patient_id):
        """(code_idx, day) arrays for one patient, sorted by day."""
        i = self.patient_index(patient_id)
        lo, hi = self._ev_offsets[i], self._ev_offsets[i + 1]
        return self.ev_code[lo:hi], self.ev_day[lo:hi]

    def prescriptions_for_patient(self, patient_id):
        i = self.patient_index(patient_id)
        lo, hi = self._rx_offsets[i], self._rx_offsets[i + 1]
        return self.rx_drug[lo:hi], self.rx_day[lo:hi]

    def prescriptions_of_drug(self, drug_code: str):
        di = self._drug_index.get(drug_code)
        if di is None:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        if di not in self._per_drug_cache:
            mask = self.rx_drug == di
            self._per_drug_cache[di] = (self.rx_pid[mask], self.rx_day[mask])
        return self._per_drug_cache[di]


# -- CSV loading ----------------------------------------------------------

def _parse_date(text: str, path, row_no: int) -> int:
    try:
        return datetime.date.fromisoformat(text.strip()).toordinal()
    except ValueError:
        raise DataFormatError(
            f"{path}, row {row_no}: bad date {text!r}") from None


def _read_csv(path, required_columns):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in required_columns if c not in header]
        if missing:
            raise DataFormatError(f"{path}: missing columns {missing}")
        for row_no, row in enumerate(reader, start=2):
            yield row_no, row


def load_database(prescriptions_path, events_path, patients_path) -> Database:
    """Load and index the three-file CSV database.

    Hard errors (DataFormatError) name the offending file and row; exact
    duplicate rows are collapsed with a warning counter on the result.
    """
    patient_rows = []
    for row_no, row in _read_csv(patients_path,
                                 ["patient_id", "year_of_birth", "gender",
                                  "registration_date"]):
        pid = (row["patient_id"] or "").strip()
        if not pid:
            raise DataFormatError(f"{patients_path}, row {row_no}: "
                                  "missing patient_id")
        try:
            yob = int(row["year_of_birth"])
        except (TypeError, ValueError):
            raise DataFormatError(
                f"{patients_path}, row {row_no}: bad year_of_birth "
                f"{row['year_of_birth']!r}") from None
        gender = _GENDER_ALIASES.get((row["gender"] or "").strip().lower())
        if gender is None:
            raise DataFormatError(f"{patients_path}, row {row_no}: "
                                  f"bad gender {row['gender']!r}")
        reg = _parse_date(row["registration_date"], patients_path, row_no)
        death_text = (row.get("death_date") or "").strip()
        death = _parse_date(death_text, patients_path, row_no) if death_text else None
        patient_rows.append((pid, yob, gender, reg, death))

    def load_records(path, code_column):
        rows = []
        for row_no, row in _read_csv(path, ["patient_id", code_column, "date"]):
            pid = (row["patient_id"] or "").strip()
            code = (row[code_column] or "").strip()
            if not pid or not code:
                raise DataFormatError(f"{path}, row {row_no}: missing "
                                      f"patient_id or {code_column}")
            rows.append((pid, code, _parse_date(row["date"], path, row_no)))
        return rows

    rx_rows = load_records(prescriptions_path, "drug_code")
    ev_rows = load_records(events_path, "event_code")
    return Database.from_records(patient_rows, rx_rows, ev_rows)


# -- eligibility and windowed queries -------------------------------------

def extract_exposures(db: Database, config: StudyConfig) -> list[ExposureEpisode]:
    """Qualifying first-in-13-months prescriptions of the study drug.

    A prescription qualifies when no same-drug prescription precedes it by
    395 days or fewer, the patient has at least 365 days of history since
    registration, and the patient remains active for 30 days after.
    Patients may contribute several episodes; output is sorted by
    (patient_id, index_date) and independent of input row order.
    """
    pid, day = db.prescriptions_of_drug(config.drug_code)
    if len(pid) == 0:
        return []
    same_patient = np.zeros(len(pid), dtype=bool)
    same_patient[1:] = pid[1:] == pid[:-1]
    gap_ok = np.ones(len(pid), dtype=bool)
    gap_ok[1:] = day[1:] - day[:-1] > DAYS_13_MONTHS
    qualifies = (~same_patient | gap_ok)
    qualifies &= day - db.registration[pid] >= DAYS_12_MONTHS
    qualifies &= db.last_active[pid] - day >= MIN_ACTIVE_FOLLOWUP_DAYS

    episodes = []
    for i in np.flatnonzero(qualifies):
        p = db.patient_ids[pid[i]]
        idx = int(day[i])
        episodes.append(ExposureEpisode(
            p, config.drug_code, idx,
            min(idx + config.T, int(db.last_active[pid[i]]))))
    episodes.sort(key=lambda e: (e.patient_id, e.index_date))
    return episodes


def first_exposure_per_patient(exposures) -> list[ExposureEpisode]:
    """Keep only each patient's earliest episode (MUTARA/HUNT convention)."""
    seen = set()
    out = []
    for e in exposures:  # already sorted by (patient, index_date)
        if e.patient_id not in seen:
            seen.add(e.patient_id)
            out.append(e)
    return out


def episode_arrays(db: Database, exposures):
    """(patient index, index date) int64 arrays of a list of episodes."""
    pts = np.array([db.patient_index(e.patient_id) for e in exposures],
                   dtype=np.int64)
    idx = np.array([e.index_date for e in exposures], dtype=np.int64)
    return pts, idx


def window_pairs(db: Database, pts, lo_day, hi_day):
    """(row, code) of every event in a window: the windowed-count kernel.

    Window `row` is patient pts[row] over the inclusive days
    [lo_day[row], hi_day[row]]; a window with lo_day > hi_day is empty.
    Returns int64 arrays with one entry per event of that patient dated
    in the window, rows ascending.  Windows may overlap and a patient may
    have several.
    """
    lo = np.searchsorted(db._ev_key, pts * _KEY_BASE + lo_day)
    hi = np.searchsorted(db._ev_key, pts * _KEY_BASE + hi_day,
                         side="right")
    counts = np.maximum(hi - lo, 0)
    # expand to one entry per (window, in-window event) pair
    row = np.repeat(np.arange(len(lo)), counts)
    starts = np.cumsum(counts) - counts
    flat = np.repeat(lo - starts, counts) + np.arange(len(row))
    return row, db.ev_code[flat]


def count_events_in_window(db: Database, patient_id: str, window_start,
                           window_end, event_code: str) -> int:
    """Events of one code for one patient in [window_start, window_end]."""
    start, end = to_ordinal(window_start), to_ordinal(window_end)
    if start > end:
        raise ValueError("window_start must not exceed window_end")
    pts = np.array([db.patient_index(patient_id)], dtype=np.int64)
    _, code = window_pairs(db, pts, start, end)
    ci = db.event_index(event_code)
    if ci is None:
        return 0
    return int(np.bincount(code, minlength=len(db.event_codes))[ci])


def candidate_events(db: Database, exposures, T: int,
                     excluded: frozenset[str] = frozenset(),
                     include_day0: bool = False) -> set[str]:
    """Event codes occurring in the post-exposure risk window of >=1 episode.

    The default window is (index_date, index_date + T]; include_day0 pulls
    the prescription day itself into the window.
    """
    pts, idx = episode_arrays(db, exposures)
    _, code = window_pairs(db, pts, idx if include_day0 else idx + 1,
                           idx + T)
    return {db.event_codes[c] for c in np.unique(code)} - set(excluded)


def cohort_summary(db: Database, drug_code: str) -> dict:
    """Prescription-level cohort statistics for one drug.

    total counts every prescription (repeats included), first counts
    first-ever prescriptions per patient and thirteen_month applies the
    395-day first-in-13-months rule.  Ages use prescription year minus
    year of birth; gender_ratio is female/male prescriptions (None when
    no male prescriptions exist).
    """
    pid, day = db.prescriptions_of_drug(drug_code)
    total = int(len(pid))
    if total == 0:
        return {"total": 0, "first": 0, "thirteen_month": 0,
                "mean_age": None, "sd_age": None, "gender_ratio": None}
    first_mask = np.ones(total, dtype=bool)
    first_mask[1:] = pid[1:] != pid[:-1]
    gap = np.ones(total, dtype=bool)
    gap[1:] = (pid[1:] != pid[:-1]) | (day[1:] - day[:-1] > DAYS_13_MONTHS)

    years = np.array([from_ordinal(int(d)).year for d in day])
    yob = np.array([db.patients[db.patient_ids[i]].year_of_birth for i in pid])
    ages = years - yob
    genders = np.array([db.patients[db.patient_ids[i]].gender.value
                        for i in pid])
    females = int(np.count_nonzero(genders == "F"))
    males = int(np.count_nonzero(genders == "M"))
    return {
        "total": total,
        "first": int(first_mask.sum()),
        "thirteen_month": int(gap.sum()),
        "mean_age": float(ages.mean()),
        "sd_age": float(ages.std(ddof=0)),
        "gender_ratio": (females / males) if males else None,
    }
