"""Seeded synthetic longitudinal database generator with injected signals.

Produces patient histories with homogeneous-rate background events and
three kinds of injected drug-event signal: post-exposure excess (adr),
pre- and post-exposure excess (therapeutic_failure) and a spike on the
prescription day (day0_artifact).  Per-patient RNG streams are derived
from (seed, patient index) so output is byte-identical across runs and
independent of generation scheduling.
"""

from __future__ import annotations

import csv
import datetime
import functools
import io
import itertools
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .evaluation import AdrDictionary, AdrEntry
from .store import (Database, Gender, cache_database, first_per_patient,
                    from_ordinal, row_columns, window_pairs)

log = logging.getLogger(__name__)

ORIGIN = datetime.date(2010, 1, 1).toordinal()
ORIGIN_YEAR = 2010
# every patient gets a marker event at registration and at the end of the
# active span so the derived last-active date matches the planned one
VISIT_CODE = "clinic_visit"

INJECTION_KINDS = ("adr", "therapeutic_failure", "day0_artifact")


@dataclass(frozen=True)
class Injection:
    drug_code: str
    event_code: str
    relative_risk: float
    latency_window_days: int = 30
    kind: str = "adr"
    is_reaction_code: bool = False

    def __post_init__(self):
        if self.kind not in INJECTION_KINDS:
            raise ValueError(f"unknown injection kind {self.kind!r}")
        if self.relative_risk < 1:
            raise ValueError("relative_risk must be >= 1")
        if self.kind == "adr" and not 0 < self.latency_window_days <= 30:
            raise ValueError("adr latency window must be in (0, 30]")


@dataclass(frozen=True)
class DrugModel:
    prescription_rate: float   # probability a patient initiates the drug
    indication_event: tuple[str, float] | None = None  # (code, multiplier)
    repeat_rate: float = 0.0

    def __post_init__(self):
        if not 0 <= self.prescription_rate <= 1:
            raise ValueError("prescription_rate must be in [0, 1]")
        if not 0 <= self.repeat_rate < 1:
            raise ValueError("repeat_rate must be in [0, 1)")


@dataclass
class SynthConfig:
    n_patients: int
    years_span: int
    background_event_rates: dict[str, float]   # events per patient-year
    drug_models: dict[str, DrugModel]
    injections: list[Injection] = field(default_factory=list)
    rng_seed: int = 0
    dropout_prob: float = 0.05
    death_prob: float = 0.02

    def __post_init__(self):
        if self.n_patients <= 0 or self.years_span <= 0:
            raise ValueError("n_patients and years_span must be positive")
        for code, rate in self.background_event_rates.items():
            if rate < 0:
                raise ValueError(f"negative rate for event {code!r}")
        for inj in self.injections:
            if inj.drug_code not in self.drug_models:
                raise ValueError(
                    f"injection drug {inj.drug_code!r} has no drug model")
            if inj.event_code not in self.background_event_rates:
                raise ValueError(
                    f"injection event {inj.event_code!r} needs a background "
                    "rate entry (may be zero)")


def _bernoulli_prob(relative_risk: float, base_rate: float, window_days: int,
                    cap: float = 0.95) -> float:
    """Excess-occurrence probability for one injected signal."""
    if math.isinf(relative_risk):
        return cap
    return min(cap, (relative_risk - 1) * base_rate * window_days / 365.0)


@dataclass
class GenerationResult:
    """The generated records of one synthetic database, as columns.

    patient_rows holds (patient_id, year_of_birth, Gender, registration,
    death or None) in generation order.  rx and ev are record tables as
    `Database.from_columns` takes them: (pid_values, pid_index,
    code_values, code_index, day_ord), listing only the codes in use.
    Records are in no particular order and keep exact duplicates.
    """
    patient_rows: list
    rx: tuple
    ev: tuple
    injected_counts: dict[tuple[str, str], int]   # (drug, event) -> rows added


def _table(pid_values, records, code_values):
    """A from_columns record table of int (patient, code, day) rows."""
    pid, code, day = np.asarray(records, dtype=np.int64).reshape(-1, 3).T
    used, code = np.unique(code, return_inverse=True)
    return (pid_values, pid, [code_values[c] for c in used.tolist()], code,
            day)


def generate_tables(config: SynthConfig) -> GenerationResult:
    """Record columns of one synthetic database (deterministic per seed).

    Each patient draws from its own `default_rng([seed, index])` stream,
    in a fixed order that defines the output.  Background events are kept
    as per-patient counts and day arrays; the few visit, indication,
    injected and prescription rows as flat (patient, code, day) ints.
    """
    n = config.n_patients
    span_days = config.years_span * 365
    codes = sorted(config.background_event_rates)
    rates = np.array([config.background_event_rates[c] for c in codes])
    # event code indices: the background codes in sorted order, then the
    # visit marker and any indication code without a background rate
    event_index = {code: i for i, code in enumerate(codes)}
    visit = event_index.setdefault(VISIT_CODE, len(event_index))
    for model in config.drug_models.values():
        if model.indication_event is not None:
            event_index.setdefault(model.indication_event[0],
                                   len(event_index))
    drugs = sorted(config.drug_models)
    inj_by_drug: dict[str, list[Injection]] = {}
    for inj in config.injections:
        inj_by_drug.setdefault(inj.drug_code, []).append(inj)

    patient_rows = []
    reg_end = np.empty((n, 2), dtype=np.int64)
    counts = np.empty((n, len(codes)), dtype=np.int64)
    bg_days = [np.empty(0, dtype=np.int64)]
    rx, extra = [], []   # flat (patient, code index, day) ints
    injected = {(i.drug_code, i.event_code): 0 for i in config.injections}

    for i in range(n):
        rng = np.random.default_rng([config.rng_seed, i])
        reg = ORIGIN + int(rng.integers(0, max(1, span_days - 540)))
        end = ORIGIN + span_days
        if rng.random() < config.dropout_prob and reg + 540 < end:
            end = reg + 540 + int(rng.integers(0, end - reg - 540))
        death = end if rng.random() < config.death_prob else None
        yob = ORIGIN_YEAR - int(rng.integers(20, 86))
        gender = Gender.FEMALE if rng.random() < 0.5 else Gender.MALE
        patient_rows.append((f"p{i:07d}", yob, gender, reg, death))
        reg_end[i] = reg, end

        counts[i] = rng.poisson(rates * ((end - reg) / 365.0))
        total = int(counts[i].sum())
        if total:
            bg_days.append(rng.integers(reg, end + 1, size=total))

        for d, drug in enumerate(drugs):
            model = config.drug_models[drug]
            if rng.random() >= model.prescription_rate:
                continue
            lo, hi = reg + 380, end - 45
            if hi <= lo:
                continue
            t0 = int(rng.integers(lo, hi + 1))
            rx += (i, d, t0)
            k = 1
            while rng.random() < model.repeat_rate and t0 + 28 * k <= end:
                rx += (i, d, t0 + 28 * k)
                k += 1

            if model.indication_event is not None:
                code, mult = model.indication_event
                base = config.background_event_rates.get(code, 0.0)
                n_extra = int(rng.poisson(max(0.0, (mult - 1) * base
                                              * 60 / 365.0)))
                for day in rng.integers(t0 - 60, t0, size=n_extra).tolist():
                    extra += (i, event_index[code], day)

            for inj in inj_by_drug.get(drug, ()):
                base = config.background_event_rates[inj.event_code]
                code = event_index[inj.event_code]
                if inj.kind == "adr":
                    p = _bernoulli_prob(inj.relative_risk, base,
                                        inj.latency_window_days)
                    if rng.random() < p:
                        extra += (i, code, t0 + 1 + int(rng.integers(
                            0, inj.latency_window_days)))
                        injected[(drug, inj.event_code)] += 1
                elif inj.kind == "therapeutic_failure":
                    p_post = _bernoulli_prob(inj.relative_risk, base, 30,
                                             cap=0.9)
                    if rng.random() < p_post:
                        extra += (i, code, t0 + 1 + int(rng.integers(0, 30)))
                        injected[(drug, inj.event_code)] += 1
                    # pre-exposure excess sits in [t0-180, t0-31] so the
                    # month directly before the prescription stays clean
                    p_pre = _bernoulli_prob(inj.relative_risk, base, 150,
                                            cap=0.9)
                    if rng.random() < p_pre:
                        extra += (i, code,
                                  t0 - 180 + int(rng.integers(0, 150)))
                else:  # day0_artifact: an ADR-like excess that is reported
                    # on the prescription day itself much of the time, so
                    # the day-0 IC dominates the follow-up IC
                    p = _bernoulli_prob(inj.relative_risk, base, 30)
                    if rng.random() < p:
                        extra += (i, code, t0)
                        injected[(drug, inj.event_code)] += 1
                    if rng.random() < 0.5 * p:
                        extra += (i, code, t0 + 1 + int(rng.integers(0, 30)))
                        injected[(drug, inj.event_code)] += 1

    patients = np.arange(n)
    background = np.stack([
        np.repeat(patients, counts.sum(axis=1)),
        np.repeat(np.tile(np.arange(len(codes)), n), counts.ravel()),
        np.concatenate(bg_days)], axis=1)
    visits = np.stack([np.repeat(patients, 2), np.full(2 * n, visit),
                       reg_end.ravel()], axis=1)
    events = np.concatenate([visits, background,
                             np.array(extra, dtype=np.int64).reshape(-1, 3)])
    pid_values = [row[0] for row in patient_rows]
    return GenerationResult(patient_rows, _table(pid_values, rx, drugs),
                            _table(pid_values, events, list(event_index)),
                            injected)


def build_database(config: SynthConfig) -> tuple[Database, GenerationResult]:
    result = generate_tables(config)
    db = Database.from_columns(row_columns(result.patient_rows, 5),
                               result.rx, result.ev)
    return db, result


def realized_truth(db: Database, config: SynthConfig) -> AdrDictionary:
    """Recount realized post-exposure occurrences and build the dictionary.

    Injections whose event never materialised in a latency window are
    dropped with a warning; frequency classes come from terciles of the
    realized per-exposure incidence.
    """
    realized = []
    for inj in config.injections:
        if inj.kind != "adr":
            continue
        pts, idx = first_per_patient(*db.episodes(inj.drug_code))
        _, code = window_pairs(db, pts, idx + 1,
                               idx + inj.latency_window_days)
        ci = db.event_index(inj.event_code)
        observed = 0 if ci is None else int(np.count_nonzero(code == ci))
        if observed == 0:
            log.warning("injection (%s, %s) had no realized occurrences; "
                        "dropped from ground truth", inj.drug_code,
                        inj.event_code)
            continue
        incidence = observed / max(1, len(pts))
        realized.append((incidence, inj))

    entries = {}
    ordered = sorted(realized,
                     key=lambda t: (t[0], t[1].drug_code, t[1].event_code))
    n = len(ordered)
    for pos, (_, inj) in enumerate(ordered):   # by incidence tercile
        freq = ("rare", "less_frequent", "frequent")[pos * 3 // n]
        entries[(inj.drug_code, inj.event_code)] = AdrEntry(
            freq, inj.is_reaction_code)
    return AdrDictionary(entries)


# -- file emission --------------------------------------------------------

def _ranks(texts) -> np.ndarray:
    """Position of each text in sorted order."""
    rank = np.empty(len(texts), dtype=np.int64)
    rank[sorted(range(len(texts)), key=texts.__getitem__)] = \
        np.arange(len(texts))
    return rank


def _csv_fields(texts) -> np.ndarray:
    """Each text as csv.writer writes it in a row of several fields.

    A lone empty field is written as "" but an empty field among others
    is not, so each text is written in a row with a second, empty field;
    its piece keeps the delimiter.  Returns an object array.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    # writerow returns the number of characters it wrote
    ends = list(itertools.accumulate(writer.writerow((t, "")) for t in texts))
    text = buf.getvalue()
    return np.array([text[a:b - len(writer.dialect.lineterminator)]
                     for a, b in zip([0, *ends], ends)], dtype=object)


def _write_records(path, header, table) -> None:
    """A record CSV in sorted (patient_id, code, day) order.

    Rows are those csv.writer writes for the sorted (patient_id, code,
    day) tuples, duplicates included: ids and codes sort by the rank of
    their strings, and each distinct id, code and day is formatted once.
    """
    pid_values, pid, code_values, code, day = table
    order = np.lexsort((day, _ranks(code_values)[code],
                        _ranks(pid_values)[pid]))
    days, day_index = np.unique(day[order], return_inverse=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        dates = np.array([from_ordinal(d).isoformat()
                          + writer.dialect.lineterminator
                          for d in days.tolist()], dtype=object)
        columns = (_csv_fields(pid_values)[pid[order]],
                   _csv_fields(code_values)[code[order]], dates[day_index])
        fh.write("".join(itertools.chain.from_iterable(
            zip(*(column.tolist() for column in columns)))))


def generate(config: SynthConfig, out_dir, cache: bool = True
             ) -> dict[str, Path]:
    """Write the CSV database plus ground_truth.csv; returns the paths.

    With cache, the database built here is stored in the load cache as
    the files' load_database result (see store.cache_database).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    db, result = build_database(config)

    paths = {
        "patients": out / "patients.csv",
        "prescriptions": out / "prescriptions.csv",
        "events": out / "events.csv",
        "ground_truth": out / "ground_truth.csv",
    }
    iso = functools.cache(lambda day: from_ordinal(day).isoformat())
    with open(paths["patients"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "year_of_birth", "gender",
                         "registration_date", "death_date"])
        writer.writerows([pid, yob, gender.value, iso(reg),
                          iso(death) if death else ""]
                         for pid, yob, gender, reg, death
                         in result.patient_rows)
    _write_records(paths["prescriptions"], ["patient_id", "drug_code", "date"],
                   result.rx)
    _write_records(paths["events"], ["patient_id", "event_code", "date"],
                   result.ev)

    realized_truth(db, config).to_csv(paths["ground_truth"])
    if cache:
        log.info("load cache: %s", cache_database(
            db, paths["prescriptions"], paths["events"], paths["patients"]))
    return paths
