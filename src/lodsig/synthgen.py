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
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .evaluation import AdrDictionary, AdrEntry
from .store import (Database, Gender, StudyConfig, episode_arrays,
                    extract_exposures, first_exposure_per_patient,
                    from_ordinal, window_pairs)

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
    patient_rows: list
    rx_rows: list
    ev_rows: list
    injected_counts: dict[tuple[str, str], int]   # (drug, event) -> rows added


def generate_tables(config: SynthConfig) -> GenerationResult:
    """Raw record rows for one synthetic database (deterministic per seed)."""
    span_days = config.years_span * 365
    codes = sorted(config.background_event_rates)
    rates = np.array([config.background_event_rates[c] for c in codes])
    inj_by_drug: dict[str, list[Injection]] = {}
    for inj in config.injections:
        inj_by_drug.setdefault(inj.drug_code, []).append(inj)

    patient_rows, rx_rows, ev_rows = [], [], []
    injected = {(i.drug_code, i.event_code): 0 for i in config.injections}

    for i in range(config.n_patients):
        rng = np.random.default_rng([config.rng_seed, i])
        pid = f"p{i:07d}"
        reg = ORIGIN + int(rng.integers(0, max(1, span_days - 540)))
        end = ORIGIN + span_days
        if rng.random() < config.dropout_prob and reg + 540 < end:
            end = reg + 540 + int(rng.integers(0, end - reg - 540))
        death = end if rng.random() < config.death_prob else None
        yob = ORIGIN_YEAR - int(rng.integers(20, 86))
        gender = Gender.FEMALE if rng.random() < 0.5 else Gender.MALE
        patient_rows.append((pid, yob, gender, reg, death))

        ev_rows.append((pid, VISIT_CODE, reg))
        ev_rows.append((pid, VISIT_CODE, end))

        active_years = (end - reg) / 365.0
        counts = rng.poisson(rates * active_years)
        total = int(counts.sum())
        if total:
            days = rng.integers(reg, end + 1, size=total)
            for code, day in zip(np.repeat(codes, counts), days):
                ev_rows.append((pid, str(code), int(day)))

        for drug in sorted(config.drug_models):
            model = config.drug_models[drug]
            if rng.random() >= model.prescription_rate:
                continue
            lo, hi = reg + 380, end - 45
            if hi <= lo:
                continue
            t0 = int(rng.integers(lo, hi + 1))
            rx_rows.append((pid, drug, t0))
            k = 1
            while rng.random() < model.repeat_rate and t0 + 28 * k <= end:
                rx_rows.append((pid, drug, t0 + 28 * k))
                k += 1

            if model.indication_event is not None:
                code, mult = model.indication_event
                base = config.background_event_rates.get(code, 0.0)
                n_extra = int(rng.poisson(max(0.0, (mult - 1) * base
                                              * 60 / 365.0)))
                for day in rng.integers(t0 - 60, t0, size=n_extra):
                    ev_rows.append((pid, code, int(day)))

            for inj in inj_by_drug.get(drug, ()):
                base = config.background_event_rates[inj.event_code]
                if inj.kind == "adr":
                    p = _bernoulli_prob(inj.relative_risk, base,
                                        inj.latency_window_days)
                    if rng.random() < p:
                        day = t0 + 1 + int(rng.integers(
                            0, inj.latency_window_days))
                        ev_rows.append((pid, inj.event_code, day))
                        injected[(drug, inj.event_code)] += 1
                elif inj.kind == "therapeutic_failure":
                    p_post = _bernoulli_prob(inj.relative_risk, base, 30,
                                             cap=0.9)
                    if rng.random() < p_post:
                        day = t0 + 1 + int(rng.integers(0, 30))
                        ev_rows.append((pid, inj.event_code, day))
                        injected[(drug, inj.event_code)] += 1
                    # pre-exposure excess sits in [t0-180, t0-31] so the
                    # month directly before the prescription stays clean
                    p_pre = _bernoulli_prob(inj.relative_risk, base, 150,
                                            cap=0.9)
                    if rng.random() < p_pre:
                        day = t0 - 180 + int(rng.integers(0, 150))
                        ev_rows.append((pid, inj.event_code, day))
                else:  # day0_artifact: an ADR-like excess that is reported
                    # on the prescription day itself much of the time, so
                    # the day-0 IC dominates the follow-up IC
                    p = _bernoulli_prob(inj.relative_risk, base, 30)
                    if rng.random() < p:
                        ev_rows.append((pid, inj.event_code, t0))
                        injected[(drug, inj.event_code)] += 1
                    if rng.random() < 0.5 * p:
                        day = t0 + 1 + int(rng.integers(0, 30))
                        ev_rows.append((pid, inj.event_code, day))
                        injected[(drug, inj.event_code)] += 1

    return GenerationResult(patient_rows, rx_rows, ev_rows, injected)


def build_database(config: SynthConfig) -> tuple[Database, GenerationResult]:
    result = generate_tables(config)
    db = Database.from_records(result.patient_rows, result.rx_rows,
                               result.ev_rows)
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
        exposures = first_exposure_per_patient(extract_exposures(
            db, StudyConfig(drug_code=inj.drug_code)))
        pts, idx = episode_arrays(db, exposures)
        _, code = window_pairs(db, pts, idx + 1,
                               idx + inj.latency_window_days)
        ci = db.event_index(inj.event_code)
        observed = 0 if ci is None else int(np.count_nonzero(code == ci))
        if observed == 0:
            log.warning("injection (%s, %s) had no realized occurrences; "
                        "dropped from ground truth", inj.drug_code,
                        inj.event_code)
            continue
        incidence = observed / max(1, len(exposures))
        realized.append((incidence, inj))

    entries = {}
    ordered = sorted(realized,
                     key=lambda t: (t[0], t[1].drug_code, t[1].event_code))
    n = len(ordered)
    for pos, (_, inj) in enumerate(ordered):
        if pos * 3 < n:
            freq = "rare"
        elif pos * 3 < 2 * n:
            freq = "less_frequent"
        else:
            freq = "frequent"
        entries[(inj.drug_code, inj.event_code)] = AdrEntry(
            freq, inj.is_reaction_code)
    return AdrDictionary(entries)


# -- file emission --------------------------------------------------------

def generate(config: SynthConfig, out_dir) -> dict[str, Path]:
    """Write the CSV database plus ground_truth.csv; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    db, result = build_database(config)

    paths = {
        "patients": out / "patients.csv",
        "prescriptions": out / "prescriptions.csv",
        "events": out / "events.csv",
        "ground_truth": out / "ground_truth.csv",
    }
    with open(paths["patients"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "year_of_birth", "gender",
                         "registration_date", "death_date"])
        for pid, yob, gender, reg, death in result.patient_rows:
            writer.writerow([pid, yob, gender.value,
                             from_ordinal(reg).isoformat(),
                             from_ordinal(death).isoformat() if death else ""])
    with open(paths["prescriptions"], "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "drug_code", "date"])
        for pid, drug, day in sorted(result.rx_rows):
            writer.writerow([pid, drug, from_ordinal(day).isoformat()])
    with open(paths["events"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "event_code", "date"])
        for pid, code, day in sorted(result.ev_rows):
            writer.writerow([pid, code, from_ordinal(day).isoformat()])

    realized_truth(db, config).to_csv(paths["ground_truth"])
    return paths
