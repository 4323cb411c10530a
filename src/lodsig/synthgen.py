"""Seeded synthetic longitudinal database generator with injected signals.

Produces patient histories with homogeneous-rate background events and
three kinds of injected drug-event signal: post-exposure excess (adr),
pre- and post-exposure excess (therapeutic_failure) and a spike on the
prescription day (day0_artifact).  Each patient draws from the stream
of `np.random.default_rng([seed, patient index])`, so output is
byte-identical across runs and independent of generation scheduling.

The streams' starting states are derived for all patients in one
vectorised pass (a port of numpy's SeedSequence and PCG64 seeding), each
block of patients has its PCG64 raw outputs drawn into one buffer, and
ports of numpy's samplers to those raw outputs (random and Lemire's
bounded integers) make each draw for the whole block at once; numpy's
Generator draws every Poisson count, a patient at a time from a PCG64
moved to its position.  Both are in `lodsig.streams`.
tests/test_synthgen.py checks them against numpy call for call, and
tests/test_synthgen_oracle.py the generator against the per-patient
default_rng generator it replaced.
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

from .evaluation import AdrDictionary, AdrEntry, write_csv
from .store import (Database, Gender, _int, _real, cache_database,
                    first_per_patient, record_order, row_columns, window_pairs)
from .streams import _pcg64_states, _Streams

log = logging.getLogger(__name__)

ORIGIN = datetime.date(2010, 1, 1).toordinal()
ORIGIN_YEAR = 2010
_LAST_DAY = datetime.date.max.toordinal()
# every patient gets a marker event at registration and at the end of the
# active span so the derived last-active date matches the planned one
VISIT_CODE = "clinic_visit"

INJECTION_KINDS = ("adr", "therapeutic_failure", "day0_artifact")

# each block of patients draws its PCG64 outputs into one buffer of about
# this many uint64s (1 MB); test_generate_peak sets the ceiling
_BLOCK_RAWS = 2 ** 17
# the largest Poisson mean numpy draws from (POISSON_LAM_MAX in
# numpy/random/_common.pyx)
_POISSON_MEAN_MAX = (np.iinfo(np.int64).max
                     - math.sqrt(np.iinfo(np.int64).max) * 10)
# record CSVs are formatted and written this many rows at a time
_WRITE_ROWS = 2 ** 16


@dataclass(frozen=True)
class Injection:
    drug_code: str
    event_code: str
    relative_risk: float
    latency_window_days: int = 30
    kind: str = "adr"
    is_reaction_code: bool = False

    def __post_init__(self):
        for key in ("drug_code", "event_code"):
            if not isinstance(getattr(self, key), str):
                raise ValueError(f"injection {key} must be a string, not "
                                 f"{getattr(self, key)!r}")
        name = f"{self.event_code!r} for {self.drug_code!r}"
        object.__setattr__(self, "relative_risk", _real(
            f"relative_risk of {name}", self.relative_risk))
        object.__setattr__(self, "latency_window_days", _int(
            f"latency_window_days of {name}", self.latency_window_days))
        # bool('false') is True
        if not isinstance(self.is_reaction_code, bool):
            raise ValueError(f"is_reaction_code of {name} must be a "
                             f"boolean, not {self.is_reaction_code!r}")
        if self.kind not in INJECTION_KINDS:
            raise ValueError(f"unknown injection kind {self.kind!r}")
        if not self.relative_risk >= 1:   # NaN included
            raise ValueError(f"relative_risk of {name} must be at least 1, "
                             f"not {self.relative_risk}")
        if self.kind == "adr" and not 0 < self.latency_window_days <= 30:
            raise ValueError("adr latency window must be in (0, 30]")


@dataclass(frozen=True)
class DrugModel:
    prescription_rate: float   # probability a patient initiates the drug
    indication_event: tuple[str, float] | None = None  # (code, multiplier)
    repeat_rate: float = 0.0

    def __post_init__(self):
        for name in ("prescription_rate", "repeat_rate"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        match self.indication_event:
            case None:
                pass
            case [str() as code, mult]:   # a tuple, or a list from YAML
                object.__setattr__(self, "indication_event", (
                    code, _real(f"indication multiplier of {code!r}", mult)))
            case other:
                raise ValueError("indication_event must be [code, "
                                 f"multiplier], not {other!r}")
        if not 0 <= self.prescription_rate <= 1:
            raise ValueError("prescription_rate must be in [0, 1]")
        if not 0 <= self.repeat_rate < 1:
            raise ValueError("repeat_rate must be in [0, 1)")


@dataclass
class SynthConfig:
    n_patients: int
    years_span: int
    background_event_rates: dict[str, float]   # events per patient-year
    drug_models: dict[str, DrugModel] = field(default_factory=dict)
    injections: list[Injection] = field(default_factory=list)
    rng_seed: int = 0
    dropout_prob: float = 0.05
    death_prob: float = 0.02

    def __post_init__(self):
        for name in ("n_patients", "years_span", "rng_seed"):
            setattr(self, name, _int(name, getattr(self, name)))
        if self.n_patients <= 0 or self.years_span <= 0:
            raise ValueError("n_patients and years_span must be positive")
        if self.n_patients >= 2 ** 31:   # one uint32 seed word, int32 rows
            raise ValueError("n_patients must be below 2**31")
        # the last day must be a date; the samplers also need every day
        # range below 2**32 (see streams._Streams.integers)
        if ORIGIN + 365 * self.years_span > _LAST_DAY:
            raise ValueError(f"years_span must be at most "
                             f"{(_LAST_DAY - ORIGIN) // 365}, not "
                             f"{self.years_span}")
        if self.rng_seed < 0:
            raise ValueError(
                f"rng_seed must be non-negative, not {self.rng_seed}")
        # YAML reads a key such as 7 as an integer, not as a code
        for key in ("background_event_rates", "drug_models"):
            bad = [c for c in getattr(self, key) if not isinstance(c, str)]
            if bad:
                raise ValueError(f"{key} codes must be strings, not {bad}")
        rates = self.background_event_rates = {
            code: _real(f"background rate of {code!r}", rate)
            for code, rate in self.background_event_rates.items()}
        for code, rate in rates.items():
            # a patient's Poisson mean is rate times at most years_span
            if not (rate >= 0
                    and rate * self.years_span <= _POISSON_MEAN_MAX):
                raise ValueError(
                    f"background rate of {code!r} must be in [0, "
                    f"{_POISSON_MEAN_MAX / self.years_span:.4g}] events per "
                    f"patient-year, not {rate}")
        for drug, model in self.drug_models.items():
            if model.indication_event is not None:
                code, mult = model.indication_event
                mean = _indication_mean(mult, rates.get(code, 0.0))
                if not (math.isfinite(mult) and mean <= _POISSON_MEAN_MAX):
                    raise ValueError(
                        f"indication multiplier of {code!r} for {drug!r} "
                        f"must be finite and keep the Poisson mean at most "
                        f"{_POISSON_MEAN_MAX:.4g}, not {mult}")
        for inj in self.injections:
            if inj.drug_code not in self.drug_models:
                raise ValueError(
                    f"injection drug {inj.drug_code!r} has no drug model")
            if inj.event_code not in self.background_event_rates:
                raise ValueError(
                    f"injection event {inj.event_code!r} needs a background "
                    "rate entry (may be zero)")


def _indication_mean(mult: float, base_rate: float) -> float:
    """Poisson mean of the extra events in the 60 days before a
    prescription of a drug whose indication multiplies base_rate."""
    return max(0.0, (mult - 1) * base_rate * 60 / 365.0)


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


def _intern(values):
    """(distinct values in increasing order, each value's position among
    them) of an int array, by a presence mask over its range."""
    if not len(values):
        return values, values
    low = int(values.min())
    offset = values - low
    present = np.zeros(int(offset.max()) + 1, dtype=bool)
    present[offset] = True
    return np.flatnonzero(present) + low, (np.cumsum(present) - 1)[offset]


def _table(pid_values, pid, code, day, code_values):
    """A from_columns record table of int patient, code and day columns."""
    used, code = _intern(code)
    return (pid_values, pid, [code_values[c] for c in used.tolist()], code,
            day)


def _drug_plan(config: SynthConfig, drug: str, event_index):
    """What every patient's draws for one drug use, computed once:
    (prescription rate, repeat rate, indication, draws).

    indication is None or (code index, Poisson mean of the extra
    pre-prescription events).  Each injection adds its draws, in stream
    order, as (code index, injected-count key, p, first, days, counted):
    with probability p, one event on a day drawn from the `days` days
    that start `first` days after the prescription, counted as injected
    or not.
    """
    rates = config.background_event_rates
    model = config.drug_models[drug]
    indication = None
    if model.indication_event is not None:
        code, mult = model.indication_event
        base = rates.get(code, 0.0)
        indication = (event_index[code], _indication_mean(mult, base))
    draws = []
    for inj in config.injections:
        if inj.drug_code != drug:
            continue
        prob = functools.partial(_bernoulli_prob, inj.relative_risk,
                                 rates[inj.event_code])
        if inj.kind == "adr":
            latency = inj.latency_window_days
            shape = [(prob(latency), 1, latency, True)]
        elif inj.kind == "therapeutic_failure":
            # the pre-exposure excess sits in [t0-180, t0-31] so the
            # month directly before the prescription stays clean
            shape = [(prob(30, cap=0.9), 1, 30, True),
                     (prob(150, cap=0.9), -180, 150, False)]
        else:  # day0_artifact: an ADR-like excess, often reported on the
            # prescription day itself so that the day-0 IC dominates the
            # follow-up IC; integers(0, 1) is 0 and draws nothing
            p = prob(30)
            shape = [(p, 0, 1, True), (0.5 * p, 1, 30, True)]
        draws += [(event_index[inj.event_code], (drug, inj.event_code), *d)
                  for d in shape]
    return model.prescription_rate, model.repeat_rate, indication, draws


def _first_width(config: SynthConfig, plans) -> int:
    """Raws to draw for each patient at first: the mean a patient reads,
    estimated generously, plus four times its square root.  Fewer make
    a block be drawn again; more make blocks hold fewer patients."""
    span_days = config.years_span * 365

    def poisson(mean):   # raws of one Poisson draw and of that many days,
        # for a mean at most this (by multiplication up to 10, PTRS after)
        return (0 if mean == 0 else 1 + min(mean, 10)) + mean / 2
    raws = 6 + sum(poisson(rate * config.years_span)
                   for rate in config.background_event_rates.values())
    for _, repeat_rate, indication, draws in plans:
        raws += (3 + min(1 / (1 - repeat_rate), span_days / 28)
                 + 1.5 * len(draws))
        if indication is not None:
            raws += poisson(indication[1])
    return int(raws + 4 * math.sqrt(raws)) + 16


def _draw_block(s: _Streams, config: SynthConfig, visit, background,
                plans):
    """Every patient's draws of one block, in numpy's order for each
    patient, made for all of them at once.  background = (rates, drawn):
    the nonzero background rates and their codes; visit is the visit
    marker's code.

    Returns (reg, end, death, yob, female) arrays, the (rows, code,
    days) record groups of the prescriptions and of the events (visits,
    background, then the extra ones), and (key, rows added) pairs of the
    injected counts.  A group's code is one code or one a row.
    """
    every = np.arange(len(s.states))
    span_days = config.years_span * 365
    rates, drawn = background
    reg = ORIGIN + s.integers(every, max(1, span_days - 540) - 1)
    end = np.full(len(every), ORIGIN + span_days)
    drop = np.flatnonzero((s.random(every) < config.dropout_prob)
                          & (reg + 540 < end))
    end[drop] = reg[drop] + 540 + s.integers(drop, end[drop] - reg[drop] - 541)
    death = s.random(every) < config.death_prob
    yob = ORIGIN_YEAR - 20 - s.integers(every, 65)
    female = s.random(every) < 0.5

    # the background counts, a row a patient by the drawn codes, at means
    # of years times rate; each patient's days follow its codes in order
    span = end - reg
    counts = s.poisson(every, span / 365.0, rates)
    total = counts.sum(axis=1)
    events = [(np.repeat(every, 2), visit,
               np.column_stack((reg, end)).ravel()),
              (np.repeat(every, total),
               np.repeat(np.broadcast_to(drawn, counts.shape), counts.ravel()),
               np.repeat(reg, total) + s.integers_each(every, total, span))]

    lo, hi = reg + 380, end - 45
    rx = []
    injected = []   # (key, rows added)
    for d, (rate, repeat_rate, indication, draws) in enumerate(plans):
        took = np.flatnonzero((s.random(every) < rate) & (hi > lo))
        t0 = lo[took] + s.integers(took, hi[took] - lo[took])
        rx.append((took, d, t0))
        on, day, k = took, t0, 1
        while on.size:
            keep = (s.random(on) < repeat_rate) & (day + 28 * k <= end[on])
            on, day = on[keep], day[keep]
            rx.append((on, d, day + 28 * k))
            k += 1

        if indication is not None:
            code, mean = indication
            n_extra = s.poisson(took, np.ones(len(took)),
                                np.array([mean]))[:, 0]
            events.append((np.repeat(took, n_extra), code,
                           np.repeat(t0 - 60, n_extra) + s.integers_each(
                               took, n_extra, np.full(len(took), 59))))

        for code, key, p, first, days, counted in draws:
            hit = s.random(took) < p
            events.append((took[hit], code, t0[hit] + first
                           + s.integers(took[hit], days - 1)))
            injected.append((key, counted * int(hit.sum())))
    return (reg, end, death, yob, female), rx, events, injected


def generate_tables(config: SynthConfig) -> GenerationResult:
    """Record columns of one synthetic database (deterministic per seed).

    Each patient draws from its own `default_rng([seed, index])` stream,
    in a fixed order that defines the output.  The streams' PCG64 states
    are derived for all patients in one pass (`_pcg64_states`), and the
    patients are drawn in blocks of about _BLOCK_RAWS raw outputs, every
    draw for a whole block at once (`_Streams`, `_draw_block`).  Each
    block's records are kept as (patient, code, day) columns, int32
    patients and codes and int64 days, which are joined a column at a
    time once every block is drawn.
    """
    n = config.n_patients
    codes = sorted(config.background_event_rates)
    rate_list = np.array([config.background_event_rates[c] for c in codes])
    # a rate of 0 draws nothing
    drawn = np.flatnonzero(rate_list)
    # event code indices: the background codes in sorted order, then the
    # visit marker and any indication code without a background rate
    event_index = {code: i for i, code in enumerate(codes)}
    visit = event_index.setdefault(VISIT_CODE, len(event_index))
    for model in config.drug_models.values():
        if model.indication_event is not None:
            event_index.setdefault(model.indication_event[0],
                                   len(event_index))
    drugs = sorted(config.drug_models)
    plans = [_drug_plan(config, drug, event_index) for drug in drugs]

    states = _pcg64_states(config.rng_seed, n)
    width = _first_width(config, plans)
    patient_rows = []
    # each table's patient, code and day parts
    rx, ev = ([], [], []), ([], [], [])
    injected = {(i.drug_code, i.event_code): 0 for i in config.injections}
    start = 0
    while start < n:
        stop = min(n, start + max(1, _BLOCK_RAWS // width))
        streams = _Streams(states[start:stop], width)
        block = _draw_block(streams, config, visit,
                            (rate_list[drawn], drawn), plans)
        if streams.overflowed():
            width *= 2
            continue
        (reg, end, death, yob, female), block_rx, block_ev, \
            block_injected = block
        patient_rows += zip(
            [f"p{i:07d}" for i in range(start, stop)], yob.tolist(),
            [Gender.FEMALE if f else Gender.MALE for f in female.tolist()],
            reg.tolist(),
            [e if d else None for e, d in zip(end.tolist(), death.tolist())])
        for parts, groups in ((rx, block_rx), (ev, block_ev)):
            for rows, code, days in groups:
                parts[0].append((rows + start).astype(np.int32))
                parts[1].append(np.full(len(rows), code, dtype=np.int32))
                parts[2].append(days)
        for key, added in block_injected:
            injected[key] += added
        start = stop
    del states

    def join(parts):
        # int32 patients and codes stay int32, and days int64
        column = np.concatenate([np.zeros(0, dtype=np.int32), *parts])
        parts.clear()
        return column
    pid_values = [row[0] for row in patient_rows]
    return GenerationResult(
        patient_rows,
        *(_table(pid_values, *map(join, parts), names)
          for parts, names in ((rx, drugs), (ev, list(event_index)))),
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
        code = window_pairs(db, pts, idx + 1,
                            idx + inj.latency_window_days)[1]
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


def _write_records(path, header, table, pid_ranks, pid_fields) -> None:
    """A record CSV in sorted (patient_id, code, day) order.

    Rows are those csv.writer writes for the sorted (patient_id, code,
    day) tuples, duplicates included: ids and codes sort by the rank of
    their strings (pid_ranks, the _ranks of the table's patient ids), and
    each distinct id (pid_fields, their _csv_fields), code and day is
    formatted once.  The rows are formatted and written _WRITE_ROWS at a
    time.
    """
    _, pid, code_values, code, day = table
    order = record_order(pid_ranks[pid], _ranks(code_values)[code], day)
    days, day_index = _intern(day)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        dates = np.array([datetime.date.fromordinal(d).isoformat()
                          + writer.dialect.lineterminator
                          for d in days.tolist()], dtype=object)
        fields = ((pid_fields, pid),
                  (_csv_fields(code_values), code), (dates, day_index))
        for start in range(0, len(order), _WRITE_ROWS):
            rows = order[start:start + _WRITE_ROWS]
            fh.write("".join(itertools.chain.from_iterable(zip(
                *(text[index[rows]].tolist() for text, index in fields)))))


def generate(config: SynthConfig, out_dir, cache: bool = True
             ) -> dict[str, Path]:
    """Write the CSV database plus ground_truth.csv; returns the paths.

    With cache, the database built here is stored in the load cache as
    the files' load_database result (see store.cache_database).  The
    directory is made first, so an output that cannot be one fails before
    any patient is drawn.  The files are written from the generated tables
    before the Database is built, and the tables are dropped once it is.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = generate_tables(config)

    paths = {
        "patients": out / "patients.csv",
        "prescriptions": out / "prescriptions.csv",
        "events": out / "events.csv",
        "ground_truth": out / "ground_truth.csv",
    }
    iso = functools.cache(lambda d: datetime.date.fromordinal(d).isoformat())
    write_csv(paths["patients"], ["patient_id", "year_of_birth", "gender",
                                  "registration_date", "death_date"],
              ([pid, yob, gender.value, iso(reg), iso(death) if death else ""]
               for pid, yob, gender, reg, death in result.patient_rows))
    # both record tables list the same patient ids
    ids = (_ranks(result.rx[0]), _csv_fields(result.rx[0]))
    _write_records(paths["prescriptions"], ["patient_id", "drug_code", "date"],
                   result.rx, *ids)
    _write_records(paths["events"], ["patient_id", "event_code", "date"],
                   result.ev, *ids)
    del ids
    db = Database.from_columns(row_columns(result.patient_rows, 5),
                               result.rx, result.ev)
    del result
    realized_truth(db, config).to_csv(paths["ground_truth"])
    if cache:
        log.info("load cache: %s", cache_database(
            db, paths["prescriptions"], paths["events"], paths["patients"]))
    return paths
