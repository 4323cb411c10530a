"""Independent brute-force reference implementations used only by tests.

Everything here is written as plain per-patient loops over the
database's columns, deliberately avoiding the vectorized counting paths
in the package.
"""

import csv
import dataclasses
import datetime
import hashlib
import math

import numpy as np

from lodsig.store import (_GENDER_ALIASES, _KEY_BASE, DAYS_12_MONTHS,
                          DAYS_13_MONTHS, DAYS_PER_MONTH,
                          MIN_ACTIVE_FOLLOWUP_DAYS, Database, DataFormatError,
                          Gender, from_ordinal)
from lodsig.evaluation import FREQUENCY_CLASSES, TRUTH_COLUMNS, AdrEntry
from lodsig.synthgen import ORIGIN, ORIGIN_YEAR, VISIT_CODE, _bernoulli_prob
from lodsig.temporal_ic import Period


def patient_records(db, pid):
    i = db.patient_index(pid)
    rx = [(db.drug_codes[c], d) for p, c, d in zip(
        db.rx_pid.tolist(), db.rx_drug.tolist(), db.rx_day.tolist()) if p == i]
    events = [(db.event_codes[c], d) for p, c, d in zip(
        db.ev_pid.tolist(), db.ev_code.tolist(), db.ev_day.tolist()) if p == i]
    return rx, events


def patient_span(db, pid):
    i = db.patient_index(pid)
    return int(db.registration[i]), int(db.last_active[i])


def _parse_date(text: str, path, row_no: int) -> int:
    try:
        return datetime.date.fromisoformat(text.strip()).toordinal()
    except ValueError:
        raise DataFormatError(
            f"{path}, row {row_no}: bad date {text!r}") from None


def _read_csv(path, required_columns):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh, restval="")
        header = reader.fieldnames or []
        missing = [c for c in required_columns if c not in header]
        if missing:
            raise DataFormatError(f"{path}: missing columns {missing}")
        for row_no, row in enumerate(reader, start=2):
            yield row_no, row


def brute_load_database(prescriptions_path, events_path, patients_path):
    """The row-at-a-time `DictReader` loader `store.load_database` replaced.

    Kept as it was, except that it reads a UTF-8 BOM and gives the
    missing fields of a short row the value "" (they were None, which
    ended a short record row in an AttributeError).
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
    return brute_from_records(patient_rows, rx_rows, ev_rows)


def brute_truth_from_csv(path):
    """The `csv.DictReader` loop `AdrDictionary.from_csv` replaced, as it
    was: {(drug, event): AdrEntry}; errors name the physical line."""
    entries = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh, restval="")
        missing = [c for c in TRUTH_COLUMNS
                   if c not in (reader.fieldnames or [])]
        if missing:
            raise DataFormatError(
                f"{path}, line 1: missing columns {missing}")
        for row in reader:
            frequency = row["frequency_class"].strip()
            if frequency not in FREQUENCY_CLASSES:
                raise DataFormatError(
                    f"{path}, line {reader.line_num}: unknown "
                    f"frequency_class {frequency!r}")
            key = (row["drug_code"].strip(), row["event_code"].strip())
            entries[key] = AdrEntry(
                frequency, row["is_reaction_code"].strip().lower()
                in ("1", "true"))
    return entries


def brute_from_records(patient_rows, rx_rows, ev_rows):
    """The per-row `Database.from_records` that `from_columns` replaced."""
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
    last_rec = np.full(len(patient_ids), np.iinfo(np.int64).min,
                       dtype=np.int64)
    for arr_pid, arr_day in ((rx_pid, rx_day), (ev_pid, ev_day)):
        if len(arr_pid):
            np.maximum.at(last_rec, arr_pid, arr_day)

    n = len(patient_ids)
    year_of_birth, registration, death_day, last_active = (
        np.empty(n, dtype=np.int64) for _ in range(4))
    gender_letter = np.empty(n, dtype="U1")
    for pid_str, yob, gender, reg, death in patient_rows:
        i = pt_index[pid_str]
        candidates = [reg, int(last_rec[i])]
        if death is not None:
            candidates.append(death)
        year_of_birth[i] = yob
        gender_letter[i] = gender.value
        registration[i] = reg
        death_day[i] = 0 if death is None else death
        last_active[i] = max(candidates)
    ev_key = np.array([p * _KEY_BASE + d for p, d in zip(ev_pid, ev_day)],
                      dtype=np.int64)

    db = Database(pt_index, year_of_birth, gender_letter, registration,
                  death_day, last_active,
                  rx_pid, rx_drug, rx_day, ev_pid, ev_code, ev_day, ev_key,
                  drug_index, event_index, rx_dropped + ev_dropped)
    db._validate()
    return db


def brute_generate_tables(config):
    """The per-row tuple generator that `synthgen.generate_tables` replaced.

    Returns (patient_rows, rx_rows, ev_rows, injected_counts); records are
    (patient_id, code, day ordinal) tuples.
    """
    span_days = config.years_span * 365
    codes = sorted(config.background_event_rates)
    rates = np.array([config.background_event_rates[c] for c in codes])
    inj_by_drug = {}
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
                    p_pre = _bernoulli_prob(inj.relative_risk, base, 150,
                                            cap=0.9)
                    if rng.random() < p_pre:
                        day = t0 - 180 + int(rng.integers(0, 150))
                        ev_rows.append((pid, inj.event_code, day))
                else:
                    p = _bernoulli_prob(inj.relative_risk, base, 30)
                    if rng.random() < p:
                        ev_rows.append((pid, inj.event_code, t0))
                        injected[(drug, inj.event_code)] += 1
                    if rng.random() < 0.5 * p:
                        day = t0 + 1 + int(rng.integers(0, 30))
                        ev_rows.append((pid, inj.event_code, day))
                        injected[(drug, inj.event_code)] += 1

    return patient_rows, rx_rows, ev_rows, injected


def brute_write_tables(patient_rows, rx_rows, ev_rows, out):
    """The `sorted(tuples)` CSV writer that `synthgen.generate` replaced."""
    with open(out / "patients.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "year_of_birth", "gender",
                         "registration_date", "death_date"])
        for pid, yob, gender, reg, death in patient_rows:
            writer.writerow([pid, yob, gender.value,
                             from_ordinal(reg).isoformat(),
                             from_ordinal(death).isoformat() if death else ""])
    with open(out / "prescriptions.csv", "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "drug_code", "date"])
        for pid, drug, day in sorted(rx_rows):
            writer.writerow([pid, drug, from_ordinal(day).isoformat()])
    with open(out / "events.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "event_code", "date"])
        for pid, code, day in sorted(ev_rows):
            writer.writerow([pid, code, from_ordinal(day).isoformat()])


def brute_exposures(db, config):
    """Triple-rule eligibility scan, one prescription at a time."""
    out = []
    for pid in db.patient_ids:
        registration, last_active = patient_span(db, pid)
        rx, _ = patient_records(db, pid)
        drug_days = sorted(d for drug, d in rx if drug == config.drug_code)
        for d in drug_days:
            prior_same = [x for x in drug_days
                          if d - DAYS_13_MONTHS <= x < d]
            if prior_same:
                continue
            if d - registration < DAYS_12_MONTHS:
                continue
            if last_active - d < MIN_ACTIVE_FOLLOWUP_DAYS:
                continue
            out.append((pid, d))
    return out


def brute_extract_exposures(db, config):
    """(patient_id, index day) of each episode, by the per-row loop and
    sort that `Database.episodes` replaced."""
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

    episodes = [(db.patient_ids[pid[i]], int(day[i]))
                for i in np.flatnonzero(qualifies)]
    return sorted(episodes)


def brute_first_exposure_per_patient(exposures):
    """Each patient's earliest episode of a (patient, index date) sorted list."""
    seen = set()
    out = []
    for pid, d in exposures:
        if pid not in seen:
            seen.add(pid)
            out.append((pid, d))
    return out


def brute_all_drug_exposures(db, config):
    """Every drug's episodes, drug by drug, one `brute_exposures` each."""
    episodes = []
    for drug in db.drug_codes:
        episodes.extend(brute_exposures(
            db, dataclasses.replace(config, drug_code=drug)))
    return episodes


def brute_window_pairs(db, pts, lo_day, hi_day):
    """Sorted (row, event_code) pairs: one per event of patient pts[row]
    dated in [lo_day[row], hi_day[row]]."""
    pairs = []
    for row, (pt, lo, hi) in enumerate(zip(pts, lo_day, hi_day)):
        _, events = patient_records(db, db.patient_ids[pt])
        pairs += [(row, code) for code, d in events if lo <= d <= hi]
    return sorted(pairs)


def brute_srs_counts(db, drug_code, T=30):
    """Pair enumeration over every (prescription, in-window event)."""
    pairs = []
    for pid in db.patient_ids:
        rx, events = patient_records(db, pid)
        for drug, rx_day in rx:
            for code, ev_day in events:
                if rx_day < ev_day <= rx_day + T:
                    pairs.append((drug, code))
    tables = {}
    all_codes = {code for _, code in pairs}
    for code in all_codes:
        w00 = sum(1 for d, c in pairs if d == drug_code and c == code)
        w01 = sum(1 for d, c in pairs if d == drug_code and c != code)
        w10 = sum(1 for d, c in pairs if d != drug_code and c == code)
        w11 = sum(1 for d, c in pairs if d != drug_code and c != code)
        tables[code] = (w00, w01, w10, w11)
    return tables


def _window(period, idx, config):
    if period is Period.FOLLOWUP_U:
        return idx + 1, idx + config.T
    if period is Period.CONTROL_V:
        a, b = config.control_period
        return idx - a * DAYS_PER_MONTH, idx - b * DAYS_PER_MONTH - 1
    if period is Period.MONTH_PRIOR:
        return idx - DAYS_PER_MONTH, idx - 1
    return idx, idx


def brute_period_counts(db, exposures, event_code, period, config,
                        any_exposures):
    def count(episodes):
        with_event, covered = set(), set()
        for pid, idx in episodes:
            registration, last_active = patient_span(db, pid)
            lo, hi = _window(period, idx, config)
            if not (registration <= lo and last_active >= hi):
                continue
            covered.add(pid)
            _, events = patient_records(db, pid)
            if any(c == event_code and lo <= d <= hi for c, d in events):
                with_event.add(pid)
        return len(with_event), len(covered)

    n_xy, n_x_dot = count(exposures)
    n_dot_y, n_dot_dot = count(any_exposures)
    return n_xy, n_x_dot, n_dot_y, n_dot_dot


def brute_background_start(seed, pid, registration, last_active, T):
    lo = registration + DAYS_12_MONTHS
    hi = last_active - T
    if hi < lo:
        return None
    digest = hashlib.blake2b(f"{seed}|{pid}".encode(), digest_size=8).digest()
    return lo + int.from_bytes(digest, "big") % (hi - lo + 1)


def brute_support_counts(db, exposures, event_code, config, seed):
    """exposures: [(pid, index_day)], first episode per patient."""
    exposed = dict(exposures)
    T, pre = config.T, config.pre_window

    def has_event(pid, lo, hi):
        _, events = patient_records(db, pid)
        return any(c == event_code and lo <= d <= hi for c, d in events)

    supp_seq = supp_seq_unex = 0
    for pid, idx in exposed.items():
        post = has_event(pid, idx + 1, idx + T)
        predictable = pre > 0 and has_event(pid, idx - pre, idx)
        supp_seq += post
        supp_seq_unex += post and not predictable

    ever_x = set()
    for pid in db.patient_ids:
        rx, _ = patient_records(db, pid)
        if any(drug == config.drug_code for drug, _ in rx):
            ever_x.add(pid)

    supp_bg = supp_bg_unex = 0
    for pid in db.patient_ids:
        if pid in ever_x:
            continue
        start = brute_background_start(seed, pid, *patient_span(db, pid), T)
        if start is None:
            continue
        post = has_event(pid, start + 1, start + T)
        predictable = pre > 0 and has_event(pid, start - pre, start)
        supp_bg += post
        supp_bg_unex += post and not predictable

    return (len(exposed), supp_seq_unex, supp_seq, supp_bg_unex, supp_bg,
            db.n_patients)


# -- incomplete gamma via series / continued fraction ---------------------

def gammainc_oracle(a: float, x: float, eps=1e-15, max_iter=10_000) -> float:
    """Regularized lower incomplete gamma P(a, x), Numerical-Recipes style."""
    if x < 0 or a <= 0:
        raise ValueError("bad arguments")
    if x == 0:
        return 0.0
    if x < a + 1:
        # series representation
        term = 1.0 / a
        total = term
        n = a
        for _ in range(max_iter):
            n += 1
            term *= x / n
            total += term
            if abs(term) < abs(total) * eps:
                break
        return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    # continued fraction (modified Lentz) for the upper tail
    tiny = 1e-300
    b = x + 1 - a
    c = 1 / tiny
    d = 1 / b
    h = d
    for i in range(1, max_iter):
        an = -i * (i - a)
        b += 2
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1 / d
        delta = d * c
        h *= delta
        if abs(delta - 1) < eps:
            break
    q = h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    return 1.0 - q


def brute_map(y) -> float | None:
    hits = 0
    precisions = []
    for i, label in enumerate(y, start=1):
        if label:
            hits += 1
            precisions.append(hits / i)
    if not precisions:
        return None
    return sum(precisions) / len(precisions)
