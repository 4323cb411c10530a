"""Independent brute-force reference implementations used only by tests.

Everything here is written as plain per-patient loops over the
database's columns, deliberately avoiding the vectorized counting paths
in the package.
"""

import bisect
import csv
import dataclasses
import datetime
import hashlib
import math

import numpy as np

from lodsig.store import (_GENDER_ALIASES, _KEY_BASE, DAYS_12_MONTHS,
                          DAYS_13_MONTHS, DAYS_PER_MONTH,
                          MIN_ACTIVE_FOLLOWUP_DAYS, Database, DataFormatError,
                          Gender)
from lodsig.evaluation import FREQUENCY_CLASSES, TRUTH_COLUMNS, AdrEntry
from lodsig.synthgen import ORIGIN, ORIGIN_YEAR, VISIT_CODE, _bernoulli_prob
from lodsig.temporal_ic import Period


def patient_index(db, patient_id):
    """A patient id's index in the sorted `db.patient_ids`."""
    i = bisect.bisect_left(db.patient_ids, patient_id)
    if i == db.n_patients or db.patient_ids[i] != patient_id:
        raise KeyError(f"unknown patient_id {patient_id!r}")
    return i


def ev_day(db):
    """Each event's day ordinal, derived from `_ev_key`."""
    return db._ev_key % _KEY_BASE


def event_codes(ranked):
    """The event codes of a RankedSignalList, in rank order."""
    return [e.event_code for e in ranked.entries]


def rank_of(ranked, event_code):
    """An event code's rank in a RankedSignalList, None when unranked."""
    for e in ranked.entries:
        if e.event_code == event_code:
            return e.rank
    return None


def patient_records(db, pid):
    i = patient_index(db, pid)
    rx = [(db.drug_codes[c], d) for p, c, d in zip(
        db.rx_pid.tolist(), db.rx_drug.tolist(), db.rx_day.tolist()) if p == i]
    events = [(db.event_codes[c], d) for p, c, d in zip(
        db.ev_pid.tolist(), db.ev_code.tolist(), ev_day(db).tolist())
        if p == i]
    return rx, events


def patient_span(db, pid):
    i = patient_index(db, pid)
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
    n = len(patient_ids)
    year_of_birth, registration, death_day = (
        np.empty(n, dtype=np.int64) for _ in range(3))
    gender_letter = np.empty(n, dtype="U1")
    for pid_str, yob, gender, reg, death in patient_rows:
        i = pt_index[pid_str]
        year_of_birth[i] = yob
        gender_letter[i] = gender.value
        registration[i] = reg
        death_day[i] = 0 if death is None else death

    # every date against registration and death, record by record:
    # deaths, events, prescriptions, each first before registration, then
    # after death, in patient index order
    deaths = [(i, d) for i, d in enumerate(death_day.tolist()) if d]
    for kind, records in (("death", deaths),
                          ("event", list(zip(ev_pid.tolist(),
                                             ev_day.tolist()))),
                          ("prescription", list(zip(rx_pid.tolist(),
                                                    rx_day.tolist())))):
        for when, bad in (
                ("before registration", lambda i, d: d < registration[i]),
                ("after death", lambda i, d: 0 < death_day[i] < d)):
            for i, d in records:
                if bad(i, d):
                    raise DataFormatError(f"{kind} for patient "
                                          f"{patient_ids[i]} dated {when}")
    # the latest of registration, death and each record day
    last_active = [max(r, d) for r, d in zip(registration.tolist(),
                                               death_day.tolist())]
    for i, d in [*zip(rx_pid.tolist(), rx_day.tolist()),
                 *zip(ev_pid.tolist(), ev_day.tolist())]:
        last_active[i] = max(last_active[i], d)
    # the event table keeps only the packed key and an int32 code
    ev_key = np.array([p * _KEY_BASE + d for p, d in zip(ev_pid, ev_day)],
                      dtype=np.int64)

    db = Database(patient_ids, drug_codes, event_codes, {
        "year_of_birth": year_of_birth, "gender": gender_letter,
        "registration": registration, "death": death_day, "rx_pid": rx_pid,
        "rx_drug": rx_drug.astype(np.int32), "rx_day": rx_day,
        "_ev_key": ev_key, "ev_code": ev_code.astype(np.int32)},
        rx_dropped + ev_dropped)
    # the constructor derives its own last_active from the sorted keys
    np.testing.assert_array_equal(db.last_active, last_active)
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


def _iso(day):
    return datetime.date.fromordinal(day).isoformat()


def brute_write_tables(patient_rows, rx_rows, ev_rows, out):
    """The `sorted(tuples)` CSV writer that `synthgen.generate` replaced."""
    with open(out / "patients.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "year_of_birth", "gender",
                         "registration_date", "death_date"])
        for pid, yob, gender, reg, death in patient_rows:
            writer.writerow([pid, yob, gender.value, _iso(reg),
                             _iso(death) if death else ""])
    with open(out / "prescriptions.csv", "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "drug_code", "date"])
        for pid, drug, day in sorted(rx_rows):
            writer.writerow([pid, drug, _iso(day)])
    with open(out / "events.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "event_code", "date"])
        for pid, code, day in sorted(ev_rows):
            writer.writerow([pid, code, _iso(day)])


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


def brute_previous_days(db):
    """Each event's day of the latest earlier event of its patient and
    code, or the int32 minimum, by a scan of each patient's records."""
    days = []
    for pid in db.patient_ids:
        _, events = patient_records(db, pid)
        for code, d in events:
            earlier = [e for c, e in events if c == code and e < d]
            days.append(max(earlier, default=np.iinfo(np.int32).min))
    return days


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


def brute_srs_cells(db, drug_code, T=30):
    """brute_srs_counts of every event code of the database: a code with
    no pair has w00 = w10 = 0, and w01 and w11 are then the totals."""
    tables = brute_srs_counts(db, drug_code, T)
    total_x = sum(cells[0] for cells in tables.values())
    total_other = sum(cells[2] for cells in tables.values())
    return {code: tables.get(code, (0, total_x, 0, total_other))
            for code in db.event_codes}


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


# -- whole ranked lists ---------------------------------------------------

def brute_candidates(db, config):
    """Sorted codes of the events in the risk window of >= 1 episode,
    less the excluded codes, by a per-episode scan."""
    codes = set()
    for pid, idx in brute_exposures(db, config):
        _, events = patient_records(db, pid)
        first_day = idx if config.include_day0 else idx + 1
        codes |= {c for c, d in events if first_day <= d <= idx + config.T}
    return sorted(codes - config.excluded_event_codes)


def _precedes(a, b, scores):
    """Whether code a ranks above code b: the higher score, ties by code,
    an undefined (None) score below every score."""
    sa, sb = scores[a], scores[b]
    if sa is None or sb is None:
        return sb is None and (sa is not None or a < b)
    return sa > sb or (sa == sb and a < b)


def brute_ranks(scores):
    """1-based rank of every code: one plus the codes that precede it."""
    return {c: 1 + sum(_precedes(d, c, scores) for d in scores)
            for c in scores}


def _shrunk_ic(n, e):
    return math.log2((n + 0.5) / (e + 0.5))


def _brute_ror05(cells):
    """ROR05 of (w00, w01, w10, w11), Haldane-Anscombe corrected when a
    cell is 0."""
    if min(cells) == 0:
        cells = tuple(c + 0.5 for c in cells)
    a, b, c, d = cells
    se = math.sqrt(1 / a + 1 / b + 1 / c + 1 / d)
    return math.exp(math.log((a / c) / (b / d)) - 1.645 * se)


def _brute_oe(db, codes, config, variant):
    """(IC delta of each kept code, filter reason of each dropped one)."""
    exposures = brute_exposures(db, config)
    any_exposures = brute_all_drug_exposures(db, config)
    kept, filtered = {}, {}
    for code in codes:
        observed = {}
        for period in Period:
            n_xy, n_x_dot, n_dot_y, n_dot_dot = brute_period_counts(
                db, exposures, code, period, config, any_exposures)
            observed[period] = (n_xy, n_x_dot * n_dot_y / max(n_dot_dot, 1))
        ic_u = _shrunk_ic(*observed[Period.FOLLOWUP_U])
        if _shrunk_ic(*observed[Period.MONTH_PRIOR]) > ic_u:
            filtered[code] = "prior_month"
        elif variant == 2 and \
                _shrunk_ic(*observed[Period.DAY_OF_PRESCRIPTION]) > ic_u:
            filtered[code] = "day_of_prescription"
        else:
            (n_u, e_u), (n_v, e_v) = (observed[Period.FOLLOWUP_U],
                                      observed[Period.CONTROL_V])
            ratio = n_v / e_v if n_v > 0 and e_v > 0 else \
                (n_v + 0.5) / (e_v + 0.5)
            kept[code] = _shrunk_ic(n_u, ratio * e_u)
    return kept, filtered


def _brute_leverages(db, codes, config):
    """({code: unexpected leverage}, {code: leverage})."""
    first = brute_first_exposure_per_patient(brute_exposures(db, config))
    unexpected, leverage = {}, {}
    for code in codes:
        supp_x, seq_unex, seq, bg_unex, bg, population = \
            brute_support_counts(db, first, code, config, config.rng_seed)
        unexpected[code] = seq_unex - supp_x * (bg_unex + seq_unex) / population
        leverage[code] = seq - supp_x * (bg + seq) / population
    return unexpected, leverage


def brute_ranked(db, drug, algorithm_id, config):
    """([(code, rank, score)] by rank, {filtered code: reason}) of one
    algorithm id's list for a drug under config, from the brute counts.

    Each score is written out in scalar math in the order the package's
    views compute it, so it equals theirs to the bit.
    """
    config = dataclasses.replace(config, drug_code=drug)
    codes = brute_candidates(db, config)
    filtered = {}
    if algorithm_id == "ror05":
        cells = brute_srs_cells(db, drug, config.T)
        scores = {code: _brute_ror05(cells[code]) for code in codes}
    elif algorithm_id in ("oe1", "oe2"):
        scores, filtered = _brute_oe(db, codes, config,
                                     int(algorithm_id[-1]))
    elif algorithm_id.startswith("mutara"):
        scores, _ = _brute_leverages(db, codes, config)
    else:
        rank_unex, rank_lev = map(brute_ranks,
                                  _brute_leverages(db, codes, config))
        scores = {code: rank_lev[code] / rank_unex[code] for code in codes}
    ranks = brute_ranks(scores)
    return sorted(((code, ranks[code], scores[code]) for code in scores),
                  key=lambda entry: entry[1]), filtered


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
