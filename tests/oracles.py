"""Independent brute-force reference implementations used only by tests.

Everything here is written as plain per-patient loops against the public
database accessors, deliberately avoiding the vectorized counting paths
in the package.
"""

import hashlib
import math

from lodsig.store import (DAYS_12_MONTHS, DAYS_13_MONTHS, DAYS_PER_MONTH,
                          MIN_ACTIVE_FOLLOWUP_DAYS)
from lodsig.temporal_ic import Period


def patient_records(db, pid):
    codes, days = db.events_for_patient(pid)
    events = [(db.event_codes[c], int(d)) for c, d in zip(codes, days)]
    drugs, rx_days = db.prescriptions_for_patient(pid)
    rx = [(db.drug_codes[c], int(d)) for c, d in zip(drugs, rx_days)]
    return rx, events


def brute_exposures(db, config):
    """Triple-rule eligibility scan, one prescription at a time."""
    out = []
    for pid in db.patient_ids:
        patient = db.patients[pid]
        rx, _ = patient_records(db, pid)
        drug_days = sorted(d for drug, d in rx if drug == config.drug_code)
        for d in drug_days:
            prior_same = [x for x in drug_days
                          if d - DAYS_13_MONTHS <= x < d]
            if prior_same:
                continue
            if d - patient.registration < DAYS_12_MONTHS:
                continue
            if patient.last_active - d < MIN_ACTIVE_FOLLOWUP_DAYS:
                continue
            out.append((pid, d))
    return out


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
            patient = db.patients[pid]
            lo, hi = _window(period, idx, config)
            if not (patient.registration <= lo and patient.last_active >= hi):
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
        patient = db.patients[pid]
        start = brute_background_start(seed, pid, patient.registration,
                                       patient.last_active, T)
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
