"""Benchmark-owned scenarios and workloads.

The scenarios live here rather than being imported from the test suite, so
an edit to a test cannot silently change what the benchmark measures.  A
scenario is the dict `lodsig generate --config` reads (YAML is a superset
of JSON, so it is written as JSON).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

ALGORITHMS = ("ror05", "oe1", "oe2", "mutara60", "mutara180",
              "hunt60", "hunt180")
DRUGS = ("drug_x", "drug_other")

RECOVERY_SEED = 404
WIDE_SEED = 1584

# `_recovery_config` has 50_000 patients (~1.17M events).  One repetition at
# that size (generate ~14 s, then a run) is too long to repeat several times
# within a benchmark run, so the recovery scenario here has a fifth of them:
# same rates, drugs and injections, ~234k events.
RECOVERY_PATIENTS = 10_000
# wide: many codes with low rates and few patients, so per-candidate scoring
# (linear in the number of codes) dominates the CSV load.
WIDE_PATIENTS = 3_000
WIDE_NOISE_CODES = 400
WIDE_NOISE_RATE = 0.02


def _drug_models() -> dict:
    return {"drug_x": {"prescription_rate": 0.3, "repeat_rate": 0.3},
            "drug_other": {"prescription_rate": 0.35, "repeat_rate": 0.2}}


def _adr_injections(adr_codes, failure_codes) -> list[dict]:
    risks = [4.0, 5.0, 6.0, 8.0, 10.0]
    injections = [{"drug_code": "drug_x", "event_code": c,
                   "relative_risk": rr, "latency_window_days": 25,
                   "kind": "adr"} for c, rr in zip(adr_codes, risks)]
    injections += [{"drug_code": "drug_x", "event_code": c,
                    "relative_risk": 8.0, "latency_window_days": 30,
                    "kind": "therapeutic_failure"} for c in failure_codes]
    return injections


def recovery_scenario(seed: int) -> dict:
    """`_recovery_config` of tests/test_acceptance.py (criterion 5), at
    RECOVERY_PATIENTS patients.

    20 noise codes at 0.3 per patient-year, five ADR codes at 0.08 with
    relative risks 4 to 10, and a therapeutic-failure shape on three of
    the noise codes.
    """
    rates = {f"noise_{i:02d}": 0.3 for i in range(20)}
    adr_codes = [f"adr_{i}" for i in range(5)]
    rates.update({c: 0.08 for c in adr_codes})
    return {"n_patients": RECOVERY_PATIENTS, "years_span": 5,
            "background_event_rates": rates,
            "drug_models": _drug_models(),
            "injections": _adr_injections(
                adr_codes, [f"noise_{i:02d}" for i in range(3)]),
            "rng_seed": seed}


def wide_scenario(seed: int) -> dict:
    """The recovery shape with many rare noise codes instead of 20."""
    rates = {f"noise_{i:03d}": WIDE_NOISE_RATE
             for i in range(WIDE_NOISE_CODES)}
    adr_codes = [f"adr_{i}" for i in range(5)]
    rates.update({c: 0.08 for c in adr_codes})
    return {"n_patients": WIDE_PATIENTS, "years_span": 5,
            "background_event_rates": rates,
            "drug_models": _drug_models(),
            "injections": _adr_injections(
                adr_codes, [f"noise_{i:03d}" for i in range(3)]),
            "rng_seed": seed}


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    scenario: Callable[[int], dict]     # seed -> generate config
    algorithms: tuple[str, ...]
    jobs: int
    # one `lodsig run` per entry: (output directory, per-algorithm overrides)
    runs: tuple[tuple[str, dict], ...]

    def manifest(self, output_dir: str, overrides: dict, seed: int) -> dict:
        """A run manifest with paths relative to the repetition directory."""
        return {"database_dir": "data", "drugs": list(DRUGS),
                "algorithms": list(self.algorithms),
                "output_dir": output_dir, "seed": seed,
                "ground_truth": "data/ground_truth.csv",
                "overrides": overrides}


WORKLOADS = {w.name: w for w in (
    # ROR05 screening sweep over T: bound by CSV load and start-up; the
    # second and third invocations reread a database already read.
    Workload("screen", RECOVERY_SEED, recovery_scenario, ("ror05",), 1,
             tuple((f"T{t}", {"ror05": {"T": t}}) for t in (30, 60, 90))),
    # all seven algorithms over 406 event codes: bound by per-candidate
    # scoring.
    Workload("wide", WIDE_SEED, wide_scenario, ALGORITHMS, 1,
             (("all", {}),)),
    # the paper's whole comparison through the process-pool path.
    Workload("full", RECOVERY_SEED, recovery_scenario, ALGORITHMS, 2,
             (("all", {}),)),
)}
