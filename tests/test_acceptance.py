"""End-to-end acceptance checks, one test per criterion.

Each test prints a single CRITERION line so the run log reads as a
checklist.  The heavier checks (injection recovery, seed sweeps) build
synthetic databases in-process rather than through the CLI to stay
inside the runtime budget.
"""

import dataclasses
import math

import numpy as np
import pytest

from lodsig.cli import ALGORITHM_IDS, demo_synth_config, score_drug
from lodsig.evaluation import evaluate, map_score, precision_k, \
    signed_rank_one_sided
from lodsig.mutara import _support_vectors
from lodsig.srs import srs_cells
from lodsig.store import StudyConfig
from lodsig.synthgen import DrugModel, Injection, SynthConfig, \
    build_database, realized_truth
from lodsig.temporal_ic import Period, _period_vectors, gamma_quantile, ic, \
    ic_delta_from
from lodsig import cli

from conftest import counts_of, random_small_db
from oracles import (brute_all_drug_exposures, brute_exposures,
                     brute_first_exposure_per_patient, brute_period_counts,
                     brute_srs_cells, brute_support_counts, event_codes,
                     gammainc_oracle, rank_of)


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nCRITERION {criterion}: {status} - {detail}")


def test_criterion_1_worked_map_example():
    y = (0, 1, 1, 0, 0)
    ok = (map_score(y) == pytest.approx(7 / 12, abs=1e-15)
          and precision_k(y, 2) == 0.5
          and precision_k(y, 3) == pytest.approx(2 / 3, abs=1e-15))
    _report(1, ok, "map_score((0,1,1,0,0)) = 7/12, p@2 = 1/2, p@3 = 2/3")
    assert ok


def test_criterion_2_oracle_equivalence():
    # the counts come from the passes score_drug runs: srs_cells and
    # _period_vectors read the drug's row of counts made for every drug,
    # and _support_vectors reads the episode arrays of Database.episodes;
    # the oracles get their episodes from the per-patient brute_exposures.
    # "none" has no prescriptions: its SRS and OE rows are zeros
    rng = np.random.default_rng(2024)
    base = StudyConfig(drug_code="X", pre_window=60, rng_seed=5)
    mismatches = 0
    for trial in range(50):
        db = random_small_db(rng, n_patients=10)
        config = dataclasses.replace(base, rng_seed=trial)
        codes = (*db.event_codes, "absent")

        any_pairs = brute_all_drug_exposures(db, config)
        for drug in ("X", "none"):
            drug_config = dataclasses.replace(config, drug_code=drug)
            cells = srs_cells(db, drug_config)
            want = brute_srs_cells(db, drug)
            mismatches += sum(counts_of(db, cells, code) != want[code]
                              for code in db.event_codes)

            pairs = brute_exposures(db, drug_config)
            vectors = _period_vectors(db, drug_config)
            for row, period in enumerate(Period):
                for code in codes:
                    if counts_of(db, [v[row] for v in vectors], code) != \
                            brute_period_counts(db, pairs, code, period,
                                                config, any_pairs):
                        mismatches += 1
            if drug == "none":
                mismatches += sum(bool(v.any())
                                  for v in (*cells[:2], *vectors[:2]))

        first_pairs = brute_first_exposure_per_patient(
            brute_exposures(db, config))
        vectors = _support_vectors(db, db.episodes("X"), config)
        for code in codes:
            if counts_of(db, vectors, code) != brute_support_counts(
                    db, first_pairs, code, config, trial):
                mismatches += 1

    ok = mismatches == 0
    _report(2, ok, "50 random databases, SRS / period / support counts "
                   "of every event code and an absent one, SRS and period "
                   "counts of a drug with no prescriptions too, from the "
                   "passes score_drug runs, vs brute force, "
                   f"{mismatches} mismatches")
    assert ok


def test_criterion_3_shrinkage_identities():
    rng = np.random.default_rng(3)
    ok = ic(0, 0.0) == 0.0
    for n in rng.integers(0, 10 ** 6 + 1, size=100):
        ok = ok and ic(float(n), float(n)) == 0.0

    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 50))
        m_u = int(rng.integers(1, 1000))
        m_v = int(rng.integers(1, 1000))
        value = ic_delta_from(k * m_u, float(m_u), k * m_v, float(m_v))
        worst = max(worst, abs(value))
    ok = ok and worst < 1e-12
    _report(3, ok, f"ic identities hold; worst equal-ratio |ic_delta| = "
                   f"{worst:.2e} over 1000 tuples")
    assert ok


def test_criterion_4_gamma_credibility_bounds():
    n_values = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610,
                987, 1597, 2584, 4181, 6765]
    e_values = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 200.0, 1000.0]
    assert len(n_values) * len(e_values) == 200
    worst = 0.0
    for n in n_values:
        for e in e_values:
            for q in (0.025, 0.975):
                x = gamma_quantile(n + 0.5, e + 0.5, q)
                err = abs(gammainc_oracle(n + 0.5, (e + 0.5) * x) - q)
                worst = max(worst, err)
    ok = worst < 1e-8
    _report(4, ok, f"200-point (n, E) grid, worst CDF(quantile) error "
                   f"= {worst:.2e}")
    assert ok


def _recovery_config(seed: int) -> SynthConfig:
    # 20 noise codes; three of them carry a pre-and-post confounder shape
    # so the rank-ratio algorithms have something to separate
    rates = {f"noise_{i:02d}": 0.3 for i in range(20)}
    adr_codes = [f"adr_{i}" for i in range(5)]
    rates.update({c: 0.08 for c in adr_codes})
    risks = [4.0, 5.0, 6.0, 8.0, 10.0]
    injections = [Injection("drug_x", c, rr, 25, "adr")
                  for c, rr in zip(adr_codes, risks)]
    injections += [Injection("drug_x", f"noise_{i:02d}", 8.0, 30,
                             "therapeutic_failure") for i in range(3)]
    return SynthConfig(
        n_patients=50_000,
        years_span=5,
        background_event_rates=rates,
        drug_models={"drug_x": DrugModel(0.3, None, 0.3),
                     "drug_other": DrugModel(0.35, None, 0.2)},
        injections=injections,
        rng_seed=seed,
    )


def _failure_config(seed: int) -> SynthConfig:
    rates = {f"noise_{i:02d}": 0.25 for i in range(6)}
    rates.update({"adr_a": 0.1, "adr_b": 0.1, "failure_f": 0.3})
    return SynthConfig(
        n_patients=4000,
        years_span=4,
        background_event_rates=rates,
        drug_models={"drug_x": DrugModel(0.35, None, 0.3),
                     "drug_other": DrugModel(0.4, None, 0.2)},
        injections=[
            Injection("drug_x", "adr_a", 12.0, 30, "adr"),
            Injection("drug_x", "adr_b", 8.0, 30, "adr"),
            Injection("drug_x", "failure_f", 10.0, 30,
                      "therapeutic_failure"),
        ],
        rng_seed=seed,
    )


def test_criterion_5_injection_recovery():
    # part 1: all seven configurations recover the five injected ADRs
    db, _ = build_database(_recovery_config(seed=404))
    truth = realized_truth(db, _recovery_config(seed=404))
    assert len(truth.entries) == 5
    maps = {}
    for ranked in score_drug(db, "drug_x", ALGORITHM_IDS, 404):
        maps[ranked.algorithm] = evaluate(ranked, truth).map_all
    recovered = all(m is not None and m >= 0.3 for m in maps.values())

    # part 2: MUTARA and HUNT demote the therapeutic-failure event
    # relative to where the OE ratio puts it
    wins = 0
    for seed in range(20):
        fdb, _ = build_database(_failure_config(seed))
        oe_rank, m_rank, h_rank = (
            rank_of(ranked, "failure_f") for ranked in score_drug(
                fdb, "drug_x", ["oe1", "mutara180", "hunt180"], seed))
        if oe_rank is not None and m_rank is not None and \
                h_rank is not None and m_rank > oe_rank and \
                h_rank > oe_rank:
            wins += 1

    ok = recovered and wins >= 16
    detail = ", ".join(f"{a}={maps[a]:.3f}" for a in ALGORITHM_IDS)
    _report(5, ok, f"MAP(all) {detail}; failure event demoted by "
                   f"MUTARA+HUNT in {wins}/20 seeds")
    assert ok


def test_criterion_6_filter_variant_contrast():
    hits = 0
    for seed in range(20):
        db, _ = build_database(demo_synth_config(seed))
        r1, r2 = score_drug(db, "drug_x", ["oe1", "oe2"], seed)
        kept = "day0_delta" in event_codes(r1)
        filtered = r2.filtered.get("day0_delta") == "day_of_prescription"
        hits += kept and filtered
    ok = hits == 20
    _report(6, ok, f"day-0 artifact kept by variant 1 and filtered by "
                   f"variant 2 in {hits}/20 seeds")
    assert ok


def test_criterion_7_parallel_determinism(tmp_path):
    data_dir = tmp_path / "data"
    assert cli.main(["generate", "--demo", "--seed", "11",
                     "--output", str(data_dir)]) == 0
    out = tmp_path / "results"

    def run_once(jobs):
        manifest = cli.RunManifest(
            database_dir=str(data_dir), drugs=["drug_x", "drug_other"],
            algorithms=list(ALGORITHM_IDS), output_dir=str(out), seed=11,
            ground_truth=str(data_dir / "ground_truth.csv"))
        assert cli.run(manifest, jobs=jobs) == 0
        tree = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                if p.is_file()}
        for p in out.iterdir():
            if p.is_file():
                p.unlink()
        return tree

    serial = run_once(1)
    parallel = run_once(8)
    ok = serial == parallel
    _report(7, ok, f"1-worker and 8-worker trees byte-identical over "
                   f"{len(serial)} files")
    assert ok


def test_criterion_8_significance_machinery():
    a = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
    b = [x - 0.1 for x in a]
    p_wins, _ = signed_rank_one_sided(a, b)
    p_tied, degenerate = signed_rank_one_sided(a, a)
    ok = (p_wins == pytest.approx(1 / 64, abs=1e-15)
          and degenerate and not (min(1.0, p_tied * 2) < 0.01))
    _report(8, ok, f"6-drug all-wins p = {p_wins} (= 1/64); identical "
                   "vectors not significant at alpha = 0.01")
    assert ok
