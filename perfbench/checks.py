"""Output checks for one `lodsig generate` or `lodsig run` invocation.

Every invocation must leave exactly the expected file set.  At a
workload's default seed every file must also match the sha256 stored in
digests.json; at other seeds the ranked lists and the metric summary are
checked for shape instead.  Each function returns a list of problems, empty
when the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

DATA_FILES = ("events.csv", "ground_truth.csv", "patients.csv",
              "prescriptions.csv")
DIGESTS_PATH = Path(__file__).with_name("digests.json")


def expected_outputs(drugs, algorithms) -> set[str]:
    names = {f"ranked_{d}_{a}.csv" for d in drugs for a in algorithms}
    names |= {"metrics_summary.csv", "map_chart.csv",
              "manifest_resolved.yaml"}
    if len(drugs) >= 2 and len(algorithms) >= 2:
        names |= {f"significance_{m}.csv"
                  for m in ("precision_10", "precision_50", "map_all")}
    return names


def sha256_tree(directory: Path) -> dict[str, str]:
    """sha256 of every file under directory, keyed by its relative path."""
    return {p.relative_to(directory).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def load_digests() -> dict:
    if not DIGESTS_PATH.is_file():
        return {}
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def check_file_set(directory: Path, expected: set[str]) -> list[str]:
    if not directory.is_dir():
        return [f"{directory.name}: missing"]
    found = {p.name for p in directory.iterdir()}
    problems = [f"{directory.name}/{n}: missing"
                for n in sorted(expected - found)]
    problems += [f"{directory.name}/{n}: unexpected"
                 for n in sorted(found - expected)]
    return problems


def check_digests(directory: Path, expected: dict[str, str] | None) -> list[str]:
    if not expected:
        return [f"{directory.name}: no stored digests"]
    actual = sha256_tree(directory)
    return [f"{directory.name}/{name}: sha256 differs"
            for name in sorted(set(actual) | set(expected))
            if actual.get(name) != expected.get(name)]


def check_data_rows(directory: Path) -> list[str]:
    problems = []
    for name in ("events.csv", "patients.csv", "prescriptions.csv"):
        with open(directory / name, encoding="utf-8") as fh:
            if sum(1 for _ in fh) < 2:
                problems.append(f"{directory.name}/{name}: no data rows")
    return problems


def check_run_semantics(directory: Path, drugs, algorithms) -> list[str]:
    """Ranked lists non-empty with ranks 1..n; one metric row per unit."""
    problems = []
    for drug in drugs:
        for algo in algorithms:
            path = directory / f"ranked_{drug}_{algo}.csv"
            with open(path, newline="", encoding="utf-8") as fh:
                try:
                    ranks = [int(row["rank"]) for row in csv.DictReader(fh)]
                except (KeyError, TypeError, ValueError):
                    ranks = None
            if not ranks or ranks != list(range(1, len(ranks) + 1)):
                problems.append(f"{directory.name}/{path.name}: ranks are "
                                "not 1..n of a non-empty list")
    with open(directory / "metrics_summary.csv", newline="",
              encoding="utf-8") as fh:
        rows = [(r.get("algorithm"), r.get("drug_code"))
                for r in csv.DictReader(fh)]
    units = {(a, d) for d in drugs for a in algorithms}
    if len(rows) != len(units) or set(rows) != units:
        problems.append(f"{directory.name}/metrics_summary.csv: rows do not "
                        "match the units one to one")
    return problems


def check_generate(directory: Path, digests: dict | None) -> list[str]:
    problems = check_file_set(directory, set(DATA_FILES))
    if problems:
        return problems
    if digests is not None:
        return check_digests(directory, digests)
    return check_data_rows(directory)


def check_run(directory: Path, drugs, algorithms,
              digests: dict | None) -> list[str]:
    problems = check_file_set(directory, expected_outputs(drugs, algorithms))
    if problems:
        return problems
    if digests is not None:
        return check_digests(directory, digests)
    return check_run_semantics(directory, drugs, algorithms)
