"""Command-line entry point: generate, run and summarize.

A run is driven by a plain-text YAML manifest so the whole experiment
(database, drugs, algorithm configurations, seed, output directory) is an
archival artifact; rerunning the same manifest and seed reproduces the
output tree byte for byte, independent of the worker count.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import functools
import logging
import os
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from . import synthgen
from .evaluation import (SCORE_COLUMNS, AdrDictionary, SignificanceResult,
                         compare_algorithms, emit_report, evaluate,
                         ranked_csv_path, write_csv, write_ranked_csv)
from .mutara import candidate_supports, hunt_view, mutara_view
from .ranking import RankedSignalList, build_ranked_list
from .srs import ror_view, srs_cells
from .store import (Database, DataFormatError, StudyConfig, _int,
                    candidate_codes, load_database, read_rows)
from .temporal_ic import oe_scores, oe_view

log = logging.getLogger(__name__)

# algorithm id: (its StudyConfig defaults, its pass: db and config to count
# vectors over every event code, its view: the candidates' names and the
# pass's values at them to ({code: score}, {filtered code: reason}))
ALGORITHMS = {
    "ror05": ({}, srs_cells, ror_view),
    "oe1": ({}, oe_scores, functools.partial(oe_view, variant=1)),
    "oe2": ({}, oe_scores, functools.partial(oe_view, variant=2)),
    "mutara60": ({"pre_window": 60}, candidate_supports, mutara_view),
    "mutara180": ({"pre_window": 180}, candidate_supports, mutara_view),
    "hunt60": ({"pre_window": 60}, candidate_supports, hunt_view),
    "hunt180": ({"pre_window": 180}, candidate_supports, hunt_view),
}
ALGORITHM_IDS = tuple(ALGORITHMS)

# LODSIG_LOG values, matched case-insensitively
_LOG_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO,
              "warn": logging.WARNING, "warning": logging.WARNING,
              "error": logging.ERROR}


def _base_config(algorithm_id: str, drug: str, seed: int,
                 overrides: dict) -> StudyConfig:
    if algorithm_id not in ALGORITHMS:
        raise ValueError(f"unknown algorithm id {algorithm_id!r}")
    return StudyConfig(**{"drug_code": drug, "rng_seed": seed,
                          **ALGORITHMS[algorithm_id][0], **(overrides or {})})


def score_drug(db: Database, drug: str, algorithms, seed: int = 0,
               overrides: dict | None = None) -> list[RankedSignalList]:
    """One ranked list per algorithm id, in the order given.

    Ids with equal configurations share one scoring pass (oe1 and oe2
    differ only in their view, as do mutaraN and huntN), and ids with
    equal windows one candidate set, drawn from every episode of the
    drug although MUTARA and HUNT count only each patient's first.
    """
    shared = functools.cache(lambda scoring_pass, config:
                             scoring_pass(db, config))

    @functools.cache
    def candidates(T, excluded, include_day0):
        cands = candidate_codes(db, db.episodes(drug), T, excluded,
                                include_day0)
        return cands, [db.event_codes[c] for c in cands.tolist()]

    def at(vectors, cands):
        # a pass's vectors, or a mapping of them, at the candidates
        if isinstance(vectors, dict):
            return {key: at(v, cands) for key, v in vectors.items()}
        return tuple(v[cands].tolist() for v in vectors)

    ranked_lists = []
    for algorithm_id in algorithms:
        config = _base_config(algorithm_id, drug, seed,
                              (overrides or {}).get(algorithm_id))
        _, scoring_pass, view = ALGORITHMS[algorithm_id]
        cands, codes = candidates(config.T, config.excluded_event_codes,
                                  config.include_day0)
        values = at(shared(scoring_pass, config), cands)
        try:
            ranked_lists.append(build_ranked_list(algorithm_id, drug,
                                                  *view(codes, values)))
        except ValueError as exc:
            raise ValueError(f"{algorithm_id} for drug {drug!r}: {exc}") \
                from None
    return ranked_lists


def _check_keys(what: str, spec, cls, unread=()) -> None:
    """spec must be a mapping whose keys are field names of cls, other
    than the unread ones."""
    if not isinstance(spec, dict):
        raise ValueError(f"a {what} must be a mapping of keys, not a "
                         f"{type(spec).__name__}")
    unknown = set(spec) - ({f.name for f in dataclasses.fields(cls)}
                           - set(unread))
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown, key=str)}")


@dataclass
class RunManifest:
    database_dir: str
    drugs: list[str]
    algorithms: list[str]
    output_dir: str
    seed: int = 0
    ground_truth: str | None = None
    overrides: dict[str, dict] = field(default_factory=dict)

    @classmethod
    def from_file(cls, path) -> "RunManifest":
        return _read_yaml(path, lambda raw: cls.from_dict(raw or {}))

    @classmethod
    def from_dict(cls, raw: dict) -> "RunManifest":
        _check_keys("manifest", raw, cls)
        manifest = cls(**raw)
        manifest.seed = _int("manifest seed", manifest.seed)
        # open() would take an integer path as a file descriptor
        for key, nullable in (("database_dir", False), ("output_dir", False),
                              ("ground_truth", True)):
            value = getattr(manifest, key)
            if not (isinstance(value, str) and value
                    or nullable and value is None):
                raise ValueError(f"manifest {key} must be a non-empty "
                                 f"string{' or null' * nullable}, not "
                                 f"{value!r}")
        for key in ("drugs", "algorithms"):
            value = getattr(manifest, key)
            if not (isinstance(value, list) and value
                    and all(isinstance(v, str) for v in value)):
                raise ValueError(f"manifest {key} must be a non-empty list "
                                 f"of strings, not {value!r}")
            repeated = sorted({v for v in value if value.count(v) > 1})
            if repeated:
                raise ValueError(f"duplicate manifest {key}: {repeated}")
        for drug in manifest.drugs:
            if drug in (".", "..") or set(drug) & set("/\\\0"):
                raise ValueError(f"drug code {drug!r} cannot name output "
                                 "files (no '/', '\\', NUL, '.' or '..')")
        if not isinstance(manifest.overrides, dict):
            raise ValueError("manifest overrides must be a mapping, not "
                             f"{manifest.overrides!r}")
        bad = [a for a in [*manifest.algorithms, *manifest.overrides]
               if a not in ALGORITHM_IDS]
        if bad:
            raise ValueError(f"unknown algorithm ids {bad}; valid ids: "
                             f"{list(ALGORITHM_IDS)}")
        keys = {f.name for f in dataclasses.fields(StudyConfig)}
        keys.discard("drug_code")
        for algorithm_id, values in manifest.overrides.items():
            if not isinstance(values, dict) or not set(values) <= keys:
                raise ValueError(f"overrides for {algorithm_id} must map "
                                 f"keys of {sorted(keys)}, not {values!r}")
            # a bad value fails here, before the load, not in a scoring pass
            try:
                _base_config(algorithm_id, manifest.drugs[0], manifest.seed,
                             values)
            except (ValueError, TypeError) as exc:
                raise ValueError(f"bad overrides for {algorithm_id} "
                                 f"{values!r}: {exc}") from None
        return manifest

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader with YAML 1.2's floats: YAML 1.1 reads an
    exponent without a dot or a signed exponent (1e-3, 1.0e3, JSON's
    1e-05) as text.  Digits alone stay integers."""


_FLOAT = "tag:yaml.org,2002:float"
_Loader.yaml_implicit_resolvers = {
    first: [r for r in resolvers if r[0] != _FLOAT]
    for first, resolvers in yaml.SafeLoader.yaml_implicit_resolvers.items()}
_Loader.add_implicit_resolver(_FLOAT, re.compile(
    r"^[-+]?(?:(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"
    r"|[0-9]+[eE][-+]?[0-9]+|\.(?:inf|Inf|INF))$|^\.(?:nan|NaN|NAN)$"),
    list("-+0123456789."))


def _read_yaml(path, parse):
    """parse(the YAML document in a file).  A file that cannot be read,
    is not YAML or that parse rejects is one ValueError line naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(yaml.load(fh, Loader=_Loader))
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from None
    except yaml.YAMLError as exc:
        raise ValueError(f"{path}: not valid YAML: "
                         + " ".join(str(exc).split())) from None
    except KeyError as exc:
        raise ValueError(f"{path}: no {exc} key") from None
    except (ValueError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_db(database_dir, cache: bool = True) -> Database:
    data = Path(database_dir)
    return load_database(data / "prescriptions.csv", data / "events.csv",
                         data / "patients.csv", cache=cache)


def run(manifest: RunManifest, jobs: int = 1, cache: bool = True) -> int:
    """Score every drug of the manifest and write all artifacts; cache
    says whether the load may read and write the load cache."""
    # the small ground-truth file is checked before the database load
    dictionary = None
    if manifest.ground_truth is not None:
        dictionary = AdrDictionary.from_csv(manifest.ground_truth)
    db = _load_db(manifest.database_dir, cache)
    for drug in manifest.drugs:
        if db.drug_index(drug) is None:
            raise DataFormatError(f"drug {drug!r} has no prescriptions in "
                                  f"the database at {manifest.database_dir}")

    score = functools.partial(score_drug, db, algorithms=manifest.algorithms,
                              seed=manifest.seed, overrides=manifest.overrides)
    # threads share the one loaded database and the arrays it caches
    with concurrent.futures.ThreadPoolExecutor(
            min(jobs, len(manifest.drugs))) as pool:
        per_drug = list(pool.map(score, manifest.drugs))
    ranked_lists = []
    for drug, lists in zip(manifest.drugs, per_drug):
        log.info("scored %s: %s", drug, ", ".join(
            f"{r.algorithm} {len(r.entries)}" for r in lists))
        ranked_lists += lists

    out = Path(manifest.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if dictionary is not None:
        reports = [evaluate(r, dictionary) for r in ranked_lists]
        emit_report(out, ranked_lists, dictionary, reports)
        if len(manifest.algorithms) >= 2 and len(manifest.drugs) >= 2:
            for metric in ("precision_10", "precision_50", "map_all"):
                result = compare_algorithms(reports, metric)
                _write_significance(out / f"significance_{metric}.csv",
                                    result)
    else:
        for ranked in ranked_lists:
            write_ranked_csv(ranked_csv_path(out, ranked.drug_code,
                                             ranked.algorithm),
                             ranked, [0] * len(ranked.entries))

    with open(out / "manifest_resolved.yaml", "w", encoding="utf-8") as fh:
        yaml.safe_dump(manifest.to_dict(), fh, sort_keys=True)
    return 0


def _write_significance(path, result: SignificanceResult) -> None:
    write_csv(path, ["metric", "algorithm_a", "algorithm_b", "p_raw",
                     "p_adjusted", "significant", "degenerate"], (
        [result.metric, *pair, repr(result.p_raw[pair]),
         repr(result.p_adjusted[pair]),
         str(result.significant[pair]).lower(),
         str(result.degenerate[pair]).lower()]
        for pair in sorted(result.p_raw)))


# -- summarize ------------------------------------------------------------

def _metric(text):
    """A metric value's text, once checked: empty or a float."""
    if text:
        float(text)
    return text


def summarize(output_dir) -> int:
    """Pivot the metric summary into per-drug tables and chart data files."""
    out = Path(output_dir)
    metrics_path = out / "metrics_summary.csv"
    if not metrics_path.exists():
        log.error("no metrics_summary.csv in %s", out)
        return 1
    names = ["algorithm", "drug_code", *SCORE_COLUMNS]
    fields = [(name, str, None) for name in names[:2]] + [
        (metric, _metric, lambda t, metric=metric: f"bad {metric} value {t!r}")
        for metric in SCORE_COLUMNS]
    rows = [dict(zip(names, row)) for row in read_rows(metrics_path, fields)]
    first = {}
    for n, r in enumerate(rows):
        unit = first.setdefault((r["algorithm"], r["drug_code"]), n)
        if unit != n:
            # the tables could keep only one of them, the charts list both
            raise DataFormatError(
                f"{metrics_path}, row {n + 2}: repeats algorithm "
                f"{r['algorithm']!r} and drug {r['drug_code']!r} of row "
                f"{unit + 2}")
    algorithms = sorted({r["algorithm"] for r in rows})
    drugs = sorted({r["drug_code"] for r in rows})
    warnings = 0

    for metric in ("precision_10", "precision_50"):
        value = {(r["algorithm"], r["drug_code"]):
                 float(r[metric]) if r[metric] else None for r in rows}
        table = [[value.get((a, d)) for a in algorithms] for d in drugs]
        warnings += sum(v is None for line in table for v in line)
        present = [[v for v in col if v is not None] for col in zip(*table)]
        write_csv(out / f"table_{metric}.csv", ["drug"] + algorithms, [
            *([d] + ["" if v is None else f"{v:.3f}" for v in line]
              for d, line in zip(drugs, table)),
            ["Mean (3dp)"] + [f"{sum(col) / len(col):.3f}" if col else ""
                              for col in present]])

    ordered = sorted(rows, key=lambda r: (r["drug_code"], r["algorithm"]))
    for panel in ("all", "rare", "reaction_codes"):
        column = f"map_{panel}"
        warnings += sum(not r[column] for r in rows)
        write_csv(out / f"chart_{column}.csv",
                  ["panel", "drug", "algorithm", "map"],
                  ([panel, r["drug_code"], r["algorithm"], r[column]]
                   for r in ordered))
    if warnings:
        log.warning("summary has %d missing metric values", warnings)
    return 0


# -- generation -----------------------------------------------------------

def demo_synth_config(seed: int = 7) -> synthgen.SynthConfig:
    """Small bundled demo configuration (two drugs, mixed signal kinds)."""
    noise = {f"noise_{i:02d}": 0.25 for i in range(8)}
    rates = dict(noise)
    rates.update({"adr_alpha": 0.1, "adr_beta": 0.1, "failure_gamma": 0.2,
                  "day0_delta": 0.1, "indication_x": 0.3})
    return synthgen.SynthConfig(
        n_patients=2000,
        years_span=4,
        background_event_rates=rates,
        drug_models={
            "drug_x": synthgen.DrugModel(0.35, ("indication_x", 4.0), 0.3),
            "drug_other": synthgen.DrugModel(0.4, None, 0.2),
        },
        injections=[
            synthgen.Injection("drug_x", "adr_alpha", 8.0, 30, "adr"),
            synthgen.Injection("drug_x", "adr_beta", 6.0, 20, "adr",
                               is_reaction_code=True),
            synthgen.Injection("drug_x", "failure_gamma", 6.0, 30,
                               "therapeutic_failure"),
            synthgen.Injection("drug_x", "day0_delta", 10.0, 30,
                               "day0_artifact"),
        ],
        rng_seed=seed,
    )


def synth_config_from_dict(raw: dict) -> synthgen.SynthConfig:
    """The SynthConfig of a scenario mapping.  An unknown key, a count,
    day or seed that is not an integer, a rate, risk or multiplier that
    is not a number and a flag that is not a boolean are ValueErrors."""
    _check_keys("scenario", raw, synthgen.SynthConfig,
                unread=("dropout_prob", "death_prob"))
    models = {}
    for drug, spec in (raw.get("drug_models") or {}).items():
        _check_keys(f"drug model {drug!r}", spec, synthgen.DrugModel)
        try:
            models[drug] = synthgen.DrugModel(
                spec["prescription_rate"], spec.get("indication_event"),
                spec.get("repeat_rate", 0.0))
        except ValueError as exc:   # a DrugModel does not know its key
            raise ValueError(f"drug model {drug!r}: {exc}") from None
    injections = []
    for j in raw.get("injections") or []:
        _check_keys("injection", j, synthgen.Injection)
        injections.append(synthgen.Injection(
            j["drug_code"], j["event_code"], j["relative_risk"],
            j.get("latency_window_days", 30), j.get("kind", "adr"),
            j.get("is_reaction_code", False)))
    return synthgen.SynthConfig(
        n_patients=raw["n_patients"],
        years_span=raw["years_span"],
        background_event_rates=raw["background_event_rates"],
        drug_models=models,
        injections=injections,
        rng_seed=raw.get("rng_seed", 0),
    )


def generate(config_path, output_dir, demo: bool = False,
             seed: int | None = None, cache: bool = True) -> int:
    """Write a synthetic database and, with cache, its load cache entry;
    ValueError names a bad scenario file."""
    config = (demo_synth_config() if demo
              else _read_yaml(config_path, synth_config_from_dict))
    if seed is not None:
        config = dataclasses.replace(config, rng_seed=seed)
    paths = synthgen.generate(config, output_dir, cache)
    for name, path in paths.items():
        log.info("wrote %s: %s", name, path)
    return 0


# -- argument parsing -----------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lodsig",
        description="ADR signal detection over longitudinal observational "
                    "databases")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate",
                           help="generate a synthetic database")
    source = p_gen.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="synthetic-config YAML path")
    source.add_argument("--demo", action="store_true",
                        help="use the bundled demo configuration")
    p_gen.add_argument("--output", required=True, help="output directory")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--no-cache", action="store_true",
                       help="neither read nor write the load cache")

    p_run = sub.add_parser("run", help="run algorithms per the manifest")
    source = p_run.add_mutually_exclusive_group(required=True)
    source.add_argument("--manifest", help="run-manifest YAML path")
    source.add_argument("--generate-demo", action="store_true",
                        help="generate demo data first and run everything "
                             "on it")
    p_run.add_argument("--all-algorithms", action="store_true",
                       help="override the manifest algorithm list with all "
                            "seven configurations")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the manifest seed")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="worker threads (at least 1)")
    p_run.add_argument("--output", default=None,
                       help="override the manifest output directory")
    p_run.add_argument("--no-cache", action="store_true",
                       help="neither read nor write the load cache")

    p_sum = sub.add_parser("summarize", help="pivot metrics into tables")
    p_sum.add_argument("output_dir")
    return parser


def main(argv=None) -> int:
    level_name = os.environ.get("LODSIG_LOG", "warning")
    level = _LOG_LEVELS.get(level_name.lower())
    if level is None:
        print(f"lodsig: LODSIG_LOG={level_name!r} is not a log level; "
              f"valid levels: {', '.join(_LOG_LEVELS)}", file=sys.stderr)
        return 2
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "generate":
        try:
            return generate(args.config, args.output, args.demo, args.seed,
                            not args.no_cache)
        except ValueError as exc:
            parser.error(str(exc))

    if args.command == "run":
        if args.jobs < 1:
            parser.error(f"--jobs must be at least 1, not {args.jobs}")
        if args.generate_demo:
            if not args.output:
                parser.error("run --generate-demo needs --output")
            data_dir = Path(args.output) / "data"
            try:
                generate(None, data_dir, demo=True, seed=args.seed,
                         cache=not args.no_cache)
            except ValueError as exc:
                parser.error(str(exc))
            manifest = RunManifest(
                database_dir=str(data_dir),
                drugs=["drug_x", "drug_other"],
                algorithms=list(ALGORITHM_IDS),
                output_dir=str(Path(args.output) / "results"),
                seed=args.seed if args.seed is not None else 7,
                ground_truth=str(data_dir / "ground_truth.csv"))
        else:
            try:
                manifest = RunManifest.from_file(args.manifest)
            except (ValueError, TypeError) as exc:
                parser.error(str(exc))
        if args.all_algorithms:
            manifest.algorithms = list(ALGORITHM_IDS)
        if args.seed is not None:
            manifest.seed = args.seed
        # in demo mode --output already shaped the data/results layout
        if args.output is not None and not args.generate_demo:
            manifest.output_dir = args.output
        command = functools.partial(run, manifest, jobs=args.jobs,
                                    cache=not args.no_cache)
    else:
        command = functools.partial(summarize, args.output_dir)
    try:
        return command()
    except (OSError, DataFormatError) as exc:
        log.error("%s failed: %s", args.command, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
