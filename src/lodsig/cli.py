"""Command-line entry point: generate, run and summarize.

A run is driven by a plain-text YAML manifest so the whole experiment
(database, drugs, algorithm configurations, seed, output directory) is an
archival artifact; rerunning the same manifest and seed reproduces the
output tree byte for byte, independent of the worker count.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import functools
import gc
import logging
import os
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .evaluation import AdrDictionary, emit_report, summarize
from .mutara import candidate_supports, hunt_view, mutara_view
from .ranking import RankedSignalList, build_ranked_list
from .srs import ror_view, srs_cells
from .store import (Database, DataFormatError, StudyConfig, _int,
                    candidate_codes, load_database)
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

    ranked_lists = []
    for algorithm_id in algorithms:
        config = _base_config(algorithm_id, drug, seed,
                              (overrides or {}).get(algorithm_id))
        _, scoring_pass, view = ALGORITHMS[algorithm_id]
        cands, codes = candidates(config.T, config.excluded_event_codes,
                                  config.include_day0)
        # each vector of the pass, or each row of a table, at the candidates
        values = tuple(v[..., cands].tolist()
                       for v in shared(scoring_pass, config))
        try:
            ranked_lists.append(build_ranked_list(algorithm_id, drug,
                                                  *view(codes, values)))
        except ValueError as exc:
            raise ValueError(f"{algorithm_id} for drug {drug!r}: {exc}") \
                from None
    return ranked_lists


def _check_keys(what: str, spec, cls, unread=()) -> None:
    """spec must be a mapping of the field names of cls, other than the
    unread ones, with every field that has no default, and a mapping at
    each field that cls declares a dict."""
    if not isinstance(spec, dict):
        raise ValueError(f"a {what} must be a mapping of keys, not a "
                         f"{type(spec).__name__}")
    fields = [f for f in dataclasses.fields(cls) if f.name not in unread]
    unknown = set(spec) - {f.name for f in fields}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown, key=str)}")
    for f in fields:
        if f.name not in spec:
            if f.default is f.default_factory is dataclasses.MISSING:
                raise ValueError(f"no {f.name!r} key in {what}")
        elif (str(f.type).startswith("dict")
              and not isinstance(spec[f.name], dict)):
            raise ValueError(f"{what} {f.name} must be a mapping, not "
                             f"{spec[f.name]!r}")


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
    def from_file(cls, path, **flags) -> "RunManifest":
        return _read_yaml(path, lambda raw: cls.from_dict(raw or {}, **flags))

    @classmethod
    def from_dict(cls, raw: dict, **flags) -> "RunManifest":
        """The manifest of a mapping, checked.  flags are entries given on
        the command line: they replace raw's and are checked with them."""
        if isinstance(raw, dict):
            raw = {**raw, **flags}
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
        bad = [a for a in [*manifest.algorithms, *manifest.overrides]
               if a not in ALGORITHM_IDS]
        if bad:
            raise ValueError(f"unknown algorithm ids {bad}; valid ids: "
                             f"{list(ALGORITHM_IDS)}")
        for algorithm_id, values in manifest.overrides.items():
            _check_keys(f"StudyConfig override for {algorithm_id}", values,
                        StudyConfig, unread=("drug_code",))
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


# libyaml's parser, where PyYAML is built with it, reads the 8.9 KB
# scenario of perfbench's wide workload in 5.6 ms against 39 ms
_SafeLoader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class _Loader(_SafeLoader):
    """PyYAML's safe loader with YAML 1.2's floats: YAML 1.1 reads an
    exponent without a dot or a signed exponent (1e-3, 1.0e3, JSON's
    1e-05) as text.  Digits alone stay integers."""


_FLOAT = "tag:yaml.org,2002:float"
_Loader.yaml_implicit_resolvers = {
    first: [r for r in resolvers if r[0] != _FLOAT]
    for first, resolvers in _SafeLoader.yaml_implicit_resolvers.items()}
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
    except (ValueError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_db(database_dir, cache: bool = True) -> Database:
    data = Path(database_dir)
    return load_database(data / "prescriptions.csv", data / "events.csv",
                         data / "patients.csv", cache=cache)


def run(manifest: RunManifest, jobs: int = 1, cache: bool = True) -> int:
    """Score every drug of the manifest and write all artifacts; cache
    says whether the load may read and write the load cache.

    The output directory is made before the load, so an output that
    cannot be one fails first; a run that fails before writing removes
    the directory again if it made it."""
    # the small ground-truth file is checked before the database load
    dictionary = None
    if manifest.ground_truth is not None:
        dictionary = AdrDictionary.from_csv(manifest.ground_truth)
    out = Path(manifest.output_dir)
    made = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    try:
        db = _load_db(manifest.database_dir, cache)
        for drug in manifest.drugs:
            if db.drug_index(drug) is None:
                raise DataFormatError(
                    f"drug {drug!r} has no prescriptions in the database "
                    f"at {manifest.database_dir}")
        score = functools.partial(
            score_drug, db, algorithms=manifest.algorithms,
            seed=manifest.seed, overrides=manifest.overrides)
        workers = min(jobs, len(manifest.drugs))
        if workers == 1:
            # a pool thread would get a malloc arena of its own
            per_drug = list(map(score, manifest.drugs))
        else:
            import concurrent.futures
            # threads share the one loaded database and the arrays it
            # caches
            with concurrent.futures.ThreadPoolExecutor(workers) as pool:
                per_drug = list(pool.map(score, manifest.drugs))
    except BaseException:
        if made:
            out.rmdir()
        raise
    ranked_lists = []
    for drug, lists in zip(manifest.drugs, per_drug):
        log.info("scored %s: %s", drug, ", ".join(
            f"{r.algorithm} {len(r.entries)}" for r in lists))
        ranked_lists += lists
    emit_report(out, ranked_lists, dictionary)
    with open(out / "manifest_resolved.yaml", "w", encoding="utf-8") as fh:
        yaml.safe_dump(manifest.to_dict(), fh, sort_keys=True)
    return 0


# -- generation -----------------------------------------------------------
# (synthgen is imported inside these functions, so `run` never compiles it)

def demo_synth_config(seed: int = 7) -> synthgen.SynthConfig:
    """Small bundled demo configuration (two drugs, mixed signal kinds)."""
    from . import synthgen
    rates = {**{f"noise_{i:02d}": 0.25 for i in range(8)},
             "adr_alpha": 0.1, "adr_beta": 0.1, "failure_gamma": 0.2,
             "day0_delta": 0.1, "indication_x": 0.3}
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
    """The SynthConfig of a scenario mapping.  A missing or unknown key,
    a count, day or seed that is not an integer, a rate, risk or
    multiplier that is not a number and a flag that is not a boolean are
    ValueErrors."""
    from . import synthgen
    _check_keys("scenario", raw, synthgen.SynthConfig,
                unread=("dropout_prob", "death_prob"))
    config = dict(raw)
    if "drug_models" in raw:
        config["drug_models"] = {}
        for drug, spec in raw["drug_models"].items():
            _check_keys(f"drug model {drug!r}", spec, synthgen.DrugModel)
            try:
                config["drug_models"][drug] = synthgen.DrugModel(**spec)
            except ValueError as exc:   # a DrugModel does not know its key
                raise ValueError(f"drug model {drug!r}: {exc}") from None
    if "injections" in raw:
        if not isinstance(raw["injections"], list):
            raise ValueError("scenario injections must be a list, not "
                             f"{raw['injections']!r}")
        config["injections"] = []
        for spec in raw["injections"]:
            _check_keys("injection", spec, synthgen.Injection)
            config["injections"].append(synthgen.Injection(**spec))
    return synthgen.SynthConfig(**config)


def _scenario(config_path, demo: bool, seed: int | None):
    """The SynthConfig of a scenario file or the demo, at seed if given;
    ValueError names a bad scenario file."""
    config = (demo_synth_config() if demo
              else _read_yaml(config_path, synth_config_from_dict))
    if seed is not None:
        config = dataclasses.replace(config, rng_seed=seed)
    return config


def _write_database(config, output_dir, cache: bool) -> int:
    """Write a synthetic database and, with cache, its load cache entry."""
    from . import synthgen
    paths = synthgen.generate(config, output_dir, cache)
    for name, path in paths.items():
        log.info("wrote %s: %s", name, path)
    return 0


# -- argument parsing -----------------------------------------------------

def _path(text: str) -> str:
    """A path argument: '' would be the current directory to Path."""
    if not text:
        raise argparse.ArgumentTypeError("must be a non-empty path")
    return text


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
    p_gen.add_argument("--output", required=True, type=_path,
                       help="output directory")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--no-cache", action="store_true",
                       help="neither read nor write the load cache")

    p_run = sub.add_parser("run", help="run algorithms per the manifest")
    source = p_run.add_mutually_exclusive_group(required=True)
    source.add_argument("--manifest", help="run-manifest YAML path")
    source.add_argument("--generate-demo", action="store_true",
                        help="write demo data to OUTPUT/data, then run "
                             "all ids on it into OUTPUT/results")
    p_run.add_argument("--all-algorithms", action="store_true",
                       help="set the manifest's algorithms entry to all "
                            "seven configurations")
    p_run.add_argument("--seed", type=int, default=None,
                       help="set the manifest's seed entry")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="worker threads (at least 1); one worker "
                            "scores in the calling thread")
    p_run.add_argument("--output", type=_path,
                       help="set the manifest's output_dir entry")
    p_run.add_argument("--no-cache", action="store_true",
                       help="neither read nor write the load cache")

    p_sum = sub.add_parser("summarize", help="pivot metrics into tables")
    p_sum.add_argument("output_dir", type=_path)
    return parser


@functools.cache
def _freeze_at_exit() -> None:
    """Register gc.freeze to run at exit, once per process: the
    interpreter's final collection then skips the objects numpy and the
    run left (17 ms of a bare `import numpy` process on 2 vCPU).  Every
    file lodsig writes is closed by `with` before main returns, so no
    output waits on a finalizer."""
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_at_exit()
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
    # a demo run writes its database first
    steps = []
    try:
        if args.command == "generate":
            steps.append(functools.partial(
                _write_database, _scenario(args.config, args.demo, args.seed),
                args.output, not args.no_cache))
        elif args.command == "summarize":
            steps.append(functools.partial(summarize, args.output_dir))
        elif args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, not {args.jobs}")
        else:
            # the flags are manifest entries, checked with the others
            flags = {"seed": args.seed} if args.seed is not None else {}
            if args.all_algorithms:
                flags["algorithms"] = list(ALGORITHM_IDS)
            if args.manifest is not None:
                if args.output is not None:
                    flags["output_dir"] = args.output
                manifest = RunManifest.from_file(args.manifest, **flags)
            elif args.output is None:
                raise ValueError("run --generate-demo needs --output")
            else:
                # --output holds the demo's data and results directories
                demo, data = demo_synth_config(), Path(args.output, "data")
                manifest = RunManifest.from_dict(dict(
                    database_dir=str(data), drugs=list(demo.drug_models),
                    algorithms=list(ALGORITHM_IDS),
                    output_dir=str(Path(args.output, "results")),
                    seed=demo.rng_seed,
                    ground_truth=str(data / "ground_truth.csv")), **flags)
                steps.append(functools.partial(
                    _write_database, _scenario(None, True, manifest.seed),
                    data, not args.no_cache))
            steps.append(functools.partial(run, manifest, jobs=args.jobs,
                                           cache=not args.no_cache))
    except ValueError as exc:
        parser.error(str(exc))
    try:
        for step in steps:
            step()
        return 0
    except (OSError, DataFormatError) as exc:
        log.error("%s failed: %s", args.command, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
