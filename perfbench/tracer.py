"""Run one `lodsig` command with a span around each call into a layer.

Usage: python tracer.py SPANS_PREFIX LODSIG_ARGS...

The listed functions are replaced, wherever a `lodsig` module binds them,
by wrappers that record (name, start, end, parent, label, counts, key).
Spans stay in memory and each process writes its own
SPANS_PREFIX.<pid>.jsonl when it ends; forked pool workers inherit the
wrappers and write theirs from the multiprocessing exit hook.  No file of
the program is changed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing.util
import os
import sys
import time

import numpy as np

# Layer boundaries.  Scalar helpers called once per candidate, patient or
# row (ic, ror05, precision_k, background_window_start, from_ordinal) are
# left out: a span each would swamp the work it measures.
BOUNDARIES = {
    "cli": ("main", "run", "generate", "_load_db", "_init_worker",
            "_score_unit", "_score", "_write_significance"),
    "store": ("load_database", "Database.from_records", "extract_exposures",
              "first_exposure_per_patient", "candidate_events",
              "window_pairs"),
    "srs": ("rank_ror", "build_srs_counts"),
    "temporal_ic": ("rank_oe", "oe_scores", "all_drug_exposures"),
    "mutara": ("rank_mutara", "rank_hunt", "support_counts"),
    "ranking": ("build_ranked_list", "rank_events"),
    "evaluation": ("AdrDictionary.from_csv", "evaluate", "emit_report",
                   "compare_algorithms"),
    "synthgen": ("generate", "build_database", "generate_tables",
                 "realized_truth"),
}


def _column_bytes(db) -> int:
    return sum(v.nbytes for v in vars(db).values()
               if isinstance(v, np.ndarray))


def _length(result) -> dict:
    return {"n": len(result)}


def _entries(result) -> dict:
    return {"n": len(result.entries)}


def _oe_counts(result) -> dict:
    reasons = list(result.filtered.values())
    return {"n": len(result.entries),
            "prior_month": reasons.count("prior_month"),
            "day_of_prescription": reasons.count("day_of_prescription")}


# counts read from a call's result, so ratios come from where work happens
COUNTERS = {
    "store.load_database": lambda db: {
        "rows": db.n_patients + len(db.rx_pid) + len(db.ev_pid),
        "duplicates": db.duplicates_dropped,
        "column_bytes": _column_bytes(db)},
    "store.extract_exposures": _length,
    "store.candidate_events": _length,
    "srs.build_srs_counts": lambda tables: {
        "pairs": next(iter(tables.values())).total if tables else 0},
    "srs.rank_ror": _entries,
    "temporal_ic.oe_scores": _length,
    "temporal_ic.rank_oe": _oe_counts,
    "mutara.rank_mutara": _entries,
    "mutara.rank_hunt": _entries,
    "ranking.build_ranked_list": _entries,
}


def _argument_key(args, kwargs) -> str:
    # every argument but the database, which is the same within a run
    text = repr((args[1:], sorted(kwargs.items())))
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


# calls whose repeats (same arguments in one run) count as wasted work
KEYED = ("store.extract_exposures", "store.candidate_events")


def _unit_label(args, kwargs) -> str:
    # cli._score(db, algorithm_id, config)
    return f"{args[2].drug_code}/{args[1]}"


class Tracer:
    def __init__(self, prefix: str):
        self.prefix = prefix
        self.forked = False
        self._start()

    def _start(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.t_start = time.perf_counter()

    def after_fork(self):
        # runs in a multiprocessing child after it cleared the finalizers
        # inherited from the parent, so this one survives
        self.forked = True
        self._start()
        multiprocessing.util.Finalize(None, self.flush, exitpriority=100)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        labelled = name == "cli._score"
        keyed = name in KEYED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = _argument_key(args, kwargs) if keyed else None
            label = _unit_label(args, kwargs) if labelled else None
            span = [name, time.perf_counter(), None,
                    self.stack[-1] if self.stack else -1, label, None, key]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                span[5] = counter(result)
            return result
        return traced

    def flush(self):
        process = ["process", self.t_start, time.perf_counter(), -1, None,
                   {"forked": int(self.forked)}, None]
        fields = ("name", "t0", "t1", "parent", "label", "counts", "key")
        with open(f"{self.prefix}.{os.getpid()}.jsonl", "w",
                  encoding="utf-8") as fh:
            for span in [process] + self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every boundary function where any lodsig module binds it."""
    import importlib
    modules = {layer: importlib.import_module(f"lodsig.{layer}")
               for layer in BOUNDARIES}
    lodsig_modules = [m for n, m in sys.modules.items()
                      if m is not None and (n == "lodsig"
                                            or n.startswith("lodsig."))]
    for layer, names in BOUNDARIES.items():
        for qualified in names:
            owner_name, _, attr = qualified.rpartition(".")
            owner = getattr(modules[layer], owner_name) if owner_name \
                else modules[layer]
            raw = vars(owner).get(attr)
            if raw is None:
                print(f"perfbench: lodsig.{layer}.{qualified} not found, "
                      "not traced", file=sys.stderr)
                continue
            span_name = f"{layer}.{qualified}"
            if isinstance(raw, classmethod):
                setattr(owner, attr,
                        classmethod(tracer.wrap(span_name, raw.__func__)))
                continue
            wrapper = tracer.wrap(span_name, raw)
            for module in lodsig_modules:
                for bound_name, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, bound_name, wrapper)


def main(argv: list[str]) -> int:
    prefix, lodsig_args = argv[0], argv[1:]
    tracer = Tracer(prefix)
    install(tracer)
    multiprocessing.util.register_after_fork(tracer, Tracer.after_fork)
    from lodsig.cli import main as lodsig_main
    try:
        return lodsig_main(lodsig_args)
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
