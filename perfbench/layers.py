"""Per-layer metrics from the span files of one traced repetition.

A repetition is one `lodsig generate` followed by the workload's `lodsig
run` invocations; each invocation (an "op") leaves one span file per
process.  Every `*_s` metric is busy time: the summed duration of its spans
over all processes of the workload's runs, so pool workers add up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

LAYERS = ("cli", "store", "srs", "temporal_ic", "mutara", "ranking",
          "evaluation", "synthgen")


@dataclass
class Span:
    name: str
    t0: float
    t1: float
    parent: "Span | None"
    label: str | None
    counts: dict
    key: str | None
    children: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    @property
    def self_seconds(self) -> float:
        return self.seconds - sum(c.seconds for c in self.children)

    @property
    def unit(self) -> str | None:
        """The (drug, algorithm) unit of the innermost labelled ancestor."""
        span = self
        while span is not None and span.label is None:
            span = span.parent
        return None if span is None else span.label


@dataclass
class Process:
    t_start: float
    forked: bool
    spans: list[Span]


def read_op(prefix: Path) -> list[Process]:
    """Every process's spans written under one op's span-file prefix."""
    processes = []
    for path in sorted(prefix.parent.glob(prefix.name + ".*.jsonl")):
        lines = [json.loads(line) for line in
                 path.read_text(encoding="utf-8").splitlines()]
        head, raw = lines[0], lines[1:]
        spans: list[Span] = []
        for r in raw:
            parent = spans[r["parent"]] if r["parent"] >= 0 else None
            span = Span(r["name"], r["t0"], r["t1"], parent, r["label"],
                        r["counts"] or {}, r["key"])
            if parent is not None:
                parent.children.append(span)
            spans.append(span)
        processes.append(Process(head["t0"],
                                 bool(head["counts"]["forked"]), spans))
    return processes


def _spans(ops, name=None):
    return [s for procs in ops for p in procs for s in p.spans
            if name is None or s.name == name]


def _busy(ops, name, unit_suffix=None) -> float:
    return sum(s.seconds for s in _spans(ops, name)
               if unit_suffix is None
               or (s.unit or "").endswith("/" + unit_suffix))


def _count(ops, name, key) -> int:
    return sum(s.counts.get(key, 0) for s in _spans(ops, name))


def _repeat_ratio(ops, name) -> float:
    calls = repeats = 0
    for procs in ops:
        seen = set()
        for span in sorted((s for p in procs for s in p.spans
                            if s.name == name), key=lambda s: s.t0):
            calls += 1
            repeats += span.key in seen
            seen.add(span.key)
    return repeats / calls if calls else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _worker_init(ops) -> float:
    """Mean time from a pool worker's fork to the start of its first unit."""
    waits = []
    for procs in ops:
        for p in procs:
            starts = [s.t0 for s in p.spans if s.name == "cli._score_unit"]
            if p.forked and starts:
                waits.append(min(starts) - p.t_start)
    return sum(waits) / len(waits) if waits else 0.0


def self_seconds_by_layer(ops, forked: bool) -> dict[str, float]:
    """Self time per layer in the parent processes or in pool workers."""
    out = dict.fromkeys(LAYERS, 0.0)
    for procs in ops:
        for p in procs:
            if p.forked != forked:
                continue
            for span in p.spans:
                layer = span.name.split(".")[0]
                if layer in out:
                    out[layer] += span.self_seconds
    return out


def parent_seconds(ops, name) -> float:
    """Time inside the named spans of the parent processes."""
    return sum(s.seconds for procs in ops for p in procs if not p.forked
               for s in p.spans if s.name == name)


def layer_metrics(generate_op, run_ops, n_runs: int) -> dict[str, tuple]:
    """(value, unit) for each per-layer metric the traced spans give."""
    g, r = [generate_op], run_ops
    gen = _spans(g, "synthgen.generate")
    write_s = sum(s.self_seconds for s in gen)
    oe_s = _busy(r, "temporal_ic.rank_oe")
    mutara_s = _busy(r, "mutara.rank_mutara") + _busy(r, "mutara.rank_hunt")
    mutara_n = (_count(r, "mutara.rank_mutara", "n")
                + _count(r, "mutara.rank_hunt", "n"))
    load_s = _busy(r, "store.load_database")
    rows = _count(r, "store.load_database", "rows")
    loads = _spans(r, "store.load_database")
    return {
        "cli.loads_per_run": (_ratio(len(loads), n_runs), "count"),
        "cli.worker_init_s": (_worker_init(r), "s"),
        "synthgen.generate_tables_s": (_busy(g, "synthgen.generate_tables"),
                                       "s"),
        "synthgen.from_records_s": (_busy(g, "store.Database.from_records"),
                                    "s"),
        "synthgen.realized_truth_s": (_busy(g, "synthgen.realized_truth"),
                                      "s"),
        "synthgen.write_s": (write_s, "s"),
        "store.load_database_s": (load_s, "s"),
        "store.rows_loaded": (rows, "count"),
        "store.load_rows_per_s": (_ratio(rows, load_s), "1/s"),
        "store.duplicates_dropped": (
            max((s.counts.get("duplicates", 0) for s in loads), default=0),
            "count"),
        "store.column_bytes": (
            max((s.counts.get("column_bytes", 0) for s in loads), default=0),
            "B"),
        "store.extract_exposures_s": (_busy(r, "store.extract_exposures"),
                                      "s"),
        "store.extract_exposures_calls": (
            len(_spans(r, "store.extract_exposures")), "count"),
        "store.exposures": (_count(r, "store.extract_exposures", "n"),
                            "count"),
        "store.candidate_events_s": (_busy(r, "store.candidate_events"), "s"),
        "store.candidates": (_count(r, "store.candidate_events", "n"),
                             "count"),
        "store.extract_exposures_repeat_ratio": (
            _repeat_ratio(r, "store.extract_exposures"), "ratio"),
        "store.candidate_events_repeat_ratio": (
            _repeat_ratio(r, "store.candidate_events"), "ratio"),
        "temporal_ic.all_drug_exposures_s": (
            _busy(r, "temporal_ic.all_drug_exposures"), "s"),
        "srs.rank_ror_s": (_busy(r, "srs.rank_ror"), "s"),
        "srs.build_srs_counts_s": (_busy(r, "srs.build_srs_counts"), "s"),
        "srs.pairs": (_count(r, "srs.build_srs_counts", "pairs"), "count"),
        "temporal_ic.oe1_s": (_busy(r, "temporal_ic.rank_oe", "oe1"), "s"),
        "temporal_ic.oe2_s": (_busy(r, "temporal_ic.rank_oe", "oe2"), "s"),
        "temporal_ic.candidates_scored": (
            _count(r, "temporal_ic.oe_scores", "n"), "count"),
        "temporal_ic.s_per_candidate": (
            _ratio(oe_s, _count(r, "temporal_ic.oe_scores", "n")), "s"),
        "temporal_ic.filtered_prior_month": (
            _count(r, "temporal_ic.rank_oe", "prior_month"), "count"),
        "temporal_ic.filtered_day_of_prescription": (
            _count(r, "temporal_ic.rank_oe", "day_of_prescription"),
            "count"),
        "mutara.mutara60_s": (_busy(r, "mutara.rank_mutara", "mutara60"),
                              "s"),
        "mutara.mutara180_s": (_busy(r, "mutara.rank_mutara", "mutara180"),
                               "s"),
        "mutara.hunt60_s": (_busy(r, "mutara.rank_hunt", "hunt60"), "s"),
        "mutara.hunt180_s": (_busy(r, "mutara.rank_hunt", "hunt180"), "s"),
        "mutara.s_per_candidate": (_ratio(mutara_s, mutara_n), "s"),
        "ranking.entries": (_count(r, "ranking.build_ranked_list", "n"),
                            "count"),
        "evaluation.evaluate_s": (_busy(r, "evaluation.evaluate"), "s"),
        "evaluation.emit_report_s": (_busy(r, "evaluation.emit_report"), "s"),
        "evaluation.compare_algorithms_s": (
            _busy(r, "evaluation.compare_algorithms"), "s"),
    }
