"""lodsig benchmark: timed `lodsig run` invocations per workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload screen|wide|full|all [--seed N]
        [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-digests

A repetition writes the workload's database with `lodsig generate` (timed
as set-up) into a fresh directory, then runs the workload's `lodsig run`
invocations one after another, each in a fresh process (one client, closed
loop).  Repetitions continue for --seconds (at least three).  With
--trace 1 the run instead times two untraced repetitions and one traced
repetition, and reports per-layer metrics.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import logging
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers
from workloads import DRUGS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
TRACER = Path(__file__).resolve().with_name("tracer.py")
# the entry point of the `lodsig` console script, without installing it
LODSIG_MAIN = "import sys; from lodsig.cli import main; sys.exit(main())"

MIN_REPS = 3
TRACE_BASELINE_REPS = 2
STARTUP_SAMPLES = 3
# a run must exit within 180 s; stop starting repetitions before that
RUN_BUDGET_S = 150.0
OP_TIMEOUT_S = 170.0


@dataclass
class Op:
    """One `lodsig generate` or `lodsig run` invocation."""
    name: str            # "generate" or the run's output directory
    seconds: float
    rss_mb: float
    warning_lines: int
    problems: list[str]

    @property
    def failed(self) -> bool:
        return bool(self.problems)


@dataclass
class Rep:
    generate: Op
    runs: list[Op] = field(default_factory=list)

    @property
    def ops(self) -> list[Op]:
        return [self.generate] + self.runs

    @property
    def run_s(self) -> float:
        return sum(op.seconds for op in self.runs)

    @property
    def wall_s(self) -> float:
        return self.generate.seconds + self.run_s


def lodsig_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "LODSIG_LOG"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv: list[str], cwd: Path, stderr_path: Path
          ) -> tuple[int, float, float]:
    """Run argv to completion: (exit code, wall seconds, peak RSS in MB).

    The child gets its own process group, killed on timeout, so pool
    workers it started cannot outlive it.
    """
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=lodsig_env(),
                                stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(OP_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # anything the child left behind
    # ru_maxrss of a reaped child covers its own reaped children too
    return proc.returncode, seconds, usage.ru_maxrss / 1024


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def invoke(name: str, args: list[str], rep_dir: Path,
           trace_dir: Path | None, check) -> Op:
    if trace_dir is None:
        argv = [sys.executable, "-c", LODSIG_MAIN, *args]
    else:
        argv = [sys.executable, str(TRACER), str(trace_dir / name), *args]
    stderr_path = rep_dir / f"stderr_{name}.txt"
    code, seconds, rss = spawn(argv, rep_dir, stderr_path)
    text = stderr_path.read_text(encoding="utf-8", errors="replace")
    warnings = sum(line.startswith("WARNING") for line in text.splitlines())
    if code != 0:
        problems = [f"{name}: exit code {code}"]
        tail = "\n".join(text.splitlines()[-5:])
        print(f"perfbench: {name} failed (exit {code}):\n{tail}",
              file=sys.stderr)
    else:
        problems = check()
        for p in problems:
            print(f"perfbench: check failed: {p}", file=sys.stderr)
    return Op(name, seconds, rss, warnings, problems)


def stored_digests(wl: Workload, seed: int) -> dict | None:
    """Digests to compare with at the default seed; None means semantic
    checks."""
    if seed != wl.default_seed:
        return None
    return checks.load_digests().get(wl.name, {})


def repetition(wl: Workload, seed: int, digests: dict | None,
               traced: bool = False) -> Rep:
    rep_dir = WORK / wl.name
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    trace_dir = None
    if traced:
        trace_dir = rep_dir / "traces"
        trace_dir.mkdir()

    def expected(name):
        return None if digests is None else digests.get(name, {})

    (rep_dir / "scenario.json").write_text(json.dumps(wl.scenario(seed)))
    gen = invoke("generate", ["generate", "--config", "scenario.json",
                              "--output", "data", "--seed", str(seed)],
                 rep_dir, trace_dir,
                 lambda: checks.check_generate(rep_dir / "data",
                                               expected("data")))
    rep = Rep(gen)
    for out, overrides in wl.runs:
        if gen.failed:
            rep.runs.append(Op(out, 0.0, 0.0, 0, ["no database"]))
            continue
        manifest = f"manifest_{out}.json"
        (rep_dir / manifest).write_text(
            json.dumps(wl.manifest(out, overrides, seed)))
        rep.runs.append(invoke(
            out, ["run", "--manifest", manifest, "--jobs", str(wl.jobs)],
            rep_dir, trace_dir,
            lambda out=out: checks.check_run(rep_dir / out, DRUGS,
                                             wl.algorithms, expected(out))))
    return rep


def timed_reps(wl: Workload, seed: int, seconds: float,
               min_reps: int) -> list[Rep]:
    """Repeat until the next repetition would end after `seconds`."""
    reps: list[Rep] = []
    t0 = time.perf_counter()
    while True:
        reps.append(repetition(wl, seed, stored_digests(wl, seed)))
        elapsed = time.perf_counter() - t0
        projected = elapsed + reps[-1].wall_s
        if projected > RUN_BUDGET_S or (len(reps) >= min_reps
                                        and projected > seconds):
            return reps


# -- records ------------------------------------------------------------------

def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    git = {"GIT_CEILING_DIRECTORIES": str(ROOT.parent),
           "PATH": os.environ.get("PATH", "")}

    def git_out(*args):
        try:
            res = subprocess.run(["git", *args], cwd=ROOT, env=git,
                                 capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    commit = git_out("rev-parse", "HEAD")
    status = git_out("status", "--porcelain") if commit else None
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "pyyaml": version("PyYAML"),
            "mp_start_method": multiprocessing.get_start_method(),
            "git_commit": commit,
            "git_dirty": None if status is None else bool(status)}


def input_sizes(wl: Workload, seed: int) -> dict:
    """Sizes of the last repetition's database and of each unit's inputs."""
    rep_dir = WORK / wl.name
    data = rep_dir / "data"
    try:
        events = rows_of(data / "events.csv")
        sizes = {"patients": len(rows_of(data / "patients.csv")),
                 "prescriptions": len(rows_of(data / "prescriptions.csv")),
                 "events_written": len(events)}
        sizes["units"] = unit_inputs(wl, seed, rep_dir)
    except (OSError, ValueError) as exc:  # generate failed; the run says so
        return {"unavailable": str(exc)}
    distinct = set(events)
    sizes["events_after_dedup"] = len(distinct)
    sizes["codes"] = len({line.split(",")[1] for line in distinct})
    return sizes


def unit_inputs(wl: Workload, seed: int, rep_dir: Path) -> dict[str, dict]:
    """Exposures, candidate events and ranked entries of every (run, drug,
    algorithm) unit.

    Every scoring function starts from the two calls made here, once, after
    the timed invocations, on the repetition's database.
    """
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from lodsig.cli import _base_config, _load_db
    from lodsig.store import candidate_events, extract_exposures

    # the runs already reported the load's warnings on their stderr
    logging.getLogger("lodsig").setLevel(logging.ERROR)
    db = _load_db(rep_dir / "data")
    units = {}
    for out, overrides in wl.runs:
        for drug in DRUGS:
            for algo in wl.algorithms:
                config = _base_config(algo, drug, seed,
                                      overrides.get(algo, {}))
                exposures = extract_exposures(db, config)
                candidates = candidate_events(
                    db, exposures, config.T, config.excluded_event_codes,
                    config.include_day0)
                unit = {"exposures": len(exposures),
                        "candidates": len(candidates)}
                ranked = rep_dir / out / f"ranked_{drug}_{algo}.csv"
                if ranked.is_file():
                    unit["ranked_entries"] = len(rows_of(ranked))
                units[f"{out}:{drug}/{algo}"] = unit
    return units


def rows_of(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()[1:]


def summary(values: list[float]) -> tuple[float, str, float]:
    """(median, label, value) of the highest percentile with at least ten
    samples beyond it, or of the maximum when the sample is smaller."""
    n = len(values)
    if n <= 10:
        return statistics.median(values), "max", max(values)
    pct = int(100 * (1 - 10 / n))
    cut = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return statistics.median(values), f"p{pct}", cut


def outcome(reps: list[Rep]) -> tuple[int, int]:
    ops = [op for rep in reps for op in rep.ops]
    return len(ops), sum(op.failed for op in ops)


# -- modes ------------------------------------------------------------------

def measure(wl: Workload, seed: int, seconds: float) -> dict:
    reps = timed_reps(wl, seed, seconds, MIN_REPS)
    attempted, failed = outcome(reps)
    samples = {"run_s": ([r.run_s for r in reps], "s"),
               "setup_s": ([r.generate.seconds for r in reps], "s"),
               "peak_rss_mb": ([max(op.rss_mb for op in r.runs)
                                for r in reps], "MB")}
    print(f"workload {wl.name}  seed {seed}  repetitions {len(reps)}  "
          f"invocations per repetition {len(wl.runs)} run + 1 generate")
    metrics = {}
    for name, (values, unit) in samples.items():
        med, label, high = summary(values)
        print(f"  {name:<12} median {med:.4f} {unit}  {label} {high:.4f} "
              f"{unit}  (n={len(values)})")
        metrics[name] = {"value": med, "unit": unit}
    print(f"  {'error_rate':<12} {failed / attempted:.4f} ratio  "
          f"({failed} of {attempted} invocations failed)")
    print(json.dumps({"samples": {k: v for k, (v, _) in samples.items()},
                      "inputs": input_sizes(wl, seed),
                      "environment": environment()}, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def startup_seconds() -> float:
    times = []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import lodsig.cli"],
                       env=lodsig_env(), check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_layers(wl: Workload, seed: int) -> dict:
    startup = startup_seconds()
    reps = timed_reps(wl, seed, 0.0, TRACE_BASELINE_REPS)
    traced = repetition(wl, seed, stored_digests(wl, seed), traced=True)
    attempted, failed = outcome(reps + [traced])
    rep_dir = WORK / wl.name
    gen_op = layers.read_op(rep_dir / "traces" / "generate")
    run_ops = [layers.read_op(rep_dir / "traces" / out) for out, _ in wl.runs]
    values = layers.layer_metrics(gen_op, run_ops, len(wl.runs))
    untraced_s = statistics.median(r.run_s for r in reps)
    outputs = [p for out, _ in wl.runs for p in (rep_dir / out).glob("*")]
    sizes = input_sizes(wl, seed)
    values.update({
        "cli.startup_s": (startup, "s"),
        "cli.warning_lines": (sum(op.warning_lines for op in traced.runs),
                              "count"),
        "synthgen.rows": (sum(sizes.get(k, 0) for k in (
            "patients", "prescriptions", "events_written")), "count"),
        "evaluation.files_written": (len(outputs), "count"),
        "evaluation.bytes_written": (sum(p.stat().st_size for p in outputs),
                                     "B"),
        "trace.overhead_s": (traced.run_s - untraced_s, "s"),
        "error_rate": (failed / attempted, "ratio"),
    })
    print(f"workload {wl.name}  seed {seed}  traced repetition "
          f"run_s {traced.run_s:.4f} s  untraced {[round(r.run_s, 4) for r in reps]}")
    for name, (value, unit) in sorted(values.items()):
        print(f"  {name:<42} {value:.6g} {unit}")
    print_shares(traced.run_s, untraced_s, run_ops)
    print(json.dumps({"inputs": sizes, "environment": environment()},
                     sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in sorted(values.items())}}


def print_shares(run_s: float, untraced_s: float, run_ops) -> None:
    """Self time per layer as a share of the traced run_s."""
    parent = layers.self_seconds_by_layer(run_ops, forked=False)
    parent["start-up and exit"] = run_s - layers.parent_seconds(run_ops,
                                                                "cli.main")
    print("  parent self time, share of traced run_s: " + ", ".join(
        f"{k} {v:.3f} s ({v / run_s:.1%})" for k, v in parent.items() if v))
    workers = layers.self_seconds_by_layer(run_ops, forked=True)
    if any(workers.values()):
        print("  pool-worker self time (busy, both workers): " + ", ".join(
            f"{k} {v:.3f} s ({v / run_s:.1%})" for k, v in workers.items()
            if v))
    scoring = layers.parent_seconds(run_ops, "cli._score")
    if scoring:
        # tracing slows the many spans inside cli._score but hardly the
        # start-up, load and reports outside it, so their traced time
        # stands for the untraced run's time outside scoring
        share = 1 - (run_s - scoring) / untraced_s
        print(f"  scoring (cli._score) share of the untraced median run_s: "
              f"{share:.1%}")


def write_digests() -> int:
    stored = {}
    for wl in WORKLOADS.values():
        # semantic checks only: the digests are what is being recorded
        rep = repetition(wl, wl.default_seed, None)
        if any(op.failed for op in rep.ops):
            print(f"perfbench: {wl.name} failed; digests not written",
                  file=sys.stderr)
            return 1
        rep_dir = WORK / wl.name
        stored[wl.name] = {name: checks.sha256_tree(rep_dir / name)
                           for name in ["data"] + [o for o, _ in wl.runs]}
    checks.DIGESTS_PATH.write_text(json.dumps(stored, indent=1,
                                              sort_keys=True) + "\n")
    print(f"wrote {checks.DIGESTS_PATH.relative_to(ROOT)}")
    return 0


def self_test() -> int:
    """A clean repetition has no failures; one flipped byte is counted."""
    wl = WORKLOADS["screen"]
    ok = True
    for seed in (wl.default_seed, wl.default_seed + 1):
        digests = stored_digests(wl, seed)
        rep = repetition(wl, seed, digests)
        clean = outcome([rep])[1]
        out = wl.runs[0][0]
        path = WORK / wl.name / out / "ranked_drug_x_ror05.csv"
        raw = bytearray(path.read_bytes())
        pos = raw.index(b"\n") + 1     # first byte of the first rank
        raw[pos] ^= 0x01
        path.write_bytes(bytes(raw))
        rep.runs[0].problems = checks.check_run(
            path.parent, DRUGS, wl.algorithms,
            None if digests is None else digests.get(out, {}))
        flipped = outcome([rep])[1]
        mode = "digest" if digests is not None else "semantic"
        print(f"self-test {mode} check: clean repetition {clean} failed, "
              f"after one flipped byte {flipped} failed")
        ok &= clean == 0 and flipped == 1
    print("self-test", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lodsig" / "cli.py").is_file():
        print(f"perfbench: no lodsig sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test()
        if args.write_digests:
            return write_digests()
        if args.workload is None:
            parser.error("--workload is required")
        chosen = list(WORKLOADS.values()) if args.workload == "all" \
            else [WORKLOADS[args.workload]]
        results = {}
        for wl in chosen:
            seed = wl.default_seed if args.seed is None else args.seed
            results[wl.name] = measure_layers(wl, seed) if args.trace \
                else measure(wl, seed, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{k}": v for w, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
