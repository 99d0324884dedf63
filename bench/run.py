"""crossmoji benchmark: drives the real `crossmoji` CLI on seeded workloads.

    python3 bench/run.py --workload planted|feed|rerun --seed N --seconds S --trace 0|1

Run from the repository root.  Each timed operation is a fresh
`python3 -m crossmoji.cli all` process, repeated for at least S seconds
(and at least MIN_OPS times); every one is checked for correctness.  The
times reported are the fastest of the run: the host's load only ever adds
time, so the minimum is the steadiest estimate of the program's own cost.
The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones, with `--trace 1` the per-layer ones, which come from one extra
traced run (`bench/tracer.py`).  See bench/README.md for what each metric
means.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_run"
CHILD_TIMEOUT_S = 60  # one operation takes seconds; a run must end within minutes
MIN_OPS = 3
SETUP_PROBES = 16
SETUP_BATCH = 4  # every run has at least four gaps between pipeline processes

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402
from tracer import STAGES  # noqa: E402

# end-to-end metrics: name -> unit
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "artifact_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# --- child processes ---------------------------------------------------------

@dataclass
class Process:
    """One finished child: exit code, wall seconds, peak resident MB."""

    code: int
    wall_s: float
    peak_rss_mb: float


@contextmanager
def killed_after(proc: subprocess.Popen):
    """Kill `proc` if it is still running CHILD_TIMEOUT_S after entry."""
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        yield
    finally:
        timer.cancel()


def run_child(argv: list[str], log_path: Path) -> Process:
    """Run to completion; time spawn to exit and read the child's own rusage."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=child_env())
        with killed_after(proc):
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6)


def time_setup(config: Path) -> float:
    """Spawn to `ready` of bench/ready.py, in seconds."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "ready.py"), str(config)],
                            stdout=subprocess.PIPE, cwd=ROOT, env=child_env(), text=True)
    with killed_after(proc), proc.stdout:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
    code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
    return seconds


def cli_argv(config: Path, out: Path, trace: Path | None = None) -> list[str]:
    args = ["all", "--config", str(config), "--out", str(out)]
    if trace is None:
        return [sys.executable, "-m", "crossmoji.cli"] + args
    return [sys.executable, str(BENCH / "tracer.py"), str(trace), "--"] + args


# --- output checks -----------------------------------------------------------

def tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def digest(out: Path, models_only: bool = False) -> str:
    """sha256 over the model files and, unless `models_only`, every CSV."""
    h = hashlib.sha256()
    for p in sorted(out.rglob("*")):
        rel = p.relative_to(out)
        if p.is_file() and (rel.parts[0] == "models" or (p.suffix == ".csv" and not models_only)):
            h.update(str(rel).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def icon_scc(out: Path) -> dict[str, float]:
    return {r["emoji"]: float(r["scc"]) for r in read_csv(out / "report" / "icon_scc.csv")}


def signal_failures(out: Path, e1: str, e2: str) -> list[str]:
    """Criterion 6: catA rho > 0, icon scc E1 > E2, E1 in both catA top 5."""
    try:
        cat_a = {r["category"]: r for r in read_csv(out / "report" / "category_scc.csv")}["catA"]
        icon = icon_scc(out)
        problems = []
        if not float(cat_a["rho"]) > 0:
            problems.append(f"catA rho {cat_a['rho']} <= 0")
        if not icon[e1] > icon[e2]:
            problems.append(f"icon scc E1 {icon[e1]} <= E2 {icon[e2]}")
        for column in ("top5_west", "top5_east"):
            if e1 not in cat_a[column].split():
                problems.append(f"E1 missing from catA {column}")
        return problems
    except (OSError, KeyError, ValueError) as exc:
        return [f"report unreadable: {exc!r}"]


def count_failures(out: Path, expected: dict) -> list[str]:
    """counts.json must match the generator's own tally field by field."""
    try:
        got = json.loads((out / "counts.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"counts.json unreadable: {exc!r}"]
    return [f"{cid}.{key}: got {got.get(cid, {}).get(key)}, generated {want}"
            for cid, fields in expected.items() for key, want in fields.items()
            if got.get(cid, {}).get(key) != want]


def signal_margin(out: Path, e1: str, e2: str) -> float:
    try:
        icon = icon_scc(out)
        return icon[e1] - icon[e2]
    except (OSError, KeyError, ValueError):
        return 0.0


# --- one benchmark run -------------------------------------------------------

@dataclass
class Op:
    """One timed operation and what its checks found."""

    process: Process
    artifact_mb: float
    problems: list[str] = field(default_factory=list)
    margin: float = 0.0  # icon scc E1 - E2 of its output


class Bench:
    """One benchmark run: its work directory, settings and timed operations."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path, config: Path):
        self.workload, self.seed, self.seconds, self.work = workload, seed, seconds, work
        self.config = config
        self.ops: list[Op] = []
        self.setup_times: list[float] = []
        self._logs = 0

    def probe_setup(self) -> None:
        """Take the next batch of set-up probes, up to SETUP_PROBES in all.

        Batches run in the gaps between pipeline processes, so the probes
        sample the machine's speed at four points seconds apart, not in
        one burst."""
        for _ in range(min(SETUP_BATCH, SETUP_PROBES - len(self.setup_times))):
            self.setup_times.append(time_setup(self.config))

    def log(self, tag: str) -> Path:
        self._logs += 1
        return self.work / f"{self._logs:03d}-{tag}.log"

    def pipeline(self, config: Path, out: Path, trace: Path | None = None) -> Process:
        return run_child(cli_argv(config, out, trace), self.log("trace" if trace else "all"))

    def finish(self, process: Process, out: Path, problems: list[str], margin: float,
               what: str = "crossmoji") -> Op:
        op = Op(process, tree_bytes(out) / 1e6 if out.exists() else 0.0, margin=margin)
        self.ops.append(op)
        if process.code != 0:
            self.flag(op, f"{what} exited {process.code}")
        for problem in problems:
            self.flag(op, problem)
        return op

    def flag(self, op: Op, problem: str) -> None:
        op.problems.append(problem)
        print(f"FAILED {self.workload} seed {self.seed}: {problem}", file=sys.stderr)

    def repeat(self, once) -> list[Op]:
        """Call `once(i)` until `seconds` have passed, and at least MIN_OPS
        times; set-up probes run between the operations."""
        self.probe_setup()
        start, ops = time.perf_counter(), []
        while len(ops) < MIN_OPS or time.perf_counter() - start < self.seconds:
            ops.append(once(len(ops)))
            self.probe_setup()
        return ops


def cold_runs(bench: Bench, wl: workloads.Workload, trace: Path | None):
    """`planted` and `feed`: cold `all` into a fresh output directory."""
    first_digest = []

    def once(i: int, trace_path: Path | None = None) -> Op:
        out = bench.work / f"out{i}"
        process = bench.pipeline(wl.config, out, trace_path)
        problems = []
        if process.code == 0:
            if wl.expected_counts:
                problems += count_failures(out, wl.expected_counts)
            else:
                problems += signal_failures(out, workloads.E1, workloads.E2)
            d = digest(out)
            first_digest.append(d)
            if d != first_digest[0]:
                problems.append("models/CSVs differ from the first run of this seed")
        op = bench.finish(process, out, problems, signal_margin(out, workloads.E1, workloads.E2))
        if trace_path is None:
            shutil.rmtree(out, ignore_errors=True)
        return op

    untraced = bench.repeat(once)
    traced = once(len(untraced), trace) if trace else None
    return untraced, traced


def rerun(bench: Bench, wl: workloads.Workload, trace: Path | None):
    """Cold `all` (untimed), then edit only `top_k` and time `all` again.

    The untimed cold run is checked and counted as an operation too.  Every
    re-run must report the generated counts and keep the cold run's models;
    the last one must also equal a cold run of the config it ran with."""
    out = bench.work / "out"
    bench.probe_setup()
    cold = bench.pipeline(wl.config, out)
    bench.finish(cold, out, count_failures(out, wl.expected_counts) if cold.code == 0 else [],
                 0.0, what="untimed cold run")
    models = digest(out, models_only=True)
    top_k = json.loads(wl.config.read_text(encoding="utf-8"))["top_k"]

    def once(i: int, trace_path: Path | None = None) -> Op:
        # a new value every time, so no earlier result can be reused as is
        workloads.set_top_k(wl.config, top_k + 1 + i)
        process = bench.pipeline(wl.config, out, trace_path)
        problems = []
        if process.code == 0:
            problems += count_failures(out, wl.expected_counts)
            if digest(out, models_only=True) != models:
                problems.append("models differ from the cold run of this seed")
        return bench.finish(process, out, problems, signal_margin(out, workloads.E1, workloads.E2))

    untraced = bench.repeat(once)
    traced = once(len(untraced), trace) if trace else None
    # the last re-run must equal a cold run of the config it ran with
    reference = bench.work / "reference"
    last = traced or untraced[-1]
    if bench.pipeline(wl.config, reference).code != 0:
        bench.flag(last, "cold run of the edited config failed")
    elif digest(reference) != digest(out):
        bench.flag(last, "re-run models/CSVs differ from a cold run of the edited config")
    return untraced, traced


WORKLOADS = {
    "planted": (workloads.write_planted, cold_runs),
    "feed": (workloads.write_feed, cold_runs),
    # a smaller feed: each run also pays an untimed cold run and a reference one
    "rerun": (workloads.write_rerun, rerun),
}


# --- metrics -----------------------------------------------------------------

def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(trace: dict, traced: Op, untraced_wall: float, error_rate: float) -> dict:
    """Per-layer metrics from one traced run (see bench/README.md)."""
    totals, counters = trace["totals"], trace["trace"]["counters"]

    def seconds(name):
        return totals.get(name, {}).get("seconds", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def counter(name):
        return counters.get(name, 0)

    stage_s = {s: seconds(f"pipeline.{s}") for s in STAGES}
    stages_run = sum(calls(f"pipeline.{s}") for s in STAGES)
    ingest_s, train_s = seconds("corpus.ingest"), seconds("embedding.train")
    save_s, load_s = seconds("embedding.save"), seconds("embedding.load")
    save_mb, load_mb = counter("embedding.save_bytes") / 1e6, counter("embedding.load_bytes") / 1e6
    m = {f"pipeline.{s}_s": metric(v, "s") for s, v in stage_s.items()}
    m.update({
        "pipeline.stages_run": metric(stages_run, "count"),
        "pipeline.stages_skipped": metric(len(STAGES) - stages_run, "count"),
        "pipeline.uncovered_ratio": metric(
            1 - sum(stage_s.values()) / traced.process.wall_s, "ratio"),
        "corpus.ingest_s": metric(ingest_s, "s"),
        "corpus.records_read": metric(counter("corpus.records_read"), "count"),
        "corpus.posts_per_s": metric(ratio(counter("corpus.records_read"), ingest_s), "1/s"),
        "corpus.kept_ratio": metric(
            ratio(counter("corpus.kept"), counter("corpus.records_read")), "ratio"),
        "corpus.parse_errors": metric(counter("corpus.parse_errors"), "count"),
        "corpus.write_streams_s": metric(seconds("corpus.write_streams"), "s"),
        "corpus.read_streams_s": metric(seconds("corpus.read_streams"), "s"),
        "corpus.read_streams_calls": metric(calls("corpus.read_streams"), "count"),
        "inventory.load_s": metric(seconds("inventory.load"), "s"),
        "inventory.count_frequencies_s": metric(seconds("inventory.count_frequencies"), "s"),
        "inventory.count_frequencies_calls": metric(calls("inventory.count_frequencies"),
                                                    "count"),
        "embedding.vocab_s": metric(seconds("embedding.vocab"), "s"),
        "embedding.train_s": metric(train_s, "s"),
        "embedding.train_tokens": metric(counter("embedding.train_tokens"), "count"),
        "embedding.train_tokens_per_s": metric(
            ratio(counter("embedding.train_tokens"), train_s), "tokens/s"),
        "embedding.models_trained": metric(counter("embedding.models_trained"), "count"),
        "embedding.save_s": metric(save_s, "s"),
        "embedding.save_mb": metric(save_mb, "MB"),
        "embedding.save_mb_per_s": metric(ratio(save_mb, save_s), "MB/s"),
        "embedding.load_s": metric(load_s, "s"),
        "embedding.load_calls": metric(calls("embedding.load"), "count"),
        "embedding.load_mb_per_s": metric(ratio(load_mb, load_s), "MB/s"),
        "embedding.final_loss": metric(
            ratio(counter("embedding.final_loss_sum"), counter("embedding.models_trained")),
            "loss"),
        "lexicon.parse_s": metric(seconds("lexicon.parse"), "s"),
        "lexicon.expand_s": metric(seconds("lexicon.expand"), "s"),
        "projection.build_tensor_s": metric(seconds("projection.build_tensor"), "s"),
        "projection.targets": metric(counter("projection.targets"), "count"),
        "projection.write_tensor_s": metric(seconds("projection.write_tensor"), "s"),
        "projection.tensor_mb": metric(counter("projection.tensor_bytes") / 1e6, "MB"),
        "projection.read_tensor_s": metric(seconds("projection.read_tensor"), "s"),
        "analytics.build_report_s": metric(seconds("analytics.build_report"), "s"),
        "analytics.signal_margin": metric(traced.margin, "scc"),
        "pipeline.write_report_s": metric(seconds("pipeline.write_report"), "s"),
        "charts.emit_s": metric(seconds("charts.emit"), "s"),
        "trace_overhead_ratio": metric(traced.process.wall_s / untraced_wall, "ratio"),
        "error_rate": metric(error_rate, "ratio"),
    })
    return m


def run_context() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in (SRC / "crossmoji").rglob("*.py"))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "commit": commit, "src_lines": src_lines}


def benchmark(workload: str, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    generate, drive = WORKLOADS[workload]
    wl = generate(work / "input", seed)
    time_setup(wl.config)  # untimed: the first import compiles bytecode
    bench = Bench(workload, seed, seconds, work, wl.config)
    trace_path = work / "trace.json" if traced else None
    untraced, traced_op = drive(bench, wl, trace_path)
    if traced and trace_path.exists():
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
    elif traced:  # the traced process died before writing it
        bench.flag(traced_op, "traced run wrote no trace")
        trace = {"totals": {}, "trace": {"counters": {}}}

    failed = sum(1 for op in bench.ops if op.problems)
    result = {"correct": failed == 0, "attempted": len(bench.ops), "failed": failed}
    walls = [op.process.wall_s for op in untraced]
    wall = statistics.median(walls)
    context = run_context()
    print("context " + json.dumps(context))
    print(f"wall_s of each untraced operation (median {wall:.3f}): "
          + " ".join(f"{w:.3f}" for w in walls))
    print(f"setup_s of each probe (median {statistics.median(bench.setup_times):.3f}): "
          + " ".join(f"{s:.3f}" for s in bench.setup_times))
    if not traced:
        values = {
            "wall_s": min(walls),
            "setup_s": min(bench.setup_times),
            "peak_rss_mb": statistics.median(op.process.peak_rss_mb for op in untraced),
            "artifact_mb": statistics.median(op.artifact_mb for op in untraced),
        }
        result["metrics"] = {k: metric(v, END_TO_END[k]) for k, v in values.items()}
        return result
    result["metrics"] = layer_metrics(trace, traced_op, wall, failed / len(bench.ops))
    keep = WORK_ROOT / "traces" / f"{workload}-seed{seed}.json"
    keep.parent.mkdir(parents=True, exist_ok=True)
    keep.write_text(json.dumps({"context": context, "metrics": result["metrics"], **trace},
                               indent=1) + "\n", encoding="utf-8")
    print(f"trace written to {keep.relative_to(ROOT)}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "crossmoji" / "cli.py").is_file():
        print(f"error: no crossmoji sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
