"""Traced run of the crossmoji CLI: spans and counts recorded from outside.

    python3 bench/tracer.py TRACE.json -- all --config run.json --out OUT

Wraps the names `crossmoji.pipeline` imports (and the report helpers it
defines) plus the `Pipeline.stage_*` methods, runs `crossmoji.cli.main`
with the remaining arguments, restores the originals and writes the trace
as JSON.  Every span has an id, a parent id, a start, an end and a self
time (its duration minus the part its direct children cover).  The
program itself is not modified.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path


def path_bytes(path) -> int:
    """Size of the file an artifact call was given.

    Anything but a file there raises, so a changed artifact layout fails the
    traced run instead of reading as 0 bytes."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no artifact file at {path}")
    return path.stat().st_size


class Tracer:
    """In-memory spans and named counters, written out once at the end."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._stack: list[dict] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = {"id": len(self.spans), "parent": parent["id"] if parent else None,
                  "name": name, "start": time.perf_counter(), "end": None, "child_s": 0.0}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent["child_s"] += record["end"] - record["start"]

    def as_dict(self) -> dict:
        spans = []
        for s in self.spans:
            duration = s["end"] - s["start"]
            spans.append({"id": s["id"], "parent": s["parent"], "name": s["name"],
                          "start": s["start"], "end": s["end"],
                          "seconds": duration, "self_s": duration - s["child_s"]})
        return {"spans": spans, "counters": self.counters}

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        out: dict[str, dict] = {}
        for s in self.as_dict()["spans"]:
            t = out.setdefault(s["name"], {"calls": 0, "seconds": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["seconds"] += s["seconds"]
            t["self_s"] += s["self_s"]
        return out


# --- what each wrapped call adds to the counters --------------------------------

def _ingest(tracer, args, result):
    counts = result[1]
    tracer.count("corpus.records_read", counts.read)
    tracer.count("corpus.kept", counts.kept)
    tracer.count("corpus.parse_errors", counts.parse_errors)


def _train(tracer, args, result):
    vocab, params, runs = args["vocab"], args["params"], args["n_runs"]
    tracer.count("embedding.train_tokens", vocab.kept_tokens * params.epochs * runs)
    tracer.count("embedding.models_trained", len(result))
    for model in result:
        tracer.count("embedding.final_loss_sum", model.epoch_losses[-1])


def _saved(tracer, args, result):
    tracer.count("embedding.save_bytes", path_bytes(args["path"]))


def _loaded(tracer, args, result):
    tracer.count("embedding.load_bytes", path_bytes(args["path"]))


def _tensor(tracer, args, result):
    tracer.peak("projection.targets", len(result.targets))


def _tensor_written(tracer, args, result):
    tracer.count("projection.tensor_bytes", path_bytes(args["path"]))


# name in crossmoji.pipeline -> (span name, counter hook)
PIPELINE_CALLS = {
    "load_inventory": ("inventory.load", None),
    "ingest_handle": ("corpus.ingest", _ingest),
    "write_streams": ("corpus.write_streams", None),
    "read_streams": ("corpus.read_streams", None),
    "count_frequencies": ("inventory.count_frequencies", None),
    "build_vocabulary": ("embedding.vocab", None),
    "train_run_set": ("embedding.train", _train),
    "save_model": ("embedding.save", _saved),
    "load_model": ("embedding.load", _loaded),
    "parse_lexicon": ("lexicon.parse", None),
    "expand_patterns": ("lexicon.expand", None),
    "build_tensor": ("projection.build_tensor", _tensor),
    "write_tensor_csv": ("projection.write_tensor", _tensor_written),
    "read_tensor_csv": ("projection.read_tensor", None),
    "build_report": ("analytics.build_report", None),
    "write_report_csvs": ("pipeline.write_report", None),
    "write_report_json": ("pipeline.write_report", None),
    "emit_charts": ("charts.emit", None),
}
STAGES = ("ingest", "train", "project", "analyze", "report")


def _wrap(tracer: Tracer, fn, span_name: str, hook):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(span_name):
            result = fn(*args, **kwargs)
            if inspect.isgenerator(result):
                # a lazy reader does its work while consumed: consume it here
                result = iter(list(result))
        if hook is not None:
            # a changed signature or result raises here and fails the run
            hook(tracer, signature.bind(*args, **kwargs).arguments, result)
        return result

    return wrapper


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap the pipeline's calls into each layer; restore them on exit.

    A name the pipeline no longer has raises AttributeError, so the traced
    run fails instead of reporting that layer as 0."""
    from crossmoji import pipeline

    targets = [(pipeline, name, span_name, hook)
               for name, (span_name, hook) in PIPELINE_CALLS.items()]
    targets += [(pipeline.Pipeline, f"stage_{stage}", f"pipeline.{stage}", None)
                for stage in STAGES]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _, _ in targets]
    for (owner, name, fn), (_, _, span_name, hook) in zip(originals, targets):
        setattr(owner, name, _wrap(tracer, fn, span_name, hook))
    try:
        yield tracer
    finally:
        for owner, name, fn in reversed(originals):
            setattr(owner, name, fn)


def main(argv: list[str]) -> int:
    trace_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py TRACE.json -- CLI-ARGS...")
    from crossmoji import cli

    tracer = Tracer()
    try:
        with instrumented(tracer), tracer.span("cli.main"):
            code = cli.main(cli_args)
    finally:
        payload = {"trace": tracer.as_dict(), "totals": tracer.totals()}
        Path(trace_path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
