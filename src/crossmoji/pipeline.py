"""End-to-end staged pipeline: ingest -> train -> project -> analyze -> report.

Each stage persists its artifacts under the output directory, and its entry
in `manifest.json`, saved after each stage that runs, records its cache key
and the digest of every artifact it declared.  A stage reads all its inputs
before it writes.  An artifact is declared as it is opened and is written to
a temporary file renamed into place (`Pipeline._artifact`), so none is torn
or unlisted; train alone declares its models before it starts, as its
workers write them.  The key covers only what the stage reads
(`STAGE_READS`): its config fields, and the content of its outside files, of
the earlier stages' artifacts and of the package modules whose code it runs.
Re-running `all` skips a stage whose key and artifacts still match, so an
edit, to the config, an input or the code, re-runs the stages that read it
and those whose inputs then change.
Before a stage runs, the artifacts its last entry recorded are deleted, so
a run that writes fewer files leaves none stale; a stage that fails
records what it declared under no key, and one left not complete keeps
its last artifacts, so the next run deletes those too.  Ingest cuts each
input file into line-aligned byte ranges, one per usable CPU, and runs one
job per range, which parses each line once for every corpus reading the
file; train runs one job per (corpus, run).  Jobs run on forked worker
processes when more than one CPU is usable (`fan_out`).  A fixed seed
reproduces stream, embedding and CSV files byte for byte, whatever the
number of workers.

Ingest hands train and project type ids and counts, not text: a stream
file holds a corpus's type table with each type's count, then the type
ids of its posts and their lengths, each array at the narrowest of uint8,
uint16 and int32 that holds it (`fileio.write_streams`).  A stream file
is the one source of its corpus's vocabulary: train builds it from the
counts (`build_vocabulary`) and encodes the ids to int32 once per corpus
(`encode_streams`), and project builds the same vocabulary again, and
counts emoji (`count_frequencies`), from the type table alone.  A model
file holds only its run's matrix, one row per vocabulary token.  The
models are read once, by project, one at a time, each cut to the rows
project reads; it hands analyze all it needs in one binary file
(`write_handoff`): the similarity tensor (its per-run orthonormal cube
and its run-averaged emoji x emoji cosine profiles), the frequency table
and the shared set.  Analyze reads nothing else that an earlier stage
wrote.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
import time
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from functools import partial
from pathlib import Path
from typing import Optional, get_origin, get_type_hints

import numpy as np

from . import __version__
from .analytics import CorrelationReport, build_report
from .charts import emit_charts
from .corpus import (
    CorpusHandle,
    FilterConfig,
    IngestCounts,
    ingest_range,
    line_ranges,
)
from .embedding import (
    TrainParams,
    build_vocabulary,
    encode_streams,
    load_model,
    save_model,
    train_cbow,
)
from .fileio import (
    TypeStreams,
    atomic_write,
    read_arrays,
    read_streams,
    write_arrays,
    write_streams,
)
from .inventory import (
    FrequencyTable,
    SharedEmojiSet,
    codepoint_str,
    count_frequencies,
    default_category_path,
    default_data_path,
    load_inventory,
    primary_language,
    shared_set,
)
from .lexicon import default_ekman_path, expand_patterns, load_ekman, parse_lexicon, shared_schema
from .projection import SimilarityTensor, build_tensor, write_tensor_csv

# nothing here calls ingest_handle, train_run_set or read_tensor_csv: each
# stays imported because bench/tracer.py wraps it by this name and fails on
# a missing one
from .corpus import ingest_handle
from .embedding import train_run_set
from .projection import read_tensor_csv

STAGES = ("ingest", "train", "project", "analyze", "report")
# What each stage reads, and so what its cache key covers: fields of
# `RunConfig.snapshot()` (`corpora.<name>` is that field of every corpus, in
# corpus order), and files, hashed by content: outside inputs, the artifacts
# of earlier stages and the package modules whose code the stage runs
# ("<name>.py").  A module edit re-runs the stages that run it, and those
# whose inputs then change; a file format tag lives in the module that
# writes the format.  Train seeds are offset by the corpus index, so train
# reads the corpus order.  A test profiles each stage and fails on a module
# that runs but is not listed here.
STAGE_READS = {
    "ingest": (("corpora.id", "corpora.lang", "corpora.country", "corpora.pre_tokenized"),
               ("inputs", "emoji_data", "emoji_categories",
                "corpus.py", "fileio.py", "inventory.py", "pipeline.py")),
    "train": (("training", "min_count", "runs", "corpora.id"),
              ("streams/", "embedding.py", "fileio.py", "pipeline.py")),
    "project": (("shared_threshold", "min_count", "corpora.id", "corpora.culture", "corpora.lang"),
                ("lexicons", "ekman_words", "emoji_data", "emoji_categories",
                 "streams/", "models/", "embedding.py", "fileio.py", "inventory.py",
                 "lexicon.py", "pipeline.py", "projection.py")),
    "analyze": (("top_k", "corpora.id", "corpora.culture"),
                ("emoji_data", "emoji_categories", "handoff.bin", "analytics.py",
                 "fileio.py", "inventory.py", "pipeline.py", "projection.py")),
    # report rebuilds the report dataclasses of analytics.py, whose generated
    # methods no profile attributes to that file
    "report": ((), ("report/report.json", "analytics.py", "charts.py", "fileio.py",
                    "pipeline.py")),
}
PACKAGE = Path(__file__).parent  # where the modules named in STAGE_READS are
_module_digests: dict[Path, Optional[str]] = {}  # their digests, for this process


class ConfigError(ValueError):
    """Invalid run configuration."""


def usable_cpus() -> int:
    """The CPUs this process may run on (`taskset` narrows them)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def max_rss() -> dict:
    """`max_rss_mb`: the peak resident set so far of this process (`self`)
    and of the largest worker process that has ended (`workers`), in MB of
    10^6 bytes; nothing where the `resource` module is missing.  `self` is
    `VmHWM` from /proc/self/status where that exists: Linux carries
    `ru_maxrss` over from the process that exec'd this one."""
    try:
        import resource
    except ImportError:  # Windows
        return {}
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in bytes there, KiB elsewhere
    peaks = {who: resource.getrusage(which).ru_maxrss * unit
             for who, which in (("self", resource.RUSAGE_SELF),
                                ("workers", resource.RUSAGE_CHILDREN))}
    try:
        with open("/proc/self/status", "rb") as f:  # bytes: `Name:` may be any
            peaks["self"] = next(int(line.split()[1]) * 1024  # in kB, which are KiB
                                 for line in f if line.startswith(b"VmHWM:"))
    except (OSError, StopIteration):
        pass
    return {"max_rss_mb": {who: round(peak / 1e6, 2) for who, peak in peaks.items()}}


_calls: list = []  # in a worker process: the calls of the fan_out that forked it


def _inherit(calls: list) -> None:
    global _calls
    _calls = calls


def _call(index: int):
    return _calls[index]()


def fan_out(calls: list) -> tuple[list, int]:
    """Run independent zero-argument calls; return their results in call
    order and the number of worker processes used.

    With more than one call and more than one usable CPU, the calls run on
    `min(calls, CPUs)` forked worker processes.  The workers inherit all the
    calls refer to, so only a call's index goes to a worker and only its
    result comes back.  Otherwise, or where `fork` is unavailable, the calls
    run here one after another.  The first call that raises raises its
    exception here, and no call that has not started then starts."""
    workers = min(len(calls), usable_cpus())
    if workers > 1:
        # imported here: a run that fans nothing out does not pay for them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers <= 1:
        return [call() for call in calls], 1
    # a fork-context pool forks every worker before it starts its own thread,
    # and fork passes `initargs` on without pickling them
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_inherit, initargs=(calls,)) as pool:
        return list(pool.map(_call, range(len(calls)))), workers


class PipelineStageError(RuntimeError):
    """A stage failed; carries the stage name and the original cause."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


# a config file names each dataclass field by the field's name, but for these
JSON_NAMES = {"corpus_id": "id", "input_path": "input", "lexicon_path": "lexicon"}


@dataclass
class RunConfig:
    corpora: list[CorpusHandle]
    out_dir: Path
    training: TrainParams
    min_count: int = 5
    runs: int = 5
    shared_threshold: int = 1000
    top_k: int = 15
    emoji_data: Path = field(default_factory=lambda: Path(str(default_data_path())))
    emoji_categories: Path = field(default_factory=lambda: Path(str(default_category_path())))
    ekman_words: Path = field(default_factory=lambda: Path(str(default_ekman_path())))

    def __post_init__(self):
        if not self.corpora:
            raise ConfigError("config needs at least one corpus")
        ids = [c.corpus_id for c in self.corpora]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate corpus ids: {ids}")
        for c in self.corpora:
            # ids name files under the output directory: streams/<id>.bin
            if c.corpus_id in ("", ".", "..") or any(ch in c.corpus_id for ch in "/\\\0"):
                raise ConfigError(f"corpus id {c.corpus_id!r} must be a plain file name")
            if c.culture not in ("West", "East"):
                raise ConfigError(f"corpus {c.corpus_id}: culture must be West or East")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.top_k < 1:
            raise ConfigError("top_k must be >= 1")
        if self.min_count < 1:
            raise ConfigError("training.min_count must be >= 1")
        if self.shared_threshold < 0:
            raise ConfigError("shared_threshold must be >= 0")

    @property
    def culture_of(self) -> dict[str, str]:
        return {c.corpus_id: c.culture for c in self.corpora}

    def snapshot(self) -> dict:
        """The config as the manifest records it and the stage keys read
        it: every field but `out_dir`, under its JSON key, paths as strings
        relative to `out_dir`."""
        snapshot = asdict(self, dict_factory=lambda items: {
            JSON_NAMES.get(k, k): self.relative(v) if isinstance(v, Path) else v
            for k, v in items})
        del snapshot["out_dir"]
        return snapshot

    def relative(self, path) -> str:
        """`path` as the manifest records it: relative to `out_dir`, so the
        record does not change with where the run's directories are."""
        return os.path.relpath(Path(path).resolve(), Path(self.out_dir).resolve())


def _keys(cls) -> dict:
    """JSON key -> (dataclass, field, type, required) of each field of
    `cls`; a field without a default is required."""
    hints = get_type_hints(cls)
    return {JSON_NAMES.get(f.name, f.name):
            (cls, f.name, hints[f.name], f.default is MISSING is f.default_factory)
            for f in fields(cls)}


# the keys of each JSON object of a config file: the top level, "training"
# and each "corpora" entry.  Two keys sit apart from their field: the
# top-level `seed` sets `TrainParams.seed`, `training.min_count` sets
# `RunConfig.min_count`.
SCHEMA = {"config": _keys(RunConfig), "training": _keys(TrainParams),
          "corpora": _keys(CorpusHandle)}
SCHEMA["config"]["seed"] = SCHEMA["training"].pop("seed")
SCHEMA["training"]["min_count"] = SCHEMA["config"].pop("min_count")
_JSON_TYPES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a JSON string", dict: "a JSON object", list: "a JSON list"}


def _check(label: str, value, kind) -> None:
    """ConfigError unless `value` has the JSON type a field of type `kind`
    takes; nothing is coerced, but a float field takes an integer too."""
    json_type = dict if is_dataclass(kind) else str if kind is Path else get_origin(kind) or kind
    if (json_type is bool) != isinstance(value, bool) or not isinstance(
            value, (int, float) if json_type is float else json_type):
        raise ConfigError(f"{label} must be {_JSON_TYPES[json_type]}, "
                          f"got {json.dumps(value, ensure_ascii=False)}")


def _read(name: str, raw, base: Path, values: dict) -> dict:
    """Check `raw`, the config object `name` (a `SCHEMA` key, or
    `corpora[i]`), and set `values[dataclass][field]` from each of its keys,
    a path resolved against `base`; return `values`."""
    _check(name, raw, dict)
    keys = SCHEMA[name.partition("[")[0]]
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ConfigError(f"unknown {name} key(s) {', '.join(map(repr, unknown))}; "
                          f"allowed: {', '.join(sorted(keys))}")
    for key, (owner, field_name, kind, required) in keys.items():
        label = key if name == "config" else f"{name}.{key}"
        if key in raw:
            _check(label, raw[key], kind)
            values[owner][field_name] = base / raw[key] if kind is Path else raw[key]
        elif required and field_name not in values[owner]:
            raise ConfigError(f"{label} is missing")
    return values


def load_config(path, out_dir: Optional[str] = None,
                deterministic: bool = False) -> RunConfig:
    """Read a JSON config file; a fault in it raises `ConfigError`.

    Its top level, `training` and each `corpora` entry take only the keys
    of `SCHEMA`, each of its field's JSON type, nothing coerced.  An absent
    key takes the field's default (`out_dir`: "out"), but a corpus entry
    needs all keys but `pre_tokenized`.  Paths are strings, relative ones
    resolved against the config's directory; `out_dir`, when given,
    overrides the config's.  `deterministic` is ignored: training is always
    seeded."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read the config: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also an over-long integer, too deep nesting
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    base = path.parent
    values = {RunConfig: {"corpora": [], "out_dir": base / "out", "training": {}}, TrainParams: {}}
    run = _read("config", raw, base, values)[RunConfig]
    _read("training", run["training"], base, values)
    corpora = [CorpusHandle(**_read(f"corpora[{i}]", c, base, {CorpusHandle: {}})[CorpusHandle])
               for i, c in enumerate(run["corpora"])]
    try:
        params = TrainParams(**values[TrainParams])
    except ValueError as exc:
        raise ConfigError(f"bad training config: {exc}") from exc
    if out_dir:
        run["out_dir"] = Path(out_dir)
    return RunConfig(**run | {"corpora": corpora, "training": params})


@dataclass
class RunManifest:
    config: dict
    version: str = __version__
    stages: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def record(self, stage: str, key: str, seconds: float, skipped: bool = False,
               **extra) -> None:
        self.stages[stage] = {"completed": True, "skipped": skipped, "key": key,
                              "seconds": round(seconds, 3), **extra}

    def save(self, path) -> None:
        with atomic_write(path, encoding="utf-8") as f:
            json.dump(self.__dict__, f, ensure_ascii=False, indent=2, default=str)
            f.write("\n")


class Pipeline:
    """Executes stages against one output directory; it may be run again,
    and each `run` reads the config, the last record and every file anew."""

    def __init__(self, config: RunConfig):
        self.config = config
        self._begin()

    def _begin(self) -> None:
        """Build all a run reads from the config and the output directory as
        they are now.  In the new manifest, a stage the run has not recorded
        is not complete and keeps its last entry's key and artifacts, for the
        next run's `_holds` and `_clear`."""
        self.out = Path(self.config.out_dir)
        self._recorded = self._read_record()
        self.manifest = RunManifest(self.config.snapshot(), stages={name: {
            "completed": False, "skipped": True, "key": self._recorded.get(name, {}).get("key"),
            "artifacts": self._recorded.get(name, {}).get("artifacts", {})} for name in STAGES})
        self._digests: dict[Path, Optional[str]] = {}
        self._inventory = None
        self._artifacts: list[Path] = []  # declared by the running stage

    # --- shared resources ---

    @property
    def inventory(self):
        if self._inventory is None:
            self._inventory = load_inventory(self.config.emoji_data,
                                             self.config.emoji_categories)
        return self._inventory

    def streams_path(self, corpus_id: str) -> Path:
        return self.out / "streams" / f"{corpus_id}.bin"

    def model_path(self, corpus_id: str, run: int) -> Path:
        return self.out / "models" / f"{corpus_id}.run{run}.vec"

    # --- cache keys ---

    def _digest(self, path: Path) -> Optional[str]:
        """sha256 of a file's content, None if it cannot be read (the stage
        that reads it then runs and reports why); each file is hashed once
        per run, or again after a stage rewrites it; a package module once
        per process, as code already imported cannot change under it."""
        digests = _module_digests if path.parent == PACKAGE else self._digests
        if path not in digests:
            try:
                with open(path, "rb") as f:
                    digests[path] = hashlib.file_digest(f, "sha256").hexdigest()
            except OSError:
                digests[path] = None
        return digests[path]

    def _declare(self, paths: list[Path]) -> None:
        """Record artifacts the running stage is about to write, and make their
        directories; its entry lists them, even if it fails, for `_clear`."""
        for path in paths:
            if path not in self._artifacts:
                self._artifacts.append(path)
                path.parent.mkdir(parents=True, exist_ok=True)

    def _artifact(self, path: Path, mode: str = "w", **open_kwargs):
        """Declare an artifact of the running stage and open it with
        `atomic_write`, so it appears whole when the block ends, or not at all."""
        self._declare([path])
        return atomic_write(path, mode, **open_kwargs)

    def _opener(self, directory: str):
        """name -> `_artifact` of the text file `directory/name`."""
        return lambda name: self._artifact(self.out / directory / name,
                                           newline="", encoding="utf-8")

    def _files(self) -> dict[str, list[Path]]:
        """The files of each name `STAGE_READS` uses; "<name>.py" is the
        module of that name in this package."""
        c = self.config
        modules = {name: [PACKAGE / name] for _, names in STAGE_READS.values()
                   for name in names if name.endswith(".py")}
        return modules | {
            "inputs": [s.input_path for s in c.corpora],
            "lexicons": [s.lexicon_path for s in c.corpora],
            "emoji_data": [c.emoji_data],
            "emoji_categories": [c.emoji_categories],
            "ekman_words": [c.ekman_words],
            "streams/": [self.streams_path(s.corpus_id) for s in c.corpora],
            "models/": [self.model_path(s.corpus_id, r)
                        for s in c.corpora for r in range(c.runs)],
            "handoff.bin": [self.out / "handoff.bin"],
            "report/report.json": [self.out / "report" / "report.json"],
        }

    def _key(self, stage: str) -> str:
        field_names, file_names = STAGE_READS[stage]
        config = self.manifest.config
        files = self._files()

        def value(name: str):
            key, _, corpus_field = name.partition(".")
            return [c[corpus_field] for c in config[key]] if corpus_field else config[key]

        parts = [stage, {n: value(n) for n in field_names},
                 {n: [self._digest(p) for p in files[n]] for n in file_names}]
        blob = json.dumps(parts, sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _read_record(self) -> dict:
        """stage -> its entry in the output directory's `manifest.json`, for
        each entry that is an object recording its artifacts; {} without a
        readable one, or one whose `stages` is not an object."""
        try:
            record = json.loads((self.out / "manifest.json").read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError):
            return {}
        stages = record.get("stages") if isinstance(record, dict) else None
        if not isinstance(stages, dict):
            return {}
        return {name: entry for name, entry in stages.items()
                if isinstance(entry, dict)
                and isinstance(entry.get("artifacts"), dict)}  # none up to 0.4.x

    def _holds(self, stage: str, key: str) -> bool:
        """The stage's last entry holds `key`, and every artifact it lists is
        still there with the digest it was written with."""
        entry = self._recorded.get(stage, {})
        return entry.get("key") == key and all(
            self._digest(self.out / rel) == digest for rel, digest in entry["artifacts"].items())

    def _written(self) -> dict:
        """rel path -> sha256 (None: not written) of each declared artifact."""
        for path in self._artifacts:
            self._digests.pop(path, None)  # the stage wrote it since it was hashed
        return {p.relative_to(self.out).as_posix(): self._digest(p) for p in self._artifacts}

    def _clear(self, stage: str) -> None:
        """Delete the artifacts the stage's last entry records, so that a run
        writing fewer files leaves none of the last run's behind."""
        for rel in self._recorded.get(stage, {}).get("artifacts", {}):
            if Path(rel).is_absolute() or ".." in Path(rel).parts:
                continue  # not a file a stage writes
            (self.out / rel).unlink(missing_ok=True)
            self._digests.pop(self.out / rel, None)

    # --- stages ---

    def stage_ingest(self) -> dict:
        inventory = self.inventory  # loaded here, so that workers inherit it
        # recorded here alone: ingest's key covers the emoji data, and a
        # skipped ingest restores them from its entry
        self.manifest.warnings.extend(inventory.warnings)
        groups: dict[Path, list[CorpusHandle]] = {}  # the corpora reading each file
        for spec in self.config.corpora:
            groups.setdefault(Path(spec.input_path).resolve(), []).append(spec)
        # an unreadable input fails the stage here, before any job runs
        shards = [(path, start, end) for path in groups
                  for start, end in line_ranges(path, usable_cpus())]

        def ingest(path: Path, start: int, end: int) -> tuple:
            began = time.perf_counter()
            filters = [(FilterConfig(lang=spec.lang, country=spec.country), spec.pre_tokenized)
                       for spec in groups[path]]
            parts = ingest_range(path, start, end, filters, inventory)
            return parts, time.perf_counter() - began

        results, workers = fan_out([partial(ingest, *shard) for shard in shards])
        parts = {}
        shard_rows = []
        for (path, start, end), (shard_parts, seconds) in zip(shards, results):
            shard_rows.append({"file": self.config.relative(path), "start": start, "end": end,
                               "lines": shard_parts[0][1].lines, "seconds": round(seconds, 3),
                               "distinct_chunks": shard_parts[0][1].distinct_chunks})
            for spec, part in zip(groups[path], shard_parts):
                parts.setdefault(spec.corpus_id, []).append(part)
        counts_by_corpus, throughput = {}, {}
        for spec in self.config.corpora:
            with self._artifact(self.streams_path(spec.corpus_id), "wb") as f:
                write_streams(f, TypeStreams.join(types for types, _ in parts[spec.corpus_id]))
            counts = sum((c for _, c in parts[spec.corpus_id]), IngestCounts())
            counts_by_corpus[spec.corpus_id] = counts.as_dict()
            throughput[spec.corpus_id] = {
                "seconds": round(counts.seconds, 3), "records": counts.read,
                "posts_per_s": round(counts.read / max(counts.seconds, 1e-9))}
        with self._artifact(self.out / "counts.json", encoding="utf-8") as f:
            json.dump(counts_by_corpus, f, ensure_ascii=False, indent=2)
            f.write("\n")
        return {"counts": counts_by_corpus, "throughput": throughput, "workers": workers,
                "shards": shard_rows}

    def _read_corpora(self) -> tuple[dict, dict]:
        """Each corpus's stream file, read once, and the vocabulary built
        from its counts, both by corpus id."""
        streams = {spec.corpus_id: read_streams(self.streams_path(spec.corpus_id))
                   for spec in self.config.corpora}
        vocabs = {corpus_id: build_vocabulary(types, self.config.min_count)
                  for corpus_id, types in streams.items()}
        return streams, vocabs

    def stage_train(self) -> dict:
        c = self.config
        streams, vocabs = self._read_corpora()
        # encoded once, here, for the workers to inherit; the streams go first
        encoded = {corpus_id: encode_streams(types, vocabs[corpus_id])
                   for corpus_id, types in streams.items()}
        del streams

        def train(corpus_id: str, seed: int, path: Path) -> tuple:
            model = train_cbow(encoded[corpus_id], vocabs[corpus_id],
                               replace(c.training, seed=seed))
            save_model(model, path)
            return (model.epoch_losses, model.untrained_losses[-1], model.train_seconds,
                    path.stat().st_size)

        # every (corpus, run) pair gets its own seed; same-sized vocabularies
        # must not share initializations across corpora
        jobs = [(spec.corpus_id, r, c.training.seed + k * c.runs + r)
                for k, spec in enumerate(c.corpora) for r in range(c.runs)]
        self._declare(self._files()["models/"])
        results, workers = fan_out([partial(train, corpus_id, seed,
                                            self.model_path(corpus_id, r))
                                    for corpus_id, r, seed in jobs])
        info = {}
        for (corpus_id, r, _), (losses, untrained, seconds, size) in zip(jobs, results):
            vocab = vocabs[corpus_id]
            entry = info.setdefault(corpus_id, {
                "vocabulary": len(vocab), "corpus_tokens": vocab.corpus_tokens,
                "epoch_losses": [], "runs": []})
            entry["epoch_losses"].append(list(losses))
            # within 1% of the untrained loss either way: it did not learn
            stuck = abs(losses[-1] - untrained) <= 0.01 * untrained
            verdict = ("did not leave its initial loss" if stuck
                       else "diverged" if losses[-1] > untrained else None)
            if verdict:
                self.manifest.warnings.append(
                    f"run {verdict}: corpus {corpus_id} run {r}, "
                    f"last epoch loss {losses[-1]:.4f}, untrained loss {untrained:.4f}")
            # the tokens one run trains on: in-vocabulary tokens times epochs
            run_tokens = vocab.kept_tokens * c.training.epochs
            entry["runs"].append({"seconds": round(seconds, 3),
                                  "tokens_per_s": round(run_tokens / max(seconds, 1e-9)),
                                  "bytes": size, "untrained_loss": untrained})
        return {"training": info, "workers": workers}

    def stage_project(self) -> dict:
        # from one read of each stream file: the vocabulary train built, and
        # the emoji counts; the streams go before any model loads
        streams, vocabs = self._read_corpora()
        table = count_frequencies(streams, self.inventory)
        del streams
        shared = shared_set(table, self.config.shared_threshold)
        if len(shared) == 0:
            self.manifest.warnings.append(
                f"no emoji passes the shared-set threshold {self.config.shared_threshold}")

        lexicons = [parse_lexicon(spec.lexicon_path) for spec in self.config.corpora]
        schema = shared_schema(lexicons)
        ekman = load_ekman(self.config.ekman_words)
        # one model at a time, each cut to the rows project reads: its
        # corpus's category tokens and Ekman words, and the shared emoji; the
        # full matrix goes before the next one loads
        models, expansions, ekman_axes = {}, {}, {}
        for spec, lexicon in zip(self.config.corpora, lexicons):
            lang = primary_language(spec.lang)
            if lang in ekman:
                ekman_axes[spec.corpus_id] = ekman[lang]
            else:
                self.manifest.warnings.append(
                    f"no Ekman word list for language {lang!r} (corpus {spec.corpus_id})")
            vocab = vocabs[spec.corpus_id]
            exp = expand_patterns(lexicon, vocab.tokens)
            expansions[spec.corpus_id] = {cat: sorted(exp[cat]) for cat in schema}
            keep = set(shared.emoji).union(
                *expansions[spec.corpus_id].values(),
                (word for _, word in ekman_axes.get(spec.corpus_id, ())))
            models[spec.corpus_id] = [
                load_model(self.model_path(spec.corpus_id, r), vocab).restrict(keep)
                for r in range(self.config.runs)]

        info = {"schema": list(schema), "shared_emoji": len(shared),
                "rows": {corpus_id: len(cut[0].vocab) for corpus_id, cut in models.items()}}
        tensor = None
        if len(shared) > 0:
            tensor = build_tensor(models, expansions, schema, shared.emoji,
                                  self.config.culture_of, ekman_axes=ekman_axes)
            path = self.out / "tensors" / "similarity_orthonormal.csv"
            self._declare([path])
            write_tensor_csv(tensor, path)
            info["axes"] = list(tensor.axes)
            info["targets"] = len(tensor.targets)
            if tensor.dropped_categories:
                self.manifest.warnings.append("dropped categories: " + ", ".join(
                    f"{c} ({why})" for c, why in tensor.dropped_categories.items()))
            if tensor.excluded_targets:
                self.manifest.warnings.append(
                    f"{len(tensor.excluded_targets)} shared emoji missing from some "
                    f"corpus vocabulary, excluded from projections")
            if tensor.excluded_axes:
                self.manifest.warnings.append(
                    "Ekman axes excluded (word missing in some corpus): "
                    + ", ".join(tensor.excluded_axes))
        with self._artifact(self.out / "handoff.bin", "wb") as f:
            write_handoff(f, tensor, table, shared)
        return info

    def stage_analyze(self) -> dict:
        tensor, table, shared = read_handoff(
            self.out / "handoff.bin", self.inventory, self.config.culture_of)
        report = build_report(tensor, table, self.inventory, shared,
                              self.config.culture_of, top_k=self.config.top_k)
        self.manifest.warnings.extend(report.warnings)
        open_report = self._opener("report")
        write_report_csvs(report, table, open_report)
        with open_report("report.json") as f:
            write_report_json(report, f)
        return {}

    def stage_report(self) -> dict:
        report = read_report_json(self.out / "report" / "report.json")
        charts = emit_charts(report, self._opener("charts"))
        for name, filename in charts.items():
            if filename is None:
                self.manifest.warnings.append(f"chart {name} omitted: empty report section")
        return {"charts": charts}

    # --- driver ---

    def _restore(self, stage: str, key: str) -> None:
        """Record a complete stage this call does not run as its last entry
        recorded it, with its warnings, and with no `max_rss_mb`."""
        entry = {k: v for k, v in self._recorded[stage].items()
                 if k not in ("completed", "skipped", "key", "seconds", "max_rss_mb")}
        self.manifest.record(stage, key, 0.0, skipped=True, **entry)
        self.manifest.warnings.extend(entry.get("warnings", []))

    def run(self, stage: str = "all") -> RunManifest:
        """Run `stage`, or with "all" every stage whose last entry does not
        hold its key, saving the manifest after each.  It records every stage:
        one this call did not run comes from its last entry when that holds
        and the stages before it are complete, and is not complete otherwise."""
        self._begin()
        if stage not in list(STAGES) + ["all"]:
            raise ConfigError(f"unknown stage {stage!r}; choose from {', '.join(STAGES)} or all")
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output directory {self.out} not writable: {exc}") from exc
        complete = True  # every stage before this one is
        try:
            for index, name in enumerate(STAGES):
                key = self._key(name)
                if stage != name and (stage != "all" or self._holds(name, key)):
                    # in `all`, the stages before this one completed in this loop
                    complete = complete and (stage == "all" or self._holds(name, key))
                    if complete:
                        self._restore(name, key)
                    continue
                if not complete:
                    raise PipelineStageError(STAGES[index - 1], RuntimeError(
                        f"artifacts missing or stale; run the {STAGES[index - 1]!r} stage first"))
                start = time.perf_counter()
                warnings_before = len(self.manifest.warnings)
                self._artifacts = []
                try:
                    self._clear(name)
                    extra = getattr(self, f"stage_{name}")() or {}
                except BaseException as exc:
                    # under no key: the next run of the stage deletes the
                    # files its last entry listed and those this run declared
                    entry = self.manifest.stages[name]
                    entry |= {"skipped": False, "key": None,
                              "artifacts": entry["artifacts"] | self._written()}
                    if not isinstance(exc, Exception):
                        raise  # an interrupt
                    raise PipelineStageError(name, exc) from exc
                written = self._written()
                self.manifest.record(name, key, time.perf_counter() - start, **extra,
                                     **max_rss(), artifacts=written,
                                     bytes=sum((self.out / rel).stat().st_size
                                               for rel, digest in written.items() if digest),
                                     warnings=self.manifest.warnings[warnings_before:])
                self.manifest.save(self.out / "manifest.json")
        finally:
            self.manifest.save(self.out / "manifest.json")
        return self.manifest


# --- project -> analyze hand-off ----------------------------------------------

HANDOFF_FORMAT = "crossmoji-handoff 2"


def write_handoff(f, tensor: Optional[SimilarityTensor], table: FrequencyTable,
                  shared: SharedEmojiSet) -> None:
    """Write what analyze reads into the binary file `f`, in the
    `write_arrays` layout.  The JSON line holds the corpora, the tensor's
    axes and targets (null when no emoji is shared, so there is no
    tensor), the shared set and each corpus's emoji counts.  Two arrays
    follow, both empty without a tensor: its (corpora, runs, axes,
    targets) orthonormal cube and its (corpora, target pairs) cosine
    profiles."""
    corpora = list(table.corpora)
    meta = {
        "format": HANDOFF_FORMAT,
        "corpora": corpora,
        "axes": None if tensor is None else list(tensor.axes),
        "targets": None if tensor is None else list(tensor.targets),
        "shared": list(shared.emoji),
        "shared_threshold": shared.threshold,
        "counts": {corpus: dict(counts) for corpus, counts in table.counts.items()},
    }
    if tensor is None:
        arrays = [np.empty((len(corpora), 0, 0, 0)), np.empty((len(corpora), 0))]
    else:
        arrays = [np.stack([tensor.per_run[c] for c in corpora]),
                  np.stack([tensor.profiles[c] for c in corpora])]
    write_arrays(f, meta, arrays)


def read_handoff(path, inventory, culture_of) -> tuple:
    """Read what `write_handoff` wrote: (tensor or None, frequency table,
    shared set), every value exactly as project computed it.  The tensor's
    excluded targets are the shared emoji that are not its targets."""
    meta, (cube, profiles) = read_arrays(path, HANDOFF_FORMAT, (np.float64, np.float64))
    shared = SharedEmojiSet(tuple(meta["shared"]), meta["shared_threshold"])
    tensor = None
    if meta["axes"] is not None:
        corpora, targets = tuple(meta["corpora"]), tuple(meta["targets"])
        tensor = SimilarityTensor(
            axes=tuple(meta["axes"]), targets=targets, corpora=corpora,
            culture_of=dict(culture_of), per_run=dict(zip(corpora, cube)),
            excluded_targets=tuple(e for e in shared.emoji if e not in targets),
            profiles=dict(zip(corpora, profiles)))
    table = FrequencyTable(inventory, {c: Counter(n) for c, n in meta["counts"].items()})
    return tensor, table, shared


# --- report serialization ----------------------------------------------------

def write_report_csvs(report: CorrelationReport, frequencies: FrequencyTable, open_file) -> None:
    """Write the report's non-empty sections, then `frequencies`, as CSV
    files, each into `open_file(name)`: a context manager giving a text file
    with `newline=""`."""
    inventory = frequencies.inventory

    def table(name: str, header: list, rows) -> None:
        with open_file(name) as f:
            w = csv.writer(f)
            w.writerow(header)
            w.writerows(rows)

    def top5_cell(culture: str, axis: str) -> str:
        entries = report.top5.get((culture, axis), [])
        return " ".join(e for e, _ in entries)

    if report.category_rho:
        table("category_scc.csv", ["category", "rho", "top5_west", "top5_east"],
              ([axis, repr(report.category_rho[axis]),
                top5_cell("West", axis), top5_cell("East", axis)]
               for axis in report.category_rho))
    if report.icon is not None:
        scc = report.icon.scc
        table("icon_scc.csv", ["emoji", "scc", "unicode_category"],
              ([emoji, repr(scc[emoji]), inventory.category(emoji)]
               for emoji in sorted(scc, key=lambda e: (-scc[e], e))))
    if report.country is not None:
        country = report.country
        table("country_matrix.csv", ["corpus"] + list(country.corpora),
              ([corpus] + [repr(float(v)) for v in country.matrix[i]]
               for i, corpus in enumerate(country.corpora)))
    if report.triples:
        table("triples.csv", ["item", "in_west", "in_east", "cross"],
              ([item] + ["" if v is None else repr(v) for v in values]
               for item, values in report.triples.items()))
    freq = report.frequency
    if freq is not None:
        table("frequency_summary.csv", ["culture", "rank", "emoji", "count", "share"],
              ([culture, rank, emoji, count, repr(share)]
               for culture in sorted(freq.top_by_culture)
               for rank, (emoji, count, share) in enumerate(freq.top_by_culture[culture], 1)))
        overall = [] if freq.overall_scc is None else [["__overall__", repr(freq.overall_scc)]]
        table("frequency_category_scc.csv", ["unicode_category", "scc"],
              overall + [[cat, repr(val)] for cat, val in freq.category_scc.items()])
    table("frequency.csv", ["corpus", "emoji", "codepoints", "count", "normalized_freq",
                            "category"],
          ([corpus_id, emoji, codepoint_str(emoji), n, repr(n / total), inventory.category(emoji)]
           for corpus_id, counts in frequencies.counts.items()
           for total in [frequencies.total(corpus_id)]
           for emoji, n in frequencies.top(corpus_id, len(counts))))


def write_report_json(report: CorrelationReport, f) -> None:
    """Write the report as JSON into `f`: the dataclass fields in order, `top5`
    keyed "culture|axis", the country matrix as nested lists, and no
    frequency warnings (the report's own `warnings` include them)."""
    payload = asdict(report)
    payload["top5"] = {f"{culture}|{axis}": entries
                       for (culture, axis), entries in report.top5.items()}
    if report.country is not None:
        payload["country"]["matrix"] = report.country.matrix.tolist()
    if report.frequency is not None:
        del payload["frequency"]["warnings"]
    json.dump(payload, f, ensure_ascii=False, indent=2)
    f.write("\n")


def read_report_json(path) -> CorrelationReport:
    """Read what `write_report_json` wrote; sequences come back as lists."""
    from .analytics import CountryMatrix, FrequencyReport, IconReport

    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    data["top5"] = {tuple(key.split("|", 1)): entries for key, entries in data["top5"].items()}
    if data["icon"] is not None:
        data["icon"] = IconReport(**data["icon"])
    if data["country"] is not None:
        data["country"]["matrix"] = np.array(data["country"]["matrix"])
        data["country"] = CountryMatrix(**data["country"])
    if data["frequency"] is not None:
        data["frequency"] = FrequencyReport(**data["frequency"])
    return CorrelationReport(**data)
