"""End-to-end staged pipeline: ingest -> train -> project -> analyze -> report.

Each stage persists its artifacts under the output directory and records a
completion marker with its cache key and the digest of every artifact it
declared.  An artifact is declared before it is written and is written to
a temporary file renamed into place (`Pipeline._artifact`), so none is
torn or unlisted.  The key covers only what the stage reads (`STAGE_READS`):
its config fields, and the content of its outside files and of the earlier
stages' artifacts.  Re-running `all` skips a stage whose key and artifacts
still match, so an edit re-runs the stages that read it and those whose
inputs then change.  Before a stage runs, the artifacts its last run
recorded are deleted, so a run that writes fewer files leaves none stale;
a stage that fails records what it declared under no key, so the next run
deletes that too.  Ingest cuts each input file into line-aligned byte
ranges, one per usable CPU, and runs one job per range, which parses each
line once for every corpus reading the file; train runs one job per
(corpus, run).  Jobs run on forked worker processes when more than one CPU
is usable (`fan_out`).  A fixed seed reproduces stream, embedding and CSV
files byte for byte, whatever the number of workers.

Ingest hands train and project type ids and counts, not text: a stream
file holds a corpus's type table with each type's count, then the type
ids of its posts and their lengths (`save_streams`).  Train builds the
vocabulary from the counts and encodes the ids once per corpus; project
counts emoji from the type table alone.  The models are read once, by
project, which hands analyze all it needs in one binary file
(`write_handoff`): the per-run orthonormal similarity cube, the
run-averaged emoji x emoji cosine profiles, the frequency table and the
shared set.  Analyze reads nothing else that an earlier stage wrote.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from functools import partial
from pathlib import Path
from typing import Optional, get_origin, get_type_hints

import numpy as np

from . import __version__
from .analytics import CorrelationReport, EmojiProfiles, build_report, emoji_profiles
from .charts import emit_charts
from .corpus import (
    STREAM_FORMAT,
    CorpusHandle,
    FilterConfig,
    IngestCounts,
    TypeStreams,
    ingest_range,
    line_ranges,
    load_streams,
    save_streams,
)
from .embedding import (
    MODEL_FORMAT,
    TrainParams,
    encode_types,
    load_model,
    save_model,
    train_cbow,
    vocabulary_of,
)
from .fileio import atomic_write, read_arrays, write_arrays
from .inventory import (
    FrequencyTable,
    SharedEmojiSet,
    default_category_path,
    default_data_path,
    load_inventory,
    shared_set,
)
from .lexicon import default_ekman_path, expand_patterns, load_ekman, parse_lexicon, shared_schema
from .projection import SimilarityTensor, build_tensor, write_tensor_csv

# nothing here calls ingest_handle, write_streams, read_streams,
# build_vocabulary, train_run_set, count_frequencies or read_tensor_csv: each
# stays imported because bench/tracer.py wraps it by this name and fails on
# a missing one
from .corpus import ingest_handle, read_streams, write_streams
from .embedding import build_vocabulary, train_run_set
from .inventory import count_frequencies
from .projection import read_tensor_csv

STAGES = ("ingest", "train", "project", "analyze", "report")
# What each stage reads, and so what its cache key covers: fields of
# `RunConfig.snapshot()` plus the stream and model formats (`corpora.<name>`
# is that field of every corpus, in corpus order), and files, hashed by content:
# outside inputs and the artifacts of earlier stages.  Train seeds are
# offset by the corpus index, so train reads the corpus order.
STAGE_READS = {
    "ingest": (("corpora.id", "corpora.lang", "corpora.country", "corpora.pre_tokenized",
                "stream_format"),
               ("inputs", "emoji_data", "emoji_categories")),
    "train": (("training", "min_count", "runs", "corpora.id", "model_format"),
              ("streams/",)),
    "project": (("shared_threshold", "corpora.id", "corpora.culture", "corpora.lang"),
                ("lexicons", "ekman_words", "emoji_data", "emoji_categories",
                 "streams/", "models/")),
    "analyze": (("top_k", "corpora.id", "corpora.culture"),
                ("emoji_data", "emoji_categories", "handoff.bin")),
    "report": ((), ("report/report.json",)),
}


class ConfigError(ValueError):
    """Invalid run configuration."""


def usable_cpus() -> int:
    """The CPUs this process may run on (`taskset` narrows them)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    run here one after another.  A call that raises raises its exception
    here."""
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
        futures = [pool.submit(_call, i) for i in range(len(calls))]
        try:
            return [f.result() for f in futures], workers
        finally:
            for f in futures:  # after a failure, start no further call
                f.cancel()


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

    @property
    def culture_of(self) -> dict[str, str]:
        return {c.corpus_id: c.culture for c in self.corpora}

    def cultures_present(self) -> set[str]:
        return set(self.culture_of.values())

    def snapshot(self) -> dict:
        """The config as the manifest records it and the stage keys read
        it: every field but `out_dir`, under its JSON key, paths as strings."""
        snapshot = asdict(self, dict_factory=lambda items: {
            JSON_NAMES.get(k, k): str(v) if isinstance(v, Path) else v for k, v in items})
        del snapshot["out_dir"]
        return snapshot


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
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (IsADirectoryError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read the config: {exc}") from exc
    except json.JSONDecodeError as exc:
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
    charts: dict = field(default_factory=dict)

    def record(self, stage: str, key: str, seconds: float, skipped: bool = False,
               **extra) -> None:
        self.stages[stage] = {"completed": True, "skipped": skipped, "key": key,
                              "seconds": round(seconds, 3), **extra}

    def save(self, path) -> None:
        with atomic_write(path, encoding="utf-8") as f:
            json.dump(self.__dict__, f, ensure_ascii=False, indent=2, default=str)
            f.write("\n")


class Pipeline:
    """Executes stages against one output directory."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.out = Path(config.out_dir)
        self.manifest = RunManifest(config=config.snapshot())
        self._inventory = None
        self._digests: dict[Path, Optional[str]] = {}
        self._artifacts: list[Path] = []  # declared by the running stage

    # --- shared resources ---

    @property
    def inventory(self):
        if self._inventory is None:
            self._inventory = load_inventory(self.config.emoji_data,
                                             self.config.emoji_categories)
            self.manifest.warnings.extend(self._inventory.warnings)
        return self._inventory

    def streams_path(self, corpus_id: str) -> Path:
        return self.out / "streams" / f"{corpus_id}.bin"

    def model_path(self, corpus_id: str, run: int) -> Path:
        return self.out / "models" / f"{corpus_id}.run{run}.vec"

    def _marker(self, stage: str) -> Path:
        return self.out / f".stage_{stage}.json"

    # --- cache keys ---

    def _digest(self, path: Path) -> Optional[str]:
        """sha256 of a file's content, None if it cannot be read (the stage
        that reads it then runs and reports why); each file is hashed once
        per pipeline, or again after a stage rewrites it."""
        if path not in self._digests:
            try:
                with open(path, "rb") as f:
                    self._digests[path] = hashlib.file_digest(f, "sha256").hexdigest()
            except OSError:
                self._digests[path] = None
        return self._digests[path]

    def _declare(self, paths: list[Path]) -> None:
        """Record artifacts the running stage is about to write, and make their
        directories; its marker lists them, even if it fails, for `_clear`."""
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
        """The files of each name `STAGE_READS` uses."""
        c = self.config
        return {
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
        # the manifest's config; a new stream or model format must re-run
        # the stage that writes it, not fail to read the old files
        config = self.manifest.config | {"stream_format": STREAM_FORMAT,
                                         "model_format": MODEL_FORMAT}
        files = self._files()

        def value(name: str):
            key, _, corpus_field = name.partition(".")
            return [c[corpus_field] for c in config[key]] if corpus_field else config[key]

        parts = [stage, __version__, {n: value(n) for n in field_names},
                 {n: [self._digest(p) for p in files[n]] for n in file_names}]
        blob = json.dumps(parts, sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _is_complete(self, stage: str) -> bool:
        """For this stage and every stage before it, the marker holds the
        stage's current key, and every artifact the marker lists is still
        there with the digest it was written with."""
        for name in STAGES[:STAGES.index(stage) + 1]:
            marker = self._read_marker(name)
            artifacts = marker.get("artifacts")
            if not (marker.get("key") == self._key(name) and isinstance(artifacts, dict)
                    and all(self._digest(self.out / rel) == digest
                            for rel, digest in artifacts.items())):
                return False
        return True

    def _write_marker(self, stage: str, key: Optional[str], extra: dict,
                      warnings: list) -> None:
        """Record a stage's run: the key of a completed run, or None for a
        failed one, and the digest of every artifact it declared (None for
        one it did not write)."""
        for path in self._artifacts:
            self._digests.pop(path, None)  # the stage wrote it since it was hashed
        artifacts = {p.relative_to(self.out).as_posix(): self._digest(p)
                     for p in self._artifacts}
        payload = {"key": key, "stage": stage, "artifacts": artifacts,
                   "extra": extra, "warnings": warnings}
        with atomic_write(self._marker(stage), encoding="utf-8") as f:
            f.write(json.dumps(payload, ensure_ascii=False, default=str) + "\n")

    def _read_marker(self, stage: str) -> dict:
        try:
            return json.loads(self._marker(stage).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return {}

    def _clear(self, stage: str) -> None:
        """Delete the artifacts the stage's marker records, so that a run
        writing fewer files leaves none of the last run's behind."""
        artifacts = self._read_marker(stage).get("artifacts")
        for rel in artifacts if isinstance(artifacts, dict) else ():
            if Path(rel).is_absolute() or ".." in Path(rel).parts:
                continue  # not a file a stage writes
            (self.out / rel).unlink(missing_ok=True)
            self._digests.pop(self.out / rel, None)

    def _load_streams(self) -> dict[str, TypeStreams]:
        return {spec.corpus_id: load_streams(self.streams_path(spec.corpus_id))
                for spec in self.config.corpora}

    # --- stages ---

    def stage_ingest(self) -> dict:
        inventory = self.inventory  # loaded here, so that workers inherit it
        groups: dict[Path, list[CorpusHandle]] = {}  # the corpora reading each file
        for spec in self.config.corpora:
            groups.setdefault(Path(spec.input_path).resolve(), []).append(spec)
        self._declare(self._files()["streams/"] + [self.out / "counts.json"])
        shards, unreadable = [], None
        for path in groups:
            try:
                shards += [(path, start, end) for start, end in line_ranges(path, usable_cpus())]
            except OSError as exc:  # the files before it still get their streams
                unreadable = exc
                break

        def ingest(path: Path, start: int, end: int) -> tuple:
            began = time.perf_counter()
            filters = [(FilterConfig(lang=spec.lang, country=spec.country), spec.pre_tokenized)
                       for spec in groups[path]]
            parts, lines = ingest_range(path, start, end, filters, inventory)
            return parts, lines, time.perf_counter() - began

        results, workers = fan_out([partial(ingest, *shard) for shard in shards])
        parts = {}
        shard_rows = []
        for (path, start, end), (shard_parts, lines, seconds) in zip(shards, results):
            shard_rows.append({"file": str(path), "start": start, "end": end, "lines": lines,
                               "seconds": round(seconds, 3)})
            for spec, part in zip(groups[path], shard_parts):
                parts.setdefault(spec.corpus_id, []).append(part)
        counts_by_corpus, throughput = {}, {}
        for spec in self.config.corpora:
            if spec.corpus_id not in parts:
                continue
            with self._artifact(self.streams_path(spec.corpus_id), "wb") as f:
                save_streams(f, TypeStreams.join(types for types, _ in parts[spec.corpus_id]))
            counts = sum((c for _, c in parts[spec.corpus_id]), IngestCounts())
            counts_by_corpus[spec.corpus_id] = counts.as_dict()
            throughput[spec.corpus_id] = {
                "seconds": round(counts.seconds, 3), "records": counts.read,
                "posts_per_s": round(counts.read / max(counts.seconds, 1e-9))}
        if unreadable is not None:
            raise unreadable
        with self._artifact(self.out / "counts.json", encoding="utf-8") as f:
            json.dump(counts_by_corpus, f, ensure_ascii=False, indent=2)
            f.write("\n")
        return {"counts": counts_by_corpus, "throughput": throughput, "workers": workers,
                "shards": shard_rows}

    def stage_train(self) -> dict:
        c = self.config
        streams = self._load_streams()
        vocabs = {corpus_id: vocabulary_of(types, c.min_count)
                  for corpus_id, types in streams.items()}
        # encoded once, here: the workers inherit them
        encoded = {corpus_id: encode_types(types, vocabs[corpus_id])
                   for corpus_id, types in streams.items()}

        def train(corpus_id: str, seed: int, path: Path) -> tuple:
            model = train_cbow(encoded[corpus_id], vocabs[corpus_id],
                               replace(c.training, seed=seed))
            save_model(model, path)
            return model.epoch_losses, model.train_seconds

        # every (corpus, run) pair gets its own seed; same-sized vocabularies
        # must not share initializations across corpora
        jobs = [(spec.corpus_id, r, c.training.seed + k * c.runs + r)
                for k, spec in enumerate(c.corpora) for r in range(c.runs)]
        self._declare(self._files()["models/"])
        results, workers = fan_out([partial(train, corpus_id, seed,
                                            self.model_path(corpus_id, r))
                                    for corpus_id, r, seed in jobs])
        info = {}
        for (corpus_id, r, _), (losses, seconds) in zip(jobs, results):
            vocab = vocabs[corpus_id]
            entry = info.setdefault(corpus_id, {
                "vocabulary": len(vocab), "corpus_tokens": vocab.corpus_tokens,
                "epoch_losses": [], "runs": []})
            entry["epoch_losses"].append(list(losses))
            # the tokens one run trains on: in-vocabulary tokens times epochs
            run_tokens = vocab.kept_tokens * c.training.epochs
            entry["runs"].append({"seconds": round(seconds, 3),
                                  "tokens_per_s": round(run_tokens / max(seconds, 1e-9))})
        return {"training": info, "workers": workers}

    def stage_project(self) -> dict:
        emoji = self.inventory.entries
        # each corpus's emoji counts, in the order its stream first has them
        table = FrequencyTable(self.inventory, {
            corpus_id: Counter({t: n for t, n in zip(types.types, types.counts.tolist())
                                if t in emoji})
            for corpus_id, types in self._load_streams().items()})
        models = {spec.corpus_id: [load_model(self.model_path(spec.corpus_id, r))
                                   for r in range(self.config.runs)]
                  for spec in self.config.corpora}
        shared = shared_set(table, self.config.shared_threshold)
        if len(shared) == 0:
            self.manifest.warnings.append(
                f"no emoji passes the shared-set threshold {self.config.shared_threshold}")

        lexicons = {
            spec.corpus_id: parse_lexicon(spec.lexicon_path, spec.lang)
            for spec in self.config.corpora
        }
        schema = shared_schema(list(lexicons.values())) if len(lexicons) > 1 else \
            lexicons[self.config.corpora[0].corpus_id].category_names
        expansions = {}
        for spec in self.config.corpora:
            vocab_tokens = models[spec.corpus_id][0].vocab.tokens
            exp = expand_patterns(lexicons[spec.corpus_id], vocab_tokens)
            expansions[spec.corpus_id] = {c: sorted(exp.tokens[c]) for c in schema}

        # two categories expanding to the same token set have identical
        # category vectors and would make orthonormalization fail; keep the
        # first and drop the rest, symmetrically across corpora
        duplicate_of: dict[str, str] = {}
        for corpus_id, expanded in expansions.items():
            seen: dict[frozenset, str] = {}
            for cat in schema:
                key = frozenset(expanded[cat])
                if not key or cat in duplicate_of:
                    continue
                if key in seen:
                    duplicate_of[cat] = f"{seen[key]} (identical tokens in {corpus_id})"
                else:
                    seen[key] = cat
        if duplicate_of:
            schema = tuple(c for c in schema if c not in duplicate_of)
            self.manifest.warnings.append(
                "dropped categories duplicating another's token set: "
                + ", ".join(f"{c} = {why}" for c, why in sorted(duplicate_of.items())))

        ekman = load_ekman(self.config.ekman_words)
        ekman_axes = {}
        for spec in self.config.corpora:
            lang = spec.lang.split("-")[0].lower()
            if lang in ekman.words:
                ekman_axes[spec.corpus_id] = ekman.axes(lang)
            else:
                self.manifest.warnings.append(
                    f"no Ekman word list for language {lang!r} (corpus {spec.corpus_id})")

        info = {"schema": list(schema), "shared_emoji": len(shared)}
        orthonormal = None
        if len(shared) == 0:
            with self._artifact(self.out / "tensors" / "EMPTY", encoding="utf-8") as f:
                f.write("no shared emoji\n")
        else:
            orthonormal = build_tensor(models, expansions, schema, shared,
                                       self.config.culture_of, ekman_axes=ekman_axes or None)
            path = self.out / "tensors" / "similarity_orthonormal.csv"
            self._declare([path])
            write_tensor_csv(orthonormal, path)
            info["axes"] = list(orthonormal.axes)
            info["targets"] = len(orthonormal.targets)
            if orthonormal.dropped_categories:
                self.manifest.warnings.append(
                    "dropped degenerate categories: "
                    + ", ".join(f"{c} ({why})" for c, why in
                                sorted(orthonormal.dropped_categories.items())))
            if orthonormal.excluded_targets:
                self.manifest.warnings.append(
                    f"{len(orthonormal.excluded_targets)} shared emoji missing from some "
                    f"corpus vocabulary, excluded from projections")
            if orthonormal.excluded_axes:
                self.manifest.warnings.append(
                    "Ekman axes excluded (word missing in some corpus): "
                    + ", ".join(orthonormal.excluded_axes))
        with self._artifact(self.out / "handoff.bin", "wb") as f:
            write_handoff(f, orthonormal, emoji_profiles(models, shared), table, shared)
        return info

    def stage_analyze(self) -> dict:
        tensor, profiles, table, shared = read_handoff(
            self.out / "handoff.bin", self.inventory, self.config.culture_of)
        cross = {"West", "East"} <= self.config.cultures_present()
        if not cross:
            self.manifest.warnings.append(
                "only one culture group configured; cross-culture analytics skipped")
        report = build_report(
            tensor if cross else None, profiles, table, self.inventory, shared,
            self.config.culture_of, top_k=self.config.top_k,
        )
        self.manifest.warnings.extend(report.warnings)
        open_report = self._opener("report")
        with open_report("frequency.csv") as f:
            table.to_csv(f)
        write_report_csvs(report, self.inventory, open_report)
        with open_report("report.json") as f:
            write_report_json(report, f)
        return {"warnings": list(report.warnings)}

    def stage_report(self) -> dict:
        report = read_report_json(self.out / "report" / "report.json")
        charts = emit_charts(report, self._opener("charts"))
        for name, filename in charts.items():
            if filename is None:
                self.manifest.warnings.append(f"chart {name} omitted: empty report section")
        self.manifest.charts = charts
        return {"charts": charts}

    # --- driver ---

    def run(self, stage: str = "all") -> RunManifest:
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output directory {self.out} not writable: {exc}") from exc
        wanted = list(STAGES) if stage == "all" else [stage]
        if stage not in list(STAGES) + ["all"]:
            raise ConfigError(f"unknown stage {stage!r}; choose from {', '.join(STAGES)} or all")
        for name in wanted:
            fn = getattr(self, f"stage_{name}")
            key = self._key(name)
            if stage == "all" and self._is_complete(name):
                # restore the cached run's stage info so the manifest stays whole
                marker = self._read_marker(name)
                extra = marker.get("extra", {})
                self.manifest.record(name, key, 0.0, skipped=True, **extra)
                self.manifest.warnings.extend(marker.get("warnings", []))
                if name == "report" and "charts" in extra:
                    self.manifest.charts = extra["charts"]
                continue
            start = time.perf_counter()
            warnings_before = len(self.manifest.warnings)
            self._artifacts = []
            try:
                index = STAGES.index(name)
                if index and not self._is_complete(STAGES[index - 1]):
                    raise PipelineStageError(STAGES[index - 1], RuntimeError(
                        f"artifacts missing or stale; run the {STAGES[index - 1]!r} "
                        "stage first"))
                self._clear(name)
                extra = fn() or {}
            except PipelineStageError:
                self.manifest.save(self.out / "manifest.json")
                raise
            except Exception as exc:
                # lists what this run declared, for the next run's _clear
                self._write_marker(name, None, {}, [])
                self.manifest.save(self.out / "manifest.json")
                raise PipelineStageError(name, exc) from exc
            self.manifest.record(name, key, time.perf_counter() - start, **extra)
            self._write_marker(name, key, extra, self.manifest.warnings[warnings_before:])
        self.manifest.save(self.out / "manifest.json")
        return self.manifest


# --- project -> analyze hand-off ----------------------------------------------

HANDOFF_FORMAT = "crossmoji-handoff 1"


def write_handoff(f, tensor: Optional[SimilarityTensor], profiles: EmojiProfiles,
                  table: FrequencyTable, shared: SharedEmojiSet) -> None:
    """Write what analyze reads into the binary file `f`, in the
    `write_arrays` layout.  The JSON line holds the corpora, the tensor's
    axes and targets (null when no emoji is shared, so there is no
    tensor), the emoji the profiles cover and exclude, the shared set and
    each corpus's emoji counts.  Two arrays follow: the (corpora, runs,
    axes, targets) orthonormal cube, empty without a tensor, and the
    (corpora, emoji pairs) cosine profiles."""
    corpora = list(profiles.by_corpus)
    meta = {
        "format": HANDOFF_FORMAT,
        "corpora": corpora,
        "axes": None if tensor is None else list(tensor.axes),
        "targets": None if tensor is None else list(tensor.targets),
        "emoji_used": list(profiles.emoji_used),
        "excluded": list(profiles.excluded),
        "shared": list(shared.emoji),
        "shared_threshold": shared.threshold,
        "counts": {corpus: dict(counts) for corpus, counts in table.counts.items()},
    }
    cube = (np.empty((len(corpora), 0, 0, 0)) if tensor is None
            else np.stack([tensor.per_run[c] for c in corpora]))
    write_arrays(f, meta, [cube, np.stack([profiles.by_corpus[c] for c in corpora])])


def read_handoff(path, inventory, culture_of) -> tuple:
    """Read what `write_handoff` wrote: (tensor or None, profiles, frequency
    table, shared set), every value exactly as project computed it."""
    meta, (cube, profile_rows) = read_arrays(path, HANDOFF_FORMAT, (np.float64, np.float64))
    corpora = tuple(meta["corpora"])
    tensor = None
    if meta["axes"] is not None:
        tensor = SimilarityTensor(axes=tuple(meta["axes"]), targets=tuple(meta["targets"]),
                                  corpora=corpora, culture_of=dict(culture_of),
                                  per_run=dict(zip(corpora, cube)))
    profiles = EmojiProfiles(tuple(meta["emoji_used"]), tuple(meta["excluded"]),
                             dict(zip(corpora, profile_rows)))
    table = FrequencyTable(inventory, {c: Counter(n) for c, n in meta["counts"].items()})
    shared = SharedEmojiSet(tuple(meta["shared"]), meta["shared_threshold"])
    return tensor, profiles, table, shared


# --- report serialization ----------------------------------------------------

def write_report_csvs(report: CorrelationReport, inventory, open_file) -> None:
    """Write the report's non-empty sections as CSV files, each into
    `open_file(name)`: a context manager giving a text file with `newline=""`."""

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
