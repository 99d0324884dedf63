"""End-to-end pipeline: staging, resumability, determinism, reporting."""

import builtins
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import weakref
import xml.etree.ElementTree as ET
from collections import Counter
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np
import pytest

from crossmoji import pipeline
from crossmoji.analytics import CorrelationReport, spearman
from crossmoji.corpus import ingest_handle, normalize_text
from crossmoji.embedding import (
    EmbeddingModel,
    TrainParams,
    build_vocabulary,
    encode_streams,
    load_model,
)
from crossmoji.fileio import read_streams
from crossmoji.inventory import (
    FrequencyTable,
    SharedEmojiSet,
    codepoint_str,
    count_frequencies,
    load_default_inventory,
)
from crossmoji.pipeline import (
    SCHEMA,
    STAGES,
    ConfigError,
    Pipeline,
    PipelineStageError,
    load_config,
    read_report_json,
)
from crossmoji.projection import culture_average

from util import (
    E1,
    E2,
    bom_copy,
    edit_config,
    write_demo_lexicon,
    write_four_corpus_setup,
    write_mixed_feed,
    write_two_culture_setup,
)


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    """One small full pipeline run shared by the read-only tests."""
    tmp = tmp_path_factory.mktemp("pipe")
    cfg_path = write_two_culture_setup(tmp, posts_per_pattern=25, runs=2,
                                       dim=16, epochs=2)
    config = load_config(cfg_path, deterministic=True)
    manifest = Pipeline(config).run("all")
    return tmp, config, manifest


def test_all_stages_complete_and_artifacts_exist(completed_run):
    tmp, config, manifest = completed_run
    out = Path(config.out_dir)
    assert all(manifest.stages[s]["completed"] for s in
               ("ingest", "train", "project", "analyze", "report"))
    assert (out / "streams" / "US.bin").exists()
    assert (out / "models" / "US.run0.vec").exists()
    assert (out / "models" / "JP.run1.vec").exists()
    assert (out / "tensors" / "similarity_orthonormal.csv").exists()
    assert not (out / "tensors" / "similarity_raw.csv").exists()  # no stage read it
    assert (out / "handoff.bin").exists()
    assert (out / "report" / "report.json").exists()
    assert (out / "report" / "category_scc.csv").exists()
    assert (out / "manifest.json").exists()


def test_manifest_counts_monotone(completed_run):
    _, config, manifest = completed_run
    for counts in manifest.stages["ingest"]["counts"].values():
        assert counts["posts_read"] >= counts["posts_after_filter"] >= counts["streams_written"]


def test_manifest_counts_match_hand_counted_fixture(completed_run):
    # the generator writes 25 posts per pattern iteration (12 verbal, 12
    # with emoji, 1 filler), all of which pass the filters
    _, config, manifest = completed_run
    expected = 25 * 25
    for counts in manifest.stages["ingest"]["counts"].values():
        assert counts["posts_read"] == expected
        assert counts["posts_after_filter"] == expected
        assert counts["streams_written"] == expected
        assert counts["parse_errors"] == 0


def test_rerun_skips_completed_stages(completed_run):
    tmp, config, manifest1 = completed_run
    report_csv = Path(config.out_dir) / "report" / "category_scc.csv"
    before = report_csv.read_bytes()
    manifest2 = Pipeline(config).run("all")
    assert all(info["skipped"] for info in manifest2.stages.values())
    assert report_csv.read_bytes() == before
    # the resumed manifest keeps the cached run's stage info and charts
    assert manifest2.stages["ingest"]["counts"] == manifest1.stages["ingest"]["counts"]
    assert manifest2.stages["report"]["charts"] == manifest1.stages["report"]["charts"]


def test_second_run_of_a_pipeline_records_each_warning_once(completed_run, tmp_path):
    # each run() starts a new manifest: the stages a second call skips
    # restore their warnings once, not after those of the first call
    config = copy_run(completed_run, tmp_path)
    runner = Pipeline(config)
    runner.run("all")
    assert runner.run("all").warnings == completed_run[2].warnings != []
    saved = json.loads((config.out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert saved["warnings"] == completed_run[2].warnings


def test_stage_requires_predecessor(tmp_path):
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=5)
    config = load_config(cfg_path)
    with pytest.raises(PipelineStageError, match="ingest"):
        Pipeline(config).run("train")


def incomplete(config) -> list[str]:
    """The stages not complete: from the first whose entry does not hold on."""
    pipeline = Pipeline(config)
    holds = [pipeline._holds(stage, pipeline._key(stage)) for stage in STAGES]
    return list(STAGES[holds.index(False):]) if False in holds else []


def test_config_change_invalidates_markers(completed_run):
    # top_k is read by analyze alone: the stages before it stay complete
    _, config, _ = completed_run
    assert incomplete(dataclasses.replace(config, top_k=7)) == ["analyze", "report"]


def edit_module(monkeypatch, name: str) -> None:
    """Make `_digest` give the package module `name` another digest, as an
    edit to its code would."""
    path = pipeline.PACKAGE / name
    digest = Pipeline._digest
    monkeypatch.setattr(Pipeline, "_digest",
                        lambda self, p: "edited" if p == path else digest(self, p))


def test_model_format_change_invalidates_markers(completed_run, monkeypatch):
    # the model format is a tag in embedding.py: a directory trained under
    # another one re-trains instead of failing to read its models
    _, config, _ = completed_run
    assert incomplete(config) == []
    edit_module(monkeypatch, "embedding.py")
    assert incomplete(config) == ["train", "project", "analyze", "report"]


def test_one_stage_run_keeps_the_whole_manifest(completed_run, tmp_path):
    config = copy_run(completed_run, tmp_path)
    cold = Pipeline(config).run("all")
    single = Pipeline(config).run("analyze")
    saved = json.loads((config.out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert list(single.stages) == list(saved["stages"]) == list(STAGES)
    assert ran(single) == ["analyze"]
    assert all(info["completed"] for info in single.stages.values())
    assert single.stages["ingest"]["counts"] == cold.stages["ingest"]["counts"]
    assert single.stages["train"]["training"] == cold.stages["train"]["training"]
    assert single.warnings == saved["warnings"] == cold.warnings
    charts = cold.stages["report"]["charts"]
    assert single.stages["report"]["charts"] == saved["stages"]["report"]["charts"] == charts != {}


def test_one_stage_run_records_later_stale_stages_as_not_complete(completed_run, tmp_path):
    config = copy_run(completed_run, tmp_path)
    (config.out_dir / "report" / "report.json").unlink()
    manifest = Pipeline(config).run("train")
    assert [s for s, info in manifest.stages.items() if not info["completed"]] == [
        "analyze", "report"]
    assert "charts" not in manifest.stages["report"]


# --- per-stage cache keys ------------------------------------------------------

def copy_run(completed_run, tmp_path):
    """A private copy of the shared completed run (inputs, config and
    outputs) to edit and re-run; returns the copy's config."""
    shutil.copytree(completed_run[0], tmp_path / "run")
    return load_config(tmp_path / "run" / "config.json")


def reused(config, same_object: bool):
    """With `same_object`, a Pipeline of `config` that has run (every stage
    skipped), so that it has read the record and config and hashed every
    file, to run again after an edit; else None, for a fresh one."""
    if not same_object:
        return None
    runner = Pipeline(config)
    assert ran(runner.run("all")) == []
    return runner


def ran(manifest) -> list[str]:
    return [stage for stage, info in manifest.stages.items() if not info["skipped"]]


def outputs(out: Path, also=()) -> dict[str, bytes]:
    """Every file under tensors/, report/ and charts/ (and `also`), plus
    counts.json, by path relative to `out`."""
    files = [out / "counts.json"] + [p for d in ("tensors", "report", "charts", *also)
                                     for p in (out / d).rglob("*")]
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in files if p.is_file()}


def drop_last_line(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


def test_moved_run_directory_stays_complete(completed_run, tmp_path):
    # keys cover file contents, not paths
    assert incomplete(copy_run(completed_run, tmp_path)) == []


def test_manifest_without_artifacts_reruns_every_stage_once(completed_run, tmp_path):
    # a 0.4.x manifest records no artifacts: no stage holds, and the run
    # records them, so the next one skips every stage
    config = copy_run(completed_run, tmp_path)
    path = config.out_dir / "manifest.json"
    saved = json.loads(path.read_text(encoding="utf-8"))
    for entry in saved["stages"].values():
        del entry["artifacts"]
    path.write_text(json.dumps(saved), encoding="utf-8")
    assert ran(Pipeline(config).run("all")) == list(STAGES)
    assert ran(Pipeline(config).run("all")) == []


@pytest.mark.parametrize("text", ['{"stages": []}', '{"stages": {"ingest": 5}}', "[1]",
                                  "[" * 100_000 + "]" * 100_000],
                         ids=["stages-list", "entry-5", "list", "deep"])
def test_damaged_manifest_counts_as_none(completed_run, tmp_path, text):
    config = copy_run(completed_run, tmp_path)
    (config.out_dir / "manifest.json").write_text(text, encoding="utf-8")
    assert ran(Pipeline(config).run("all")) == list(STAGES)


@pytest.mark.parametrize("key", ["", ".", "report", "../x", "absolute", "a\0b"],
                         ids=["empty", "dot", "report", "parent", "absolute", "nul"])
def test_artifact_key_that_names_no_stage_file_counts_as_no_entry(completed_run, tmp_path, key):
    # "", "." and "report" name directories, and a NUL no path has: each
    # failed every later run; "../x" and an absolute path name files outside
    # the output directory, which no stage writes and no run may delete
    config = copy_run(completed_run, tmp_path)
    outside = {"../x": config.out_dir.parent / "x", "absolute": tmp_path / "outside"}.get(key)
    if outside:
        outside.write_text("kept", encoding="utf-8")
    key = str(outside) if key == "absolute" else key
    (config.out_dir / "manifest.json").write_text(json.dumps(
        {"stages": {"ingest": {"key": "x", "artifacts": {key: "abc"}}}}), encoding="utf-8")
    for _ in range(2):
        manifest = Pipeline(config).run("all")
        assert all(info["completed"] for info in manifest.stages.values())
    saved = json.loads((config.out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert not any(key in entry["artifacts"] for entry in saved["stages"].values())
    assert outside is None or outside.read_text(encoding="utf-8") == "kept"


@pytest.mark.parametrize("damage", [{"warnings": 5}, {"warnings": None}, {"warnings": "ab"},
                                    {"stage": 1}, {"self": 1}],
                         ids=["warnings-5", "warnings-null", "warnings-str", "key-stage",
                              "key-self"])
def test_damaged_stage_entry_does_not_crash_a_run(completed_run, tmp_path, damage):
    # `warnings` 5 or null failed every later run with a TypeError, "ab"
    # added the warnings "a" and "b", and a `stage` or `self` key clashed
    # with the arguments a restored entry was recorded through
    config = copy_run(completed_run, tmp_path)
    path = config.out_dir / "manifest.json"
    saved = json.loads(path.read_text(encoding="utf-8"))
    saved["stages"]["ingest"] |= damage
    path.write_text(json.dumps(saved), encoding="utf-8")
    for _ in range(2):
        manifest = Pipeline(config).run("all")
        assert all(info["completed"] for info in manifest.stages.values())
        saved = json.loads(path.read_text(encoding="utf-8"))
        entries = [saved["stages"][name]["warnings"] for name in STAGES]
        assert all(isinstance(warnings, list) for warnings in entries)
        assert saved["warnings"] == [w for warnings in entries for w in warnings]
        assert saved["warnings"] == completed_run[2].warnings


@pytest.mark.parametrize("name", ["west.jsonl", "config.json", "demo.dic"])
def test_artifact_its_stage_does_not_write_counts_as_no_entry(tmp_path, name):
    # with the output directory beside the inputs, an input listed in
    # ingest's entry under a stale key was deleted by the next run, which
    # then failed
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=5, runs=1, dim=8, epochs=1)
    edit_config(cfg_path, "out_dir", ".")
    config = load_config(cfg_path)
    Pipeline(config).run("all")
    kept = (tmp_path / name).read_bytes()
    path = tmp_path / "manifest.json"
    saved = json.loads(path.read_text(encoding="utf-8"))
    saved["stages"]["ingest"] |= {"key": "stale",
                                  "artifacts": saved["stages"]["ingest"]["artifacts"] | {name: "0"}}
    path.write_text(json.dumps(saved), encoding="utf-8")
    manifest = Pipeline(config).run("all")
    assert ran(manifest) == ["ingest"]
    assert (tmp_path / name).read_bytes() == kept


def test_stage_writes_lists_the_first_part_of_every_artifact(completed_run):
    for name, entry in completed_run[2].stages.items():
        assert {rel.split("/")[0] for rel in entry["artifacts"]} == set(pipeline.STAGE_WRITES[name])


@pytest.mark.parametrize("same_object", [False, True], ids=["fresh", "same-object"])
def test_input_edit_reruns_every_stage(completed_run, tmp_path, same_object):
    config = copy_run(completed_run, tmp_path)
    runner = reused(config, same_object)
    west = config.corpora[0].input_path
    lines = west.read_text(encoding="utf-8").splitlines(keepends=True)
    west.write_text("".join(lines[: len(lines) // 2]), encoding="utf-8")
    counts = (config.out_dir / "counts.json").read_bytes()
    manifest = (runner or Pipeline(config)).run("all")
    assert ran(manifest) == list(STAGES)
    assert (config.out_dir / "counts.json").read_bytes() != counts
    assert manifest.stages["ingest"]["counts"]["US"]["posts_read"] == len(lines) // 2


def test_lexicon_edit_reruns_project_and_later(completed_run, tmp_path):
    config = copy_run(completed_run, tmp_path)
    drop_last_line(config.corpora[0].lexicon_path)
    assert ran(Pipeline(config).run("all")) == ["project", "analyze", "report"]


def test_inventory_warnings_listed_once_on_cached_reruns(completed_run, tmp_path):
    # ingest alone records the inventory's warnings; a later stage that
    # loaded the inventory first used to record them again, and a skipped
    # one to restore that copy from its marker
    config = copy_run(completed_run, tmp_path)
    cfg_path = tmp_path / "run" / "config.json"
    data = tmp_path / "run" / "emoji_data.txt"
    data.write_text(config.emoji_data.read_text(encoding="utf-8") + "1F3FB ; emoji\n",
                    encoding="utf-8")
    edit_config(cfg_path, "emoji_data", data.name)
    warning = "dropped 1 skin-tone modifier entries"
    for key, value, stages in ((None, None, ["ingest", "project", "analyze"]),
                               ("top_k", 3, ["analyze", "report"]),
                               ("shared_threshold", 2, ["project", "analyze", "report"]),
                               ("top_k", 4, ["analyze", "report"])):
        if key:
            edit_config(cfg_path, key, value)
        config = load_config(cfg_path)
        manifest = Pipeline(config).run("all")
        assert set(ran(manifest)) <= set(stages), key
        saved = json.loads((config.out_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest.warnings.count(warning) == saved["warnings"].count(warning) == 1, key


def test_top_k_edit_reruns_analyze_and_report_equal_to_cold_run(completed_run, tmp_path):
    config = copy_run(completed_run, tmp_path)
    edit_config(tmp_path / "run" / "config.json", "top_k", 3)
    edited = load_config(tmp_path / "run" / "config.json")
    assert ran(Pipeline(edited).run("all")) == ["analyze", "report"]
    cold = load_config(tmp_path / "run" / "config.json", out_dir=str(tmp_path / "cold"))
    assert ran(Pipeline(cold).run("all")) == list(STAGES)
    assert outputs(config.out_dir) == outputs(cold.out_dir)


def test_emoji_data_edit_that_counts_the_same_leaves_analyze_cached(completed_run, tmp_path):
    # `load_inventory` drops a skin-tone line: the streams and the hand-off
    # come out the same, so train and analyze stay cached
    config = copy_run(completed_run, tmp_path)
    handoff = (config.out_dir / "handoff.bin").read_bytes()
    data = tmp_path / "emoji_data.txt"
    data.write_text(config.emoji_data.read_text(encoding="utf-8") + "1F3FB ; emoji\n",
                    encoding="utf-8")
    edited = dataclasses.replace(config, emoji_data=data)
    assert ran(Pipeline(edited).run("all")) == ["ingest", "project"]
    assert (config.out_dir / "handoff.bin").read_bytes() == handoff


def test_shared_threshold_edit_that_keeps_the_shared_set_leaves_analyze_cached(
        completed_run, tmp_path):
    # the hand-off holds the shared set, not the threshold that chose it
    config = copy_run(completed_run, tmp_path)
    with open(config.out_dir / "handoff.bin", "rb") as f:
        meta = json.loads(f.readline())
    threshold = min(sum(counts[e] for counts in meta["counts"].values()) for e in meta["shared"])
    assert threshold > config.shared_threshold
    edited = dataclasses.replace(config, shared_threshold=threshold)
    assert ran(Pipeline(edited).run("all")) == ["project"]


def test_category_edit_reruns_analyze_with_the_new_label(completed_run, tmp_path):
    # project takes each counted emoji's category from the category file
    # and hands it to analyze, which labels the report's rows with it
    config = copy_run(completed_run, tmp_path)
    text = config.emoji_categories.read_text(encoding="utf-8")
    line = next(line for line in text.splitlines() if line.split("\t")[0] == codepoint_str(E1))
    assert line.split("\t")[1] != "Flags"
    categories = tmp_path / "emoji_categories.tsv"
    categories.write_text(text.replace(line, f"{codepoint_str(E1)}\tFlags"), encoding="utf-8")
    edited = dataclasses.replace(config, emoji_categories=categories)
    assert ran(Pipeline(edited).run("all")) == ["ingest", "project", "analyze", "report"]

    def rows(name: str) -> list[dict]:
        with open(config.out_dir / "report" / name, newline="", encoding="utf-8") as f:
            return [row for row in csv.DictReader(f) if row["emoji"] == E1]

    assert [row["unicode_category"] for row in rows("icon_scc.csv")] == ["Flags"]
    assert [row["category"] for row in rows("frequency.csv")] == ["Flags"] * len(config.corpora)


def corpus_edit(index: int, **changes):
    def edit(config, tmp_path):
        corpora = list(config.corpora)
        corpora[index] = dataclasses.replace(corpora[index], **changes)
        return dataclasses.replace(config, corpora=corpora)
    return edit


def file_edit(field: str, corpus_field: bool = False):
    """Point `field` at a copy of its file with one byte more."""
    def edit(config, tmp_path):
        owner = config.corpora[0] if corpus_field else config
        copy = tmp_path / Path(getattr(owner, field)).name
        copy.write_bytes(Path(getattr(owner, field)).read_bytes() + b"\n")
        if corpus_field:
            return corpus_edit(0, **{field: copy})(config, tmp_path)
        return dataclasses.replace(config, **{field: copy})
    return edit


def training_edit(name: str):
    def edit(config, tmp_path):
        value = getattr(config.training, name)
        new = (value * 2 or 1e-3) if isinstance(value, float) else value + 1
        return dataclasses.replace(
            config, training=dataclasses.replace(config.training, **{name: new}))
    return edit


# snapshot() field -> (the first stage that reads it, an edit of it)
FIELD_READERS = {
    "corpora.id": ("ingest", corpus_edit(0, corpus_id="USX")),
    "corpora.culture": ("project", corpus_edit(1, culture="West")),
    "corpora.input": ("ingest", file_edit("input_path", corpus_field=True)),
    "corpora.lang": ("ingest", corpus_edit(0, lang="fr")),
    "corpora.country": ("ingest", corpus_edit(0, country="GB")),
    "corpora.lexicon": ("project", file_edit("lexicon_path", corpus_field=True)),
    "corpora.pre_tokenized": ("ingest", corpus_edit(0, pre_tokenized=True)),
    **{f"training.{f.name}": ("train", training_edit(f.name))
       for f in dataclasses.fields(TrainParams)},
    "min_count": ("train", lambda c, _: dataclasses.replace(c, min_count=c.min_count + 1)),
    "runs": ("train", lambda c, _: dataclasses.replace(c, runs=c.runs + 1)),
    "shared_threshold": ("project", lambda c, _: dataclasses.replace(
        c, shared_threshold=c.shared_threshold + 1)),
    "top_k": ("analyze", lambda c, _: dataclasses.replace(c, top_k=c.top_k + 1)),
    "emoji_data": ("ingest", file_edit("emoji_data")),
    "emoji_categories": ("ingest", file_edit("emoji_categories")),
    "ekman_words": ("project", file_edit("ekman_words")),
}


def test_every_snapshot_field_has_a_reader_case(completed_run):
    snapshot = completed_run[1].snapshot()
    names = {f"{key}.{sub}" for key in ("corpora", "training")
             for sub in (snapshot[key][0] if key == "corpora" else snapshot[key])}
    names |= set(snapshot) - {"corpora", "training"}
    assert names == set(FIELD_READERS)


@pytest.mark.parametrize("field, same_object", [
    pytest.param(field, same_object, id=field + "-same-object" * same_object)
    for same_object in (False, True) for field in sorted(FIELD_READERS)])
def test_edit_invalidates_first_stage_reading_it(completed_run, tmp_path, field, same_object):
    # the stages before the first reader stay complete: no over-invalidation
    stage, edit = FIELD_READERS[field]
    if not same_object:
        assert incomplete(edit(completed_run[1], tmp_path))[0] == stage
        return
    # the config object edited in place after its Pipeline ran: the next run
    # starts at the first reader too, and records the config as edited
    config = copy_run(completed_run, tmp_path)
    runner = reused(config, True)
    changed = edit(config, tmp_path)
    for f in dataclasses.fields(config):
        setattr(config, f.name, getattr(changed, f.name))
    with suppress(PipelineStageError):  # a lang or country no post has leaves train no tokens
        runner.run("all")
    assert ran(runner.manifest)[0] == stage
    assert runner.manifest.config == changed.snapshot() != completed_run[1].snapshot()


# package module -> the first stage that runs its code (None: no stage does)
MODULE_RUNNERS = {
    "__init__.py": None,
    "analytics.py": "analyze",
    "charts.py": "report",
    "cli.py": None,
    "corpus.py": "ingest",
    "embedding.py": "train",
    "fileio.py": "ingest",
    "inventory.py": "ingest",
    "lexicon.py": "project",
    "pipeline.py": "ingest",
    "projection.py": "project",
}


def declared_modules(stage: str) -> set[str]:
    return {name for name in pipeline.STAGE_READS[stage][1] if name.endswith(".py")}


@pytest.mark.parametrize("module", sorted(p.name for p in pipeline.PACKAGE.glob("*.py")))
def test_module_edit_invalidates_first_stage_running_it(completed_run, monkeypatch, module):
    # the stages before the first that runs the module stay complete
    stage = MODULE_RUNNERS[module]
    assert stage == next((s for s in STAGES if module in declared_modules(s)), None)
    edit_module(monkeypatch, module)
    assert incomplete(completed_run[1]) == ([] if stage is None else
                                            list(STAGES[STAGES.index(stage):]))


def test_min_count_alone_changes_the_project_key(completed_run):
    # project rebuilds each corpus's vocabulary from its stream file with
    # min_count, so its key reads min_count even when the models are the same
    config = completed_run[1]
    changed = dataclasses.replace(config, min_count=config.min_count + 1)
    assert Pipeline(changed)._key("project") != Pipeline(config)._key("project")


def test_readme_stage_key_table_matches_stage_reads():
    # the Caching section of README.md tabulates what each stage key covers
    lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    header = lines.index("| stage   | config it reads | files it reads | code it runs |")
    rows = {}
    for line in lines[header + 2:]:
        if not line.startswith("|"):
            break
        stage, config_cell, _, code_cell = (c.strip() for c in line.strip("|").split("|"))
        rows[stage] = (sorted(re.findall(r"`([^`]+)`", config_cell)),
                       sorted(re.findall(r"`([^`]+)`", code_cell)))
    assert list(rows) == list(STAGES)
    for stage, (field_names, file_names) in pipeline.STAGE_READS.items():
        assert rows[stage] == (sorted(f.removeprefix("corpora.") for f in field_names),
                               sorted(f.removesuffix(".py") for f in file_names
                                      if f.endswith(".py")))


def test_readme_handoff_key_list_matches_write_handoff():
    # "The project hand-off" in README.md lists the keys of the JSON line
    lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.endswith("The JSON line holds these keys:")) + 2
    listed = []
    for line in lines[start:]:
        if not line:
            break
        if line.startswith("- "):  # an item's wrapped lines are indented
            listed += re.findall(r"`([^`]+)`", line.partition(":")[0])
    f = io.BytesIO()
    pipeline.write_handoff(f, None, FrequencyTable({}, {}), SharedEmojiSet(()))
    assert listed == list(json.loads(f.getvalue().partition(b"\n")[0]))


def refuse_older_handoff(completed_run, tmp_path, edit) -> None:
    """`read_handoff` refuses by name the run's hand-off with its JSON line
    changed by `edit`."""
    config = completed_run[1]
    with open(config.out_dir / "handoff.bin", "rb") as f:
        meta, arrays = json.loads(f.readline()), f.read()
    edit(meta)
    path = tmp_path / "handoff.bin"
    path.write_bytes(json.dumps(meta, ensure_ascii=False).encode("utf-8") + b"\n" + arrays)
    with pytest.raises(ValueError, match="not a crossmoji-handoff 3 file"):
        pipeline.read_handoff(path, config.culture_of)


def test_handoff_in_format_1_refused_by_name(completed_run, tmp_path):
    # a format-1 hand-off had its own emoji_used and excluded lists
    refuse_older_handoff(completed_run, tmp_path, lambda meta: meta.update(
        format="crossmoji-handoff 1", emoji_used=meta["targets"], excluded=[]))


def test_handoff_in_format_2_refused_by_name(completed_run, tmp_path):
    # a format-2 hand-off held the shared-set threshold, and no categories
    def edit(meta):
        del meta["categories"]
        meta.update(format="crossmoji-handoff 2", shared_threshold=3)

    refuse_older_handoff(completed_run, tmp_path, edit)


def test_new_version_alone_leaves_every_stage_complete(completed_run, monkeypatch):
    # a key covers code by its content, not by the version string
    monkeypatch.setattr("crossmoji.__version__", "0.0.0-older")
    monkeypatch.setattr("crossmoji.pipeline.__version__", "0.0.0-older")
    assert incomplete(completed_run[1]) == []


def test_corpus_edit_that_writes_the_same_streams_leaves_train_cached(
        completed_run, tmp_path, monkeypatch):
    # an edit to the ingest code re-runs ingest (once stale keys served it
    # from the cache); streams that come out the same leave every later
    # stage cached: project runs no code of corpus.py
    config = copy_run(completed_run, tmp_path)
    before = outputs(config.out_dir, also=("models", "streams"))
    handoff = (config.out_dir / "handoff.bin").read_bytes()
    edit_module(monkeypatch, "corpus.py")
    assert ran(Pipeline(config).run("all")) == ["ingest"]
    assert outputs(config.out_dir, also=("models", "streams")) == before
    assert (config.out_dir / "handoff.bin").read_bytes() == handoff


def test_each_package_module_is_hashed_once_per_process(completed_run, tmp_path, monkeypatch):
    # code already imported cannot change under the process, so a module's
    # digest outlives a run; every other file is hashed again by the next
    config = copy_run(completed_run, tmp_path)
    monkeypatch.setattr(pipeline, "_module_digests", {})
    hashed = []
    file_digest = hashlib.file_digest
    monkeypatch.setattr(hashlib, "file_digest",
                        lambda f, name: hashed.append(Path(f.name)) or file_digest(f, name))
    runner = Pipeline(config)
    assert ran(runner.run("all")) == ran(runner.run("all")) == []
    modules = {name for stage in STAGES for name in declared_modules(stage)}
    assert sorted(p.name for p in hashed if p.parent == pipeline.PACKAGE) == sorted(modules)
    others = Counter(p for p in hashed if p.parent != pipeline.PACKAGE)
    assert others and set(others.values()) == {2}


def test_every_declared_module_is_a_package_file():
    # `_digest` gives None for a missing file, so a misspelled module name
    # would keep the key constant whatever the code
    for stage in STAGES:
        assert all((pipeline.PACKAGE / name).is_file() for name in declared_modules(stage))


@pytest.mark.parametrize("stage", STAGES)
def test_each_stage_declares_every_module_it_runs(completed_run, tmp_path, monkeypatch, stage):
    # a fresh pipeline in one process runs the stage, the stages before it
    # complete; every package module whose code ran must be in its key
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 1)
    config = copy_run(completed_run, tmp_path)
    run = Pipeline(config)
    modules = set()

    def profile(frame, event, arg):
        path = Path(frame.f_code.co_filename)
        if event == "call" and path.parent == pipeline.PACKAGE:
            modules.add(path.name)

    sys.setprofile(profile)
    try:
        run.run(stage)
    finally:
        sys.setprofile(None)
    assert run.manifest.stages[stage]["completed"]
    assert modules - declared_modules(stage) == set()
    assert "pipeline.py" in modules  # the profile saw the stage run


@pytest.mark.parametrize("stage", STAGES)
def test_each_stage_reads_only_the_files_its_key_covers(completed_run, tmp_path, monkeypatch,
                                                        stage):
    # a fresh pipeline in one process runs the stage, the stages before it
    # complete; the files its body opens to read must be exactly those of
    # the non-module names its key reads.  `_key` hashes those around the
    # body, and imports open code through `io.open_code`, which stays as is
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 1)
    config = copy_run(completed_run, tmp_path)
    run = Pipeline(config)
    body, in_body, opened = getattr(Pipeline, f"stage_{stage}"), [], set()

    def traced(self):
        in_body.append(True)
        try:
            return body(self)
        finally:
            in_body.clear()

    def recording(file, mode="r", *args, **kwargs):
        if in_body and isinstance(file, (str, os.PathLike)) and not set(mode) & set("wax+"):
            opened.add(Path(file).resolve())
        return io_open(file, mode, *args, **kwargs)

    io_open = io.open
    monkeypatch.setattr(Pipeline, f"stage_{stage}", traced)
    monkeypatch.setattr(io, "open", recording)
    monkeypatch.setattr(builtins, "open", recording)
    assert ran(run.run(stage)) == [stage]
    files = run._files()
    assert opened == {path.resolve() for name in pipeline.STAGE_READS[stage][1]
                      if not name.endswith(".py") for path in files[name]}


@pytest.mark.parametrize("same_object", [False, True], ids=["fresh", "same-object"])
@pytest.mark.parametrize("damage", ["truncated", "deleted"])
def test_truncated_model_retrains_to_same_bytes(completed_run, tmp_path, damage, same_object):
    config = copy_run(completed_run, tmp_path)
    runner = reused(config, same_object)
    before = outputs(config.out_dir, also=("models",))
    model = config.out_dir / "models" / "US.run0.vec"
    if damage == "deleted":
        model.unlink()
    else:
        model.write_bytes(model.read_bytes()[:-100])
    manifest = (runner or Pipeline(config)).run("all")
    assert ran(manifest) == ["train"]
    assert outputs(config.out_dir, also=("models",)) == before
    # the repaired directory is complete again
    assert ran((runner or Pipeline(config)).run("all")) == []


def test_deleted_tensor_reruns_project(completed_run, tmp_path):
    config = copy_run(completed_run, tmp_path)
    (config.out_dir / "tensors" / "similarity_orthonormal.csv").unlink()
    manifest = Pipeline(config).run("all")
    assert ran(manifest)[0] == "project"
    assert (config.out_dir / "tensors" / "similarity_orthonormal.csv").exists()


def test_analyze_after_lexicon_edit_refuses_stale_tensors(completed_run, tmp_path):
    config = copy_run(completed_run, tmp_path)
    report = outputs(config.out_dir)
    drop_last_line(config.corpora[0].lexicon_path)
    with pytest.raises(PipelineStageError, match="missing or stale"):
        Pipeline(config).run("analyze")
    assert outputs(config.out_dir) == report


def test_no_tensor_outlives_its_project_run(completed_run, tmp_path):
    # with no shared emoji left, analyze must not read the earlier tensor
    config = copy_run(completed_run, tmp_path)
    edit_config(tmp_path / "run" / "config.json", "shared_threshold", 10**9)
    config = load_config(tmp_path / "run" / "config.json")
    Pipeline(config).run("all")
    assert list((config.out_dir / "tensors").iterdir()) == []
    assert not read_report_json(config.out_dir / "report" / "report.json").category_rho


def refuse(*args, **kwargs):
    raise AssertionError("analyze read what project already read")


def keep_west(raw):
    raw["corpora"] = raw["corpora"][:1]


def all_west(raw):
    raw["corpora"][1]["culture"] = "West"


def no_shared_emoji(raw):
    raw["shared_threshold"] = 10**9


@pytest.mark.parametrize("edit, sections", [
    (lambda raw: None, {"category_scc.csv", "country_matrix.csv"}),
    (keep_west, set()),
    (all_west, {"country_matrix.csv"}),
    (no_shared_emoji, set()),
], ids=["two-cultures", "one-corpus", "one-culture", "no-shared-emoji"])
def test_analyze_reads_only_the_handoff(tmp_path, monkeypatch, edit, sections):
    # project hands analyze all it needs: with the readers of streams,
    # models, tensor CSVs and the emoji files made to raise, analyze writes
    # the same report
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=8, runs=2, dim=8, epochs=1)
    raw = json.loads(cfg_path.read_text())
    edit(raw)
    cfg_path.write_text(json.dumps(raw))
    config = load_config(cfg_path)
    Pipeline(config).run("all")
    report_dir = config.out_dir / "report"
    report = {p.name: p.read_bytes() for p in report_dir.iterdir()}
    assert {"category_scc.csv", "country_matrix.csv"} & set(report) == sections
    for name in ("load_model", "read_streams", "count_frequencies", "read_tensor_csv",
                 "load_inventory"):
        monkeypatch.setattr(pipeline, name, refuse)
    assert ran(Pipeline(config).run("analyze")) == ["analyze"]
    assert {p.name: p.read_bytes() for p in report_dir.iterdir()} == report


def assert_only_recorded_files(config) -> None:
    # no temp file or earlier run's file stays behind: each file is the
    # manifest or an artifact a stage entry of the manifest records with its
    # digest
    out = Path(config.out_dir)
    stages = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["stages"]
    recorded = {"manifest.json"}
    for stage in STAGES:
        for rel, digest in stages[stage]["artifacts"].items():
            assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest, rel
            recorded.add(rel)
    files = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert files == recorded
    assert sorted(p.name for p in (out / "models").iterdir()) == \
        sorted(f"{c.corpus_id}.run{r}.vec" for c in config.corpora for r in range(config.runs))


def test_every_output_file_is_a_recorded_artifact(completed_run):
    assert_only_recorded_files(completed_run[1])


def test_smaller_rerun_leaves_no_stale_artifacts(completed_run, tmp_path):
    # dropping the East corpus writes fewer streams, models, report CSVs and
    # charts; those of the earlier run must go
    copy_run(completed_run, tmp_path)
    edit_config(tmp_path / "run" / "config.json", "corpora",
                [c for c in json.loads((tmp_path / "run" / "config.json").read_text())["corpora"]
                 if c["culture"] == "West"])
    config = load_config(tmp_path / "run" / "config.json")
    assert ran(Pipeline(config).run("all")) == list(STAGES)
    assert not (config.out_dir / "streams" / "JP.bin").exists()
    assert not (config.out_dir / "report" / "category_scc.csv").exists()
    assert_only_recorded_files(config)


def test_report_json_round_trip(completed_run, tmp_path):
    tmp, config, _ = completed_run
    path = Path(config.out_dir) / "report" / "report.json"
    report = read_report_json(path)
    assert report.category_rho
    assert report.frequency is not None
    assert report.country is not None
    report.validate()
    # charts and the acceptance tests read these types
    assert report.top5 and all(isinstance(key, tuple) and len(key) == 2
                               for key in report.top5)
    assert ("West", "catA") in report.top5
    assert isinstance(report.country.matrix, np.ndarray)
    assert "warnings" not in json.loads(path.read_text())["frequency"]
    with open(tmp_path / "again.json", "w", encoding="utf-8") as f:
        pipeline.write_report_json(report, f)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_charts_are_well_formed_svg(completed_run):
    tmp, config, manifest = completed_run
    charts_dir = Path(config.out_dir) / "charts"
    emitted = [name for name, f in manifest.stages["report"]["charts"].items() if f]
    assert set(emitted) == {"fig_top_emoji", "fig_category_shares",
                            "fig_country_heatmap", "fig_category_top5",
                            "fig_icon_extremes"}
    for name in emitted:
        root = ET.parse(charts_dir / f"{name}.svg").getroot()
        assert root.tag.endswith("svg")


def test_frequency_csv_rows():
    # corpora in table order, then count descending and emoji; the exact
    # share and the hex codepoints of each emoji
    grin, joy, flag, sushi = "\U0001F600", "\U0001F602", "\U0001F1FA\U0001F1F8", "\U0001F363"
    table = FrequencyTable({"US": Counter({joy: 2, grin: 2, flag: 5}), "JP": Counter({sushi: 1})},
                           {grin: "Smileys", joy: "Smileys", flag: "Flags",
                            sushi: "Uncategorized"})
    files = {}

    @contextmanager
    def open_file(name):
        files[name] = io.StringIO(newline="")
        yield files[name]

    pipeline.write_report_csvs(CorrelationReport(), table, open_file)
    assert list(files) == ["frequency.csv"]
    assert files["frequency.csv"].getvalue().split("\r\n") == [
        "corpus,emoji,codepoints,count,normalized_freq,category",
        f"US,{flag},1F1FA 1F1F8,5,{5 / 9!r},Flags",
        f"US,{grin},1F600,2,{2 / 9!r},Smileys",
        f"US,{joy},1F602,2,{2 / 9!r},Smileys",
        f"JP,{sushi},1F363,1,1.0,Uncategorized",
        ""]


def test_empty_report_opens_no_chart_file():
    opened = []
    written = pipeline.emit_charts(CorrelationReport(), opened.append)
    assert written == dict.fromkeys(["fig_top_emoji", "fig_category_shares",
                                     "fig_country_heatmap", "fig_category_top5",
                                     "fig_icon_extremes"])
    assert opened == []


def test_heatmap_symmetric_cell_colors(completed_run):
    tmp, config, _ = completed_run
    svg = (Path(config.out_dir) / "charts" / "fig_country_heatmap.svg").read_text()
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    cells = [r for r in root.iter(f"{ns}rect")]
    # 2x2 matrix -> 4 cells; fill of (0,1) equals fill of (1,0)
    assert len(cells) == 4
    by_pos = {(float(r.get("x")), float(r.get("y"))): r.get("fill") for r in cells}
    xs = sorted({p[0] for p in by_pos})
    ys = sorted({p[1] for p in by_pos})
    assert by_pos[(xs[1], ys[0])] == by_pos[(xs[0], ys[1])]


def test_chart_expected_element_counts(completed_run):
    tmp, config, _ = completed_run
    svg = (Path(config.out_dir) / "charts" / "fig_top_emoji.svg").read_text()
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    report = read_report_json(Path(config.out_dir) / "report" / "report.json")
    expected_bars = sum(len(v) for v in report.frequency.top_by_culture.values())
    assert len(list(root.iter(f"{ns}rect"))) == expected_bars


def test_missing_culture_group_skips_cross_analytics(tmp_path):
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=8, runs=1,
                                       dim=8, epochs=1)
    raw = json.loads(cfg_path.read_text())
    raw["corpora"] = [c for c in raw["corpora"] if c["culture"] == "West"]
    cfg_path.write_text(json.dumps(raw))
    config = load_config(cfg_path, deterministic=True)
    manifest = Pipeline(config).run("all")
    assert any("culture group" in w for w in manifest.warnings)
    report = read_report_json(Path(config.out_dir) / "report" / "report.json")
    assert not report.category_rho
    # build_report alone gates the tensor sections, and says so in the report
    gate = "missing a culture group; category/icon correlations skipped"
    assert gate in report.warnings and manifest.warnings.count(gate) == 1
    assert report.frequency is not None  # per-corpus frequency still emitted
    # charts backed by empty sections are omitted and noted
    assert manifest.stages["report"]["charts"]["fig_category_top5"] is None
    assert any("chart fig_category_top5 omitted" in w for w in manifest.warnings)


@pytest.fixture(scope="module")
def four_corpus_run(tmp_path_factory):
    """`crossmoji all` on the four-corpus setup at its default budget."""
    config = load_config(write_four_corpus_setup(tmp_path_factory.mktemp("four")))
    Pipeline(config).run("all")
    return config


def test_four_corpus_default_budget_learns(four_corpus_run):
    manifest = json.loads((four_corpus_run.out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert [w for stage in manifest["stages"].values() for w in stage["warnings"]
            if "did not leave its initial loss" in w] == []
    # E1 is tied to catA in both cultures, E2 to catA in the West only
    report = json.loads((four_corpus_run.out_dir / "report" / "report.json")
                        .read_text(encoding="utf-8"))
    assert report["icon"]["scc"][E1] > report["icon"]["scc"][E2]


def test_four_corpora_fill_every_pair_bucket(four_corpus_run):
    # two corpora per culture, so the in-culture buckets run end to end
    config = four_corpus_run
    tensor, _, _ = pipeline.read_handoff(config.out_dir / "handoff.bin", config.culture_of)
    means = {c: tensor.corpus_mean(c) for c in tensor.corpora}
    cross = [("US", "JP"), ("US", "CN"), ("GB", "JP"), ("GB", "CN")]
    buckets = [[("US", "GB")], [("JP", "CN")], cross]
    with open(config.out_dir / "report" / "triples.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))[1:]
    assert [axis for axis, *_ in rows] == list(tensor.axes)
    for i, (_, *cells) in enumerate(rows):
        assert all(cells)
        assert cells == [repr(culture_average([spearman(means[a][i], means[b][i])
                                               for a, b in pairs])) for pairs in buckets]
    with open(config.out_dir / "report" / "country_matrix.csv", newline="",
              encoding="utf-8") as f:
        header, *lines = list(csv.reader(f))
    matrix = {line[0]: dict(zip(header[1:], map(float, line[1:]))) for line in lines}
    report = json.loads((config.out_dir / "report" / "report.json").read_text(encoding="utf-8"))
    assert report["country"]["cross_pair_mean"] == culture_average(
        [matrix[a][b] for a, b in cross])


def test_ingest_failure_names_stage_and_writes_no_stream_file(tmp_path):
    # ingest reads every input before it writes: a missing second input
    # fails it before the first corpus's streams are written
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=5, runs=1,
                                       dim=8, epochs=1)
    raw = json.loads(cfg_path.read_text())
    raw["corpora"][1]["input"] = "missing.jsonl"
    cfg_path.write_text(json.dumps(raw))
    config = load_config(cfg_path)
    with pytest.raises(PipelineStageError, match="stage 'ingest' failed"):
        Pipeline(config).run("all")
    out = Path(config.out_dir)
    assert list(out.glob("streams/*")) == []
    assert not (out / "counts.json").exists()
    entry = json.loads((out / "manifest.json").read_text())["stages"]["ingest"]
    assert entry["key"] is None and not entry["completed"] and entry["artifacts"] == {}


def test_failed_stage_artifacts_are_deleted_by_next_run(tmp_path, monkeypatch):
    # ingest fails writing JP's streams, once US's are whole; its manifest
    # entry lists them, so the next run deletes them although its config no
    # longer has US
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=5, runs=1,
                                       dim=8, epochs=1)
    write, written = pipeline.write_streams, []

    def failing(f, types):
        written.append(types)
        if len(written) == 2:
            cut_off()
        write(f, types)

    monkeypatch.setattr(pipeline, "write_streams", failing)
    with pytest.raises(PipelineStageError, match="stage 'ingest' failed: disk full"):
        Pipeline(load_config(cfg_path)).run("all")
    monkeypatch.undo()
    out = tmp_path / "out"
    assert (out / "streams" / "US.bin").exists()
    assert not (out / "streams" / "JP.bin").exists()
    entry = json.loads((out / "manifest.json").read_text())["stages"]["ingest"]
    assert entry["key"] is None and not entry["completed"]
    assert entry["artifacts"].keys() == {"streams/US.bin", "streams/JP.bin"}
    assert entry["artifacts"]["streams/JP.bin"] is None
    edit_config(cfg_path, "corpora", [
        {"id": "JP", "culture": "East", "input": "east.jsonl", "lang": "en",
         "country": "JP", "lexicon": "demo.dic"}])
    config = load_config(cfg_path)
    assert ran(Pipeline(config).run("all")) == list(STAGES)
    assert not (out / "streams" / "US.bin").exists()
    assert_only_recorded_files(config)


def cut_off(*args):
    raise OSError("disk full")


def fail_handoff(monkeypatch) -> str:
    """project: the hand-off write raises after its JSON line, once the
    tensor CSV is whole."""
    write = pipeline.write_arrays

    def failing(f, meta, arrays):
        write(f, meta, [])
        cut_off()

    monkeypatch.setattr(pipeline, "write_arrays", failing)
    return "handoff.bin"


class FailingCategories(dict):
    """A category map whose every lookup fails as a full disk would."""

    __getitem__ = cut_off


def fail_icon_table(monkeypatch) -> str:
    """analyze: the table's category lookup raises only while the report
    CSVs are written, so `category_scc.csv` is whole and `icon_scc.csv` is
    not."""
    write = pipeline.write_report_csvs

    def failing(report, table, open_file):
        write(report, dataclasses.replace(table, categories=FailingCategories()), open_file)

    monkeypatch.setattr(pipeline, "write_report_csvs", failing)
    return "report/icon_scc.csv"


def fail_second_chart(monkeypatch) -> str:
    """report: the second chart file raises part-way through its write."""
    emit = pipeline.emit_charts

    def failing(report, open_file):
        opened = []

        @contextmanager
        def open_failing(name):
            with open_file(name) as f:
                opened.append(name)
                if len(opened) == 2:
                    f.write("<svg")
                    cut_off()
                yield f

        return emit(report, open_failing)

    monkeypatch.setattr(pipeline, "emit_charts", failing)
    return "charts/fig_category_shares.svg"


@pytest.mark.parametrize("stage, fail", [
    ("project", fail_handoff), ("analyze", fail_icon_table), ("report", fail_second_chart),
], ids=["project", "analyze", "report"])
def test_stage_failing_after_its_first_artifact_leaves_nothing_unrecorded(
        tmp_path, monkeypatch, stage, fail):
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=8, runs=1,
                                       dim=8, epochs=1)
    failing_path = fail(monkeypatch)
    with pytest.raises(PipelineStageError, match=f"stage '{stage}' failed: disk full"):
        Pipeline(load_config(cfg_path)).run("all")
    out = tmp_path / "out"
    assert list(out.rglob("*.tmp")) == []
    assert not (out / failing_path).exists()
    monkeypatch.undo()
    # the files the failed stage wrote go with the next run, whose config
    # no longer asks for them
    edit_config(cfg_path, "corpora", [c for c in json.loads(cfg_path.read_text())["corpora"]
                                      if c["culture"] == "West"])
    config = load_config(cfg_path)
    assert ran(Pipeline(config).run("all")) == list(STAGES)
    assert_only_recorded_files(config)


def test_failed_stage_keeps_the_warnings_it_raised(tmp_path, monkeypatch):
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=8, runs=1, dim=8, epochs=1)
    edit_config(cfg_path, "shared_threshold", 10**6)
    fail_handoff(monkeypatch)
    with pytest.raises(PipelineStageError, match="stage 'project' failed: disk full"):
        Pipeline(load_config(cfg_path)).run("all")
    saved = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    warning = "no emoji passes the shared-set threshold 1000000"
    assert saved["stages"]["project"]["warnings"] == [warning]
    assert saved["warnings"] == [w for name in STAGES
                                 for w in saved["stages"][name].get("warnings", [])]


def test_failed_rerun_keeps_the_later_stages_files_recorded(completed_run, tmp_path, monkeypatch):
    # a re-run whose project fails runs no later stage; their entries keep
    # the files they last wrote, so a smaller run after it deletes the
    # report CSVs and charts it no longer writes
    copy_run(completed_run, tmp_path)
    cfg_path = tmp_path / "run" / "config.json"
    edit_config(cfg_path, "shared_threshold", completed_run[1].shared_threshold + 1)
    fail_handoff(monkeypatch)
    with pytest.raises(PipelineStageError, match="stage 'project' failed: disk full"):
        Pipeline(load_config(cfg_path)).run("all")
    monkeypatch.undo()
    edit_config(cfg_path, "corpora", [c for c in json.loads(cfg_path.read_text())["corpora"]
                                      if c["culture"] == "West"])
    config = load_config(cfg_path)
    assert ran(Pipeline(config).run("all")) == list(STAGES)
    assert not (config.out_dir / "report" / "category_scc.csv").exists()
    assert_only_recorded_files(config)


def test_interrupted_run_keeps_the_stages_it_completed(tmp_path, monkeypatch):
    # the manifest is saved after each stage that runs: when report starts,
    # the file already records ingest to analyze as complete, so the next
    # run runs report alone
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=8, runs=1, dim=8, epochs=1)
    config = load_config(cfg_path)
    saved = {}

    def interrupt(self):
        saved.update(json.loads((self.out / "manifest.json").read_text(encoding="utf-8")))
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(Pipeline, "stage_report", interrupt)
        with pytest.raises(KeyboardInterrupt):
            Pipeline(config).run("all")
    assert [s for s, info in saved["stages"].items() if info["completed"]] == list(STAGES[:-1])
    assert ran(Pipeline(config).run("all")) == ["report"]
    assert_only_recorded_files(config)


def test_duplicate_token_set_categories_dropped_not_fatal(tmp_path):
    # two lexicon categories resolving to the same tokens would be linearly
    # dependent; the pipeline must drop the duplicate and continue
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=8, runs=1,
                                       dim=8, epochs=1)
    dic = tmp_path / "demo.dic"
    lines = dic.read_text().splitlines()
    second_percent = [i for i, l in enumerate(lines) if l == "%"][1]
    lines.insert(second_percent, "7\tcatAclone")
    catA_words = [l.split("\t")[0] for l in lines if l.endswith("\t1")]
    lines.extend(f"{w}\t7" for w in catA_words)
    dic.write_text("\n".join(lines) + "\n")
    config = load_config(cfg_path, deterministic=True)
    manifest = Pipeline(config).run("all")
    assert any(w.startswith("dropped categories: catAclone (") for w in manifest.warnings)
    assert "catAclone" not in manifest.stages["project"]["axes"]
    assert "catA" in manifest.stages["project"]["axes"]


def test_union_category_dropped_not_fatal(tmp_path):
    # a category that is the union of two others (LIWC's `affect` of
    # `posemo` and `negemo`) makes the later of them dependent in every run
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=8, runs=2,
                                       dim=8, epochs=1)
    dic = tmp_path / "demo.dic"
    lines = dic.read_text().splitlines()
    lines.insert([i for i, l in enumerate(lines) if l == "%"][1], "7\tcatAB")
    lines.extend([f"{l.split()[0]}\t7" for l in lines if l.endswith(("\t1", "\t2"))])
    dic.write_text("\n".join(lines) + "\n")
    manifest = Pipeline(load_config(cfg_path)).run("all")
    project = manifest.stages["project"]
    assert "catAB" in project["schema"] and "catB" in project["schema"]
    assert project["axes"][:6] == ["catA", "catAB", "catC", "catD", "catE", "catF"]
    saved = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    dropped = [w for w in saved["warnings"] if w.startswith("dropped categories: ")]
    assert len(dropped) == 1 and dropped[0].startswith(
        "dropped categories: catB (linearly dependent on the kept categories in US, ")


# --- project reads one model at a time ----------------------------------------------

def write_project_fixture(tmp_path: Path) -> Path:
    """Two corpora, three runs.  Emoji X is shared, but JP has it once, below
    min_count, so JP's vocabulary lacks it; the Ekman adjective "cheery" is
    in US's vocabulary alone."""
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=10, runs=3, dim=8, epochs=1)
    (tmp_path / "ekman.json").write_text(json.dumps({"en": {"joy": ["glad", "cheery"]}}))
    raw = json.loads(cfg_path.read_text())
    raw["ekman_words"] = "ekman.json"
    cfg_path.write_text(json.dumps(raw))
    extra = {"west.jsonl": ("US", ["glad cheery \U0001F604 glad"] * 4),
             "east.jsonl": ("JP", ["glad filler0 \U0001F604"] + ["glad filler1 filler2"] * 3)}
    for name, (country, texts) in extra.items():
        with open(tmp_path / name, "a", encoding="utf-8") as f:
            for i, text in enumerate(texts):
                f.write(json.dumps({"post_id": f"extra{i}", "text": text, "country": country,
                                    "lang": "en"}, ensure_ascii=False) + "\n")
    return cfg_path


def test_project_holds_one_full_model_at_a_time_with_unchanged_outputs(tmp_path, monkeypatch):
    config = load_config(write_project_fixture(tmp_path))
    finalizers, alive = [], []

    def tracked_load(path, vocab):
        model = load_model(path, vocab)
        finalizers.append(weakref.finalize(model.syn0, lambda: None))
        alive.append(sum(f.alive for f in finalizers))  # full matrices alive after this load
        return model

    monkeypatch.setattr(pipeline, "load_model", tracked_load)
    manifest = Pipeline(config).run("all")
    assert alive == [1] * 6
    assert "1 shared emoji missing from some corpus vocabulary, excluded from projections" \
        in manifest.warnings
    assert "Ekman axes excluded (word missing in some corpus): ekman:joy:adjective" \
        in manifest.warnings
    assert "ekman:joy:noun" in manifest.stages["project"]["axes"]
    out = Path(config.out_dir)
    names = ("handoff.bin", "tensors/similarity_orthonormal.csv")
    cut = {name: (out / name).read_bytes() for name in names}
    rows = manifest.stages["project"]["rows"]
    # the same stage on the whole models writes the same bytes
    monkeypatch.setattr(EmbeddingModel, "restrict", lambda self, tokens: self)
    whole = Pipeline(config).run("project").stages["project"]["rows"]
    assert {name: (out / name).read_bytes() for name in names} == cut
    assert list(rows) == list(whole) == ["US", "JP"]
    assert all(0 < rows[c] < whole[c] for c in rows)


def counted_keys(monkeypatch) -> list:
    calls = []
    key = Pipeline._key
    monkeypatch.setattr(Pipeline, "_key", lambda self, stage: calls.append(stage)
                        or key(self, stage))
    return calls


def test_each_stage_key_computed_once(tmp_path, monkeypatch):
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=5, runs=1,
                                       dim=8, epochs=1)
    config = load_config(cfg_path)
    calls = counted_keys(monkeypatch)
    assert ran(Pipeline(config).run("all")) == list(STAGES)
    assert calls == list(STAGES)  # cold
    calls.clear()
    assert ran(Pipeline(config).run("all")) == []
    assert calls == list(STAGES)  # warm
    calls.clear()
    Pipeline(config).run("analyze")
    # a single stage checks every other stage once, for its manifest record
    assert calls == list(STAGES)


def test_config_validation_errors(tmp_path):
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=5)
    raw = json.loads(cfg_path.read_text())
    raw["corpora"][0]["culture"] = "North"
    cfg_path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="culture"):
        load_config(cfg_path)


def test_config_with_byte_order_mark_loads_as_without(tmp_path):
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=5)
    assert load_config(bom_copy(cfg_path)) == load_config(cfg_path)


def test_deterministic_flag_overrides_mode(tmp_path):
    # training is always deterministic, so the removed `mode` and `threads`
    # keys are rejected by name instead of being overridden or dropped
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=5)
    for key, value in (("mode", "parallel"), ("threads", 8)):
        raw = json.loads(cfg_path.read_text())
        raw["training"][key] = value
        cfg_path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=f"'{key}'"):
            load_config(cfg_path, deterministic=True)


WEST = {"id": "US", "culture": "West", "input": "west.jsonl", "lang": "en", "country": "US",
        "lexicon": "demo.dic"}


@pytest.mark.parametrize("key, value, match", [
    ("dimm", 50, "unknown training key"),
    ("dim", 0, "dim must be >= 1"),
    pytest.param("dim", "fifty", r"training\.dim must be an integer",
                 id="dim-fifty-bad training config"),
    ("runs", "three", "runs must be an integer"),
    ("top_k", 2.5, "top_k must be an integer"),
    ("shared_threshold", True, "shared_threshold must be an integer"),
    ("top_k", 0, "top_k must be >= 1"),
    pytest.param(None, '{"seed": 1,', "not valid JSON", id="unfinished-json"),
    pytest.param(None, '{"seed": ' + "9" * 5_000 + "}", "not valid JSON", id="huge-int"),
    pytest.param(None, "[" * 100_000 + "]" * 100_000, "not valid JSON", id="deep"),
    pytest.param(None, "[1, 2]", "must be a JSON object", id="json-list"),
    ("training", 5, "training must be a JSON object"),
    ("corpora", 5, "corpora must be a JSON list"),
    pytest.param("corpora", [5], r"corpora\[0\] must be a JSON object", id="corpora-entry-5"),
    pytest.param(None, '{"seed": 2.7}', "seed must be an integer", id="seed-2.7"),
    pytest.param(None, '{"seed": true}', "seed must be an integer", id="seed-true"),
    ("min_count", 2.9, "min_count must be an integer"),
    pytest.param(None, '{"min_count": "3"}', r"unknown config key\(s\) 'min_count'",
                 id="top-level-min_count-3"),
    pytest.param("dim", 8.5, r"training\.dim must be an integer, got 8\.5$",
                 id="dim-8.5-bad training config: dim must be of type int"),
    pytest.param("epochs", True, r"training\.epochs must be an integer, got true$",
                 id="epochs-True-bad training config: epochs must be of type int"),
    pytest.param("lr0", False, r"training\.lr0 must be a number, got false$",
                 id="lr0-False-bad training config: lr0 must be of type float"),
    pytest.param("subsample", "0", r'training\.subsample must be a number, got "0"$',
                 id="subsample-0-bad training config: subsample must be of type float"),
    pytest.param("corpora", [WEST | {"pre_tokenized": "false"}],
                 "pre_tokenized must be true or false", id="pre_tokenized-false-string"),
    pytest.param("corpora", [WEST | {"input": 5}], r"corpora\[0\]\.input must be a JSON string",
                 id="input-5"),
    pytest.param("corpora", [WEST | {"lexicon": None}],
                 r"corpora\[0\]\.lexicon must be a JSON string, got null", id="lexicon-null"),
    pytest.param("corpora", [WEST | {"id": 5}], r"corpora\[0\]\.id must be a JSON string",
                 id="id-5"),
    pytest.param("corpora", [WEST | {"lang": 7}], r"corpora\[0\]\.lang must be a JSON string",
                 id="lang-7"),
    pytest.param("top-k", 3, r"unknown config key\(s\) 'top-k'; allowed: .*\btop_k\b",
                 id="top-k-3"),
    pytest.param("corpora", [WEST | {"pretokenized": True}],
                 r"unknown corpora\[0\] key\(s\) 'pretokenized'; allowed: .*\bpre_tokenized\b",
                 id="pretokenized-true"),
    pytest.param("out_dir", 7, "out_dir must be a JSON string, got 7", id="out_dir-7"),
    pytest.param("emoji_data", 5, "emoji_data must be a JSON string, got 5", id="emoji_data-5"),
    # an absent key takes the default; null is a value of the wrong type
    pytest.param("emoji_data", None, "emoji_data must be a JSON string, got null",
                 id="emoji_data-null"),
    pytest.param(None, '{"min_count": 3}', r"unknown config key\(s\) 'min_count'",
                 id="top-level-min_count-int"),
    pytest.param("corpora", [{k: v for k, v in WEST.items() if k != "lang"}],
                 r"corpora\[0\]\.lang is missing", id="lang-missing"),
    # an integer or number of the right type, out of range
    ("min_count", 0, r"training\.min_count must be >= 1"),
    ("min_count", -3, r"training\.min_count must be >= 1"),
    ("subsample", -0.5, "bad training config: subsample must be >= 0"),
    ("shared_threshold", -1, "shared_threshold must be >= 0"),
    # the top-level seed sets TrainParams.seed, which rejects it before any stage runs
    ("seed", -3, "bad training config: seed must be >= 0"),
])
def test_bad_training_config_is_config_error(tmp_path, key, value, match):
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=5)
    edit_config(cfg_path, key, value)
    with pytest.raises(ConfigError, match=match):
        load_config(cfg_path)


@pytest.mark.parametrize("obj, key", [(obj, key) for obj, keys in SCHEMA.items() for key in keys])
def test_every_config_key_rejects_a_value_of_the_wrong_json_type(tmp_path, obj, key):
    # drawn from the schema, so a field added later is checked without a new case
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=5)
    raw = json.loads(cfg_path.read_text())
    kind = SCHEMA[obj][key][2]
    wrong = 7 if kind in (str, Path) else "7"
    {"config": raw, "training": raw["training"], "corpora": raw["corpora"][0]}[obj][key] = wrong
    cfg_path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match=rf"{re.escape(key)} must be (an integer|a number|"
                       rf"true or false|a JSON (string|object|list)), got {json.dumps(wrong)}$"):
        load_config(cfg_path)


def corpus_vocabulary(config, corpus_id: str):
    """The vocabulary train built for the corpus, from its stream file."""
    types = read_streams(Path(config.out_dir) / "streams" / f"{corpus_id}.bin")
    return build_vocabulary(types, config.min_count)


def within_rounding(items: int, seconds: float, per_s: int) -> bool:
    # seconds are rounded to the millisecond, the rate is not
    return items / (seconds + 5e-4) - 1 <= per_s <= items / max(seconds - 5e-4, 1e-9) + 1


def test_each_model_is_seeded_by_its_corpus_and_run(tmp_path):
    # corpus k, run r trains with seed + k * runs + r: no two models share a seed
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=3, runs=3, dim=8, epochs=1,
                                       seed=11)
    config = load_config(cfg_path)
    runner = Pipeline(config)
    runner.run("ingest")
    runner.run("train")
    for k, spec in enumerate(config.corpora):
        vocab = corpus_vocabulary(config, spec.corpus_id)
        for r in range(config.runs):
            model = load_model(runner.model_path(spec.corpus_id, r), vocab)
            assert model.params.seed == 11 + k * 3 + r, (spec.corpus_id, r)


def test_manifest_records_train_throughput_per_run(completed_run):
    # tokens per run are the in-vocabulary tokens times epochs, and bytes the
    # size of the run's model file; ingest records posts per second per
    # corpus, and both stages their workers
    _, config, manifest = completed_run
    ingest, train = manifest.stages["ingest"], manifest.stages["train"]
    for corpus_id, info in train["training"].items():
        vocab = corpus_vocabulary(config, corpus_id)
        tokens = vocab.kept_tokens * config.training.epochs
        assert len(info["runs"]) == config.runs
        for r, run in enumerate(info["runs"]):
            assert run["seconds"] > 0
            assert within_rounding(tokens, run["seconds"], run["tokens_per_s"])
            path = Path(config.out_dir) / "models" / f"{corpus_id}.run{r}.vec"
            assert run["bytes"] == path.stat().st_size
    assert list(ingest["throughput"]) == [c.corpus_id for c in config.corpora]
    for corpus_id, info in ingest["throughput"].items():
        assert info["records"] == ingest["counts"][corpus_id]["posts_read"] > 0
        assert info["seconds"] > 0
        assert within_rounding(info["records"], info["seconds"], info["posts_per_s"])
    # one shard row per byte range: the ranges of each file cover it in order
    cpus = pipeline.usable_cpus()
    shards = ingest["shards"]
    for spec in config.corpora:
        rows = [r for r in shards if r["file"] == os.path.relpath(
            spec.input_path.resolve(), Path(config.out_dir).resolve())]
        assert 1 <= len(rows) <= cpus
        assert [r["start"] for r in rows] == [0] + [r["end"] for r in rows[:-1]]
        assert rows[-1]["end"] == spec.input_path.stat().st_size
        assert sum(r["lines"] for r in rows) == ingest["counts"][spec.corpus_id]["posts_read"]
        assert all(r["seconds"] >= 0 for r in rows)
    assert ingest["workers"] == min(len(shards), cpus)
    assert train["workers"] == min(len(config.corpora) * config.runs, cpus)


def test_corpora_reading_one_file_share_its_ingest_seconds(tmp_path):
    # ingest times its jobs, one per byte range of a file, and the corpora
    # reading a file share its parse, so they share its seconds
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=60)
    raw = json.loads(cfg_path.read_text(encoding="utf-8"))
    raw["corpora"].append(raw["corpora"][0] | {"id": "US2", "culture": "East"})
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    config = load_config(cfg_path)
    ingest = Pipeline(config).run("ingest").stages["ingest"]
    throughput = ingest["throughput"]
    assert throughput["US"] == throughput["US2"]
    for spec in config.corpora:
        info = throughput[spec.corpus_id]
        rows = [r for r in ingest["shards"] if r["file"] == config.relative(spec.input_path)]
        assert abs(info["seconds"] - sum(r["seconds"] for r in rows)) <= 5e-4 * (len(rows) + 1)
        assert within_rounding(info["records"], info["seconds"], info["posts_per_s"])


def test_manifest_records_distinct_chunks_and_kept_rows(completed_run):
    _, config, manifest = completed_run
    # every post of the fixture is kept and not pre-tokenized
    for row in manifest.stages["ingest"]["shards"]:
        with open(Path(config.out_dir) / row["file"], "rb") as f:
            f.seek(row["start"])
            data = f.read(row["end"] - row["start"])
        lines = list(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert row["lines"] == len(lines)
        assert row["distinct_chunks"] == len({
            chunk for line in lines for chunk in normalize_text(json.loads(line)["text"]).split()})
    rows = manifest.stages["project"]["rows"]
    assert list(rows) == [spec.corpus_id for spec in config.corpora]
    for corpus_id, n in rows.items():
        assert 0 < n < len(corpus_vocabulary(config, corpus_id))


def test_manifest_paths_do_not_depend_on_where_the_run_is(completed_run, tmp_path):
    # the same inputs under directory names of different lengths: every
    # path is recorded relative to the output directory
    saved = []
    for name in ("a", "a-longer-name"):
        shutil.copytree(completed_run[0], tmp_path / name)
        config = load_config(tmp_path / name / "config.json")
        shutil.rmtree(config.out_dir)
        Pipeline(config).run("all")
        saved.append(json.loads((config.out_dir / "manifest.json").read_text(encoding="utf-8")))
    assert saved[0]["config"] == saved[1]["config"]
    assert [c["input"] for c in saved[0]["config"]["corpora"]] == [
        "../west.jsonl", "../east.jsonl"]
    files = [[row["file"] for row in manifest["stages"]["ingest"]["shards"]]
             for manifest in saved]
    assert files[0] == files[1] and set(files[0]) == {"../west.jsonl", "../east.jsonl"}


def test_fixture_stream_files_store_uint8(completed_run):
    # under 256 types and posts of 4 to 7 tokens: both arrays fit in one byte
    for spec in completed_run[1].corpora:
        with open(Path(completed_run[1].out_dir) / "streams" / f"{spec.corpus_id}.bin", "rb") as f:
            data = f.read()
        assert data.count(b"'descr': '|u1'") == 2, spec.corpus_id


def test_stage_bytes_sum_to_the_output_directory(completed_run, tmp_path):
    out = Path(completed_run[1].out_dir)
    size = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    for manifest in (completed_run[2], Pipeline(copy_run(completed_run, tmp_path)).run("all")):
        stage_bytes = [manifest.stages[stage]["bytes"] for stage in STAGES]
        assert all(n > 0 for n in stage_bytes)
        assert sum(stage_bytes) == size - (out / "manifest.json").stat().st_size


def test_run_that_does_not_learn_warns_once_per_run(completed_run, tmp_path):
    # posts of words drawn evenly from 400 types, trained for one epoch, as
    # on the `feed` workload: every run ends at the untrained loss
    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(400)]
    with open(tmp_path / "feed.jsonl", "w", encoding="utf-8") as f:
        for i in range(1500):
            f.write(json.dumps({"post_id": str(i), "text": " ".join(rng.choice(words, 6)),
                                "country": "US", "lang": "en"}) + "\n")
    write_demo_lexicon(tmp_path / "demo.dic")
    (tmp_path / "config.json").write_text(json.dumps({
        "runs": 2, "training": {"dim": 16, "epochs": 1, "negatives": 5, "min_count": 3},
        "corpora": [{"id": "US", "culture": "West", "input": "feed.jsonl", "lang": "en",
                     "country": "US", "lexicon": "demo.dic"}]}), encoding="utf-8")
    config = load_config(tmp_path / "config.json")
    manifest = Pipeline(config).run("all")
    training = manifest.stages["train"]["training"]["US"]
    untrained = [run["untrained_loss"] for run in training["runs"]]
    # with 400 types few negatives clash with their center
    assert all(0.99 * 6 * math.log(2) < u <= 6 * math.log(2) for u in untrained)
    warned = [w for w in manifest.warnings if "did not leave its initial loss" in w]
    assert warned == [
        f"run did not leave its initial loss: corpus US run {r}, last epoch loss "
        f"{losses[-1]:.4f}, untrained loss {u:.4f}"
        for r, (losses, u) in enumerate(zip(training["epoch_losses"], untrained))]
    assert Pipeline(config).run("all").warnings == manifest.warnings  # restored once
    # the planted fixture's 48 types: some negatives clash with their center
    trained = completed_run[2].stages["train"]["training"]
    assert all(math.log(2) < run["untrained_loss"] < 5 * math.log(2)
               for entry in trained.values() for run in entry["runs"])


@pytest.mark.parametrize("lr0, warns", [(1e-7, True), (0.1, False)])
def test_run_on_a_small_vocabulary_warns_when_it_does_not_learn(tmp_path, lr0, warns):
    # at a learning rate that moves nothing, masked clashes put the loss
    # below (1 + K) ln 2, but at the kernel's own untrained loss
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=25, runs=2, dim=16, epochs=2)
    edit_config(cfg_path, "lr0", lr0)
    edit_config(cfg_path, "lr_min", lr0 / 10)
    manifest = Pipeline(load_config(cfg_path)).run("all")
    warned = [w for w in manifest.warnings if "did not leave its initial loss" in w]
    every_run = [f"run did not leave its initial loss: corpus {c} run {r}"
                 for c in ("US", "JP") for r in range(2)]
    assert [w.split(",")[0] for w in warned] == (every_run if warns else [])
    for entry in manifest.stages["train"]["training"].values():
        assert all(losses[-1] < 0.99 * 5 * math.log(2) for losses in entry["epoch_losses"])


@pytest.mark.parametrize("lr0, diverges", [(0.25, True), (0.1, False)])
def test_run_that_diverges_warns_once_per_run(tmp_path, monkeypatch, recwarn, lr0, diverges):
    # at lr0 0.25 the losses climb past 1,000 while the parameters stay
    # finite, and exp overflows in `_sigmoid` unreported
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 1)  # trains here, under recwarn
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=25, runs=2, dim=16, epochs=2)
    edit_config(cfg_path, "lr0", lr0)
    manifest = Pipeline(load_config(cfg_path)).run("all")
    diverged = [f"run diverged: corpus {c} run {r}, last epoch loss {losses[-1]:.4f}, "
                f"untrained loss {run['untrained_loss']:.4f}"
                for c, entry in manifest.stages["train"]["training"].items()
                for r, (losses, run) in enumerate(zip(entry["epoch_losses"], entry["runs"]))]
    assert len(diverged) == 4
    assert [w for w in manifest.warnings if w.startswith("run ")] == (diverged if diverges else [])
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_stages_that_run_record_their_peak_memory(completed_run, tmp_path):
    pytest.importorskip("resource")
    _, config, manifest = completed_run
    peaks = [manifest.stages[stage]["max_rss_mb"] for stage in STAGES]
    assert all(set(peak) == {"self", "workers"} for peak in peaks)
    assert all(peak["self"] > 1 and peak["workers"] >= 0 for peak in peaks)
    selfs = [peak["self"] for peak in peaks]
    assert selfs == sorted(selfs)  # a peak so far never falls
    # a skipped stage ran in no process of this run
    again = Pipeline(dataclasses.replace(config, out_dir=tmp_path / "out"))
    shutil.copytree(config.out_dir, tmp_path / "out")
    assert not any("max_rss_mb" in entry for entry in again.run("all").stages.values())


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc")
def test_max_rss_self_is_this_process_not_the_one_that_exec_d_it():
    # a process holding 120 MB execs a fresh Python: Linux carries its
    # ru_maxrss over, but not its resident-set high-water mark
    exec_python = ("import os, sys; held = b'x' * 120_000_000; os.execv(sys.executable, "
                   "[sys.executable, '-c', 'import json; from crossmoji.pipeline import max_rss; "
                   "print(json.dumps(max_rss()))'])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", exec_python], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert json.loads(out)["max_rss_mb"]["self"] < 100


# --- worker processes ------------------------------------------------------------

def test_one_and_two_workers_give_identical_outputs(tmp_path, monkeypatch):
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=15, runs=2,
                                       dim=12, epochs=2)
    results = {}
    for cpus in (1, 2):
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
        config = load_config(cfg_path, out_dir=str(tmp_path / f"cpus{cpus}"))
        manifest = Pipeline(config).run("all")
        assert manifest.stages["ingest"]["workers"] == cpus
        assert manifest.stages["train"]["workers"] == cpus
        results[cpus] = outputs(config.out_dir, also=("models", "streams"))
    assert results[1] == results[2]


def test_streams_and_counts_identical_at_any_shard_count(tmp_path, monkeypatch):
    # two corpora read one file with every kind of line end, blank and
    # malformed lines; cut into two shards, or after every line feed, it
    # gives the bytes one shard gives
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=3)
    write_mixed_feed(tmp_path / "mixed.jsonl")
    raw = json.loads(cfg_path.read_text())
    for corpus in raw["corpora"]:
        corpus["input"] = "mixed.jsonl"
    cfg_path.write_text(json.dumps(raw))
    line_ranges = pipeline.line_ranges
    results = {}
    for cpus, parts in ((1, None), (2, None), (2, 10**6)):
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
        if parts:
            monkeypatch.setattr(pipeline, "line_ranges",
                                lambda path, _: line_ranges(path, parts))
        config = load_config(cfg_path, out_dir=str(tmp_path / f"cpus{cpus}-{parts}"))
        ingest = Pipeline(config).run("ingest").stages["ingest"]
        assert len(ingest["shards"]) == (cpus if not parts else
                                         (tmp_path / "mixed.jsonl").read_bytes().count(b"\n") + 1)
        assert ingest["workers"] == cpus
        out = config.out_dir
        results[cpus, parts] = {p.relative_to(out).as_posix(): p.read_bytes()
                                for p in [out / "counts.json", *(out / "streams").iterdir()]}
    assert results[1, None] == results[2, None] == results[2, 10**6]
    assert len(results[1, None]) == 3
    counts = json.loads(results[1, None]["counts.json"])
    assert {c: (n["posts_read"], n["parse_errors"], n["streams_written"])
            for c, n in counts.items()} == {"US": (28, 6, 9), "JP": (28, 6, 7)}


@pytest.mark.parametrize("feed", [False, True], ids=["two-culture", "mixed-feed"])
def test_project_emoji_counts_equal_count_frequencies_of_token_streams(tmp_path, feed):
    # project counts emoji from the stream files' type tables; the same
    # posts as token streams give the same table, key order included
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=8, runs=1, dim=8, epochs=1)
    if feed:
        # the fixture's posts first, so that the lexicon categories have
        # tokens, and then the mixed feed, which has no final line end
        mixed = write_mixed_feed(tmp_path / "mixed.jsonl")
        mixed.write_bytes(b"".join((tmp_path / name).read_bytes()
                                   for name in ("west.jsonl", "east.jsonl", "mixed.jsonl")))
        raw = json.loads(cfg_path.read_text())
        for corpus in raw["corpora"]:
            corpus["input"] = "mixed.jsonl"
        cfg_path.write_text(json.dumps(raw))
    config = load_config(cfg_path)
    Pipeline(config).run("all")
    inventory = load_default_inventory()
    _, table, _ = pipeline.read_handoff(config.out_dir / "handoff.bin", config.culture_of)
    want = count_frequencies({spec.corpus_id: ingest_handle(spec, inventory)[0]
                              for spec in config.corpora}, inventory)
    assert all(want.total(c) for c in want.corpora)
    assert ({c: list(n.items()) for c, n in table.counts.items()}
            == {c: list(n.items()) for c, n in want.counts.items()})
    assert list(table.counts) == list(want.counts)
    assert table.categories == want.categories


def test_undecodable_lines_are_parse_errors_not_a_failed_ingest(tmp_path):
    # a byte that is not UTF-8 and a lone surrogate escape each cost their
    # line, counted as a parse error; they used to fail the stage (the
    # first on decoding the shard, the second on writing the stream file)
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=5, runs=1, dim=8)
    clean = Pipeline(load_config(cfg_path, out_dir=str(tmp_path / "clean"))).run("ingest")
    west = tmp_path / "west.jsonl"
    west.write_bytes(west.read_bytes()
                     + b'{"post_id": "b1", "text": "caf\xff ok", "country": "US", "lang": "en"}\n'
                     + b'{"post_id": "b2", "text": "moneyish \\ud800 cashish", '
                       b'"country": "US", "lang": "en"}\n')
    config = load_config(cfg_path, out_dir=str(tmp_path / "dirty"))
    dirty = Pipeline(config).run("ingest")
    assert dirty.stages["ingest"]["completed"]
    before, after = (m.stages["ingest"]["counts"]["US"] for m in (clean, dirty))
    assert after["parse_errors"] == before["parse_errors"] + 2
    assert after["posts_read"] == before["posts_read"] + 2
    for key in set(before) - {"parse_errors", "posts_read"}:
        assert after[key] == before[key], key
    assert dirty.stages["ingest"]["counts"]["JP"] == clean.stages["ingest"]["counts"]["JP"]
    assert ((tmp_path / "dirty/streams/US.bin").read_bytes()
            == (tmp_path / "clean/streams/US.bin").read_bytes())


def test_directory_ingested_with_text_streams_reingests(completed_run, tmp_path, monkeypatch):
    # an output directory ingested by code that wrote text streams, under
    # the ingest key of that code.  Ingest re-runs and writes the same
    # stream files, so the later stages stay complete.
    config = copy_run(completed_run, tmp_path)
    out = config.out_dir
    before = outputs(out, also=("models", "streams"))
    with monkeypatch.context() as m:
        edit_module(m, "fileio.py")
        old_key = Pipeline(config)._key("ingest")
    artifacts = {}
    for spec in config.corpora:
        (out / "streams" / f"{spec.corpus_id}.bin").unlink()
        text = out / "streams" / f"{spec.corpus_id}.tokens"
        text.write_bytes("".join(f"{s.post_id}\t{' '.join(s.tokens)}\n" for s in
                                 ingest_handle(spec, load_default_inventory())[0]).encode())
        artifacts[f"streams/{spec.corpus_id}.tokens"] = hashlib.sha256(
            text.read_bytes()).hexdigest()
    manifest = json.loads((out / "manifest.json").read_text())
    ingest = manifest["stages"]["ingest"]
    artifacts["counts.json"] = ingest["artifacts"]["counts.json"]
    ingest |= {"key": old_key, "artifacts": artifacts}
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert incomplete(config)[0] == "ingest"
    assert ran(Pipeline(config).run("all")) == ["ingest"]
    assert not list((out / "streams").glob("*.tokens"))
    assert outputs(out, also=("models", "streams")) == before
    assert_only_recorded_files(config)


def encode_token_loop(streams, vocab):
    """What train encoded from text streams before: one id per
    in-vocabulary token, streams without one dropped."""
    ids, lengths = [], []
    for stream in streams:
        sentence = [vocab.index[t] for t in stream.tokens if t in vocab.index]
        if sentence:
            ids.extend(sentence)
            lengths.append(len(sentence))
    return np.array(ids, dtype=np.int32), np.array(lengths, dtype=np.int64)


def test_train_input_from_type_counts_equals_token_streams(completed_run):
    # vocabulary and training ids built from a stream file's type table
    # equal those built from the corpus's token streams
    _, config, manifest = completed_run
    inventory = load_default_inventory()
    for spec in config.corpora:
        streams, _ = ingest_handle(spec, inventory)
        types = read_streams(config.out_dir / "streams" / f"{spec.corpus_id}.bin")
        vocab = build_vocabulary(types, config.min_count)
        assert vocab == build_vocabulary(streams, config.min_count)
        assert len(vocab) == manifest.stages["train"]["training"][spec.corpus_id]["vocabulary"]
        want = encode_token_loop(streams, vocab)
        for ids, lengths in (encode_streams(types, vocab), encode_streams(streams, vocab)):
            assert ids.dtype == np.int32 and lengths.dtype == np.int64
            assert np.array_equal(ids, want[0]) and np.array_equal(lengths, want[1])


def test_all_calls_the_corpus_functions_the_benchmark_times(tmp_path, monkeypatch):
    # bench/tracer.py times these names on crossmoji.pipeline, so the stages
    # must call them, not twins under other names.  With one CPU every call
    # is made in this process
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 1)
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in ("write_streams", "read_streams", "build_vocabulary", "encode_streams",
                 "count_frequencies"):
        monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=8, runs=2, dim=8, epochs=1)
    Pipeline(load_config(cfg_path)).run("all")
    # per corpus: ingest writes the stream file, train and project each read
    # it and build the vocabulary, train encodes it; project counts emoji once
    assert calls == {"write_streams": 2, "read_streams": 4, "build_vocabulary": 4,
                     "encode_streams": 2, "count_frequencies": 1}


def test_one_dimensional_models_leave_an_axis_out_not_the_report(tmp_path):
    # at dim 1 every cosine is +1 or -1, so a culture's profile on an axis
    # can be constant; that axis used to fail analyze with "zero variance"
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=60, runs=2, dim=1, epochs=3)
    config = load_config(cfg_path)
    manifest = Pipeline(config).run("all")
    assert all(info["completed"] for info in manifest.stages.values())
    axes = manifest.stages["project"]["axes"]
    skipped = [axis for axis in axes if "category correlation skipped for axis "
               f"{axis}: its West or East profile is constant, or has fewer than 3 emoji"
               in manifest.warnings]
    assert skipped
    report = read_report_json(config.out_dir / "report" / "report.json")
    assert set(report.category_rho) == set(axes) - set(skipped)
    assert all(report.top5[(culture, axis)] for culture in ("West", "East") for axis in axes)


def test_fan_out_keeps_call_order_and_runs_in_workers(monkeypatch):
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 2)
    results, workers = pipeline.fan_out([os.getpid, os.getpid, lambda: "last"])
    assert workers == 2
    assert results[2] == "last"
    assert os.getpid() not in results[:2]


def test_one_job_or_one_cpu_creates_no_pool(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was created")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 2)
    assert pipeline.fan_out([os.getpid]) == ([os.getpid()], 1)
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 1)
    assert pipeline.fan_out([os.getpid, lambda: 2]) == ([os.getpid(), 2], 1)


def test_cli_import_loads_no_process_pool():
    code = ("import sys, crossmoji.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


def test_unknown_stage_rejected(tmp_path):
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=3)
    config = load_config(cfg_path)
    with pytest.raises(ConfigError, match="unknown stage"):
        Pipeline(config).run("compile")
    assert not config.out_dir.exists()  # the name is checked before anything is made
