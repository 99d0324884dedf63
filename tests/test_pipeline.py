"""End-to-end pipeline: staging, resumability, determinism, reporting."""

import dataclasses
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from crossmoji import pipeline
from crossmoji.corpus import ingest_handle, load_streams, write_streams
from crossmoji.embedding import (
    TrainParams,
    build_vocabulary,
    encode_streams,
    encode_types,
    vocabulary_of,
)
from crossmoji.inventory import EmojiInventory, load_default_inventory
from crossmoji.pipeline import (
    SCHEMA,
    STAGES,
    ConfigError,
    Pipeline,
    PipelineStageError,
    load_config,
    read_report_json,
)

from util import edit_config, write_mixed_feed, write_two_culture_setup


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
    assert manifest2.charts == manifest1.charts


def test_stage_requires_predecessor(tmp_path):
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=5)
    config = load_config(cfg_path)
    with pytest.raises(PipelineStageError, match="ingest"):
        Pipeline(config).run("train")


def incomplete(config) -> list[str]:
    pipeline = Pipeline(config)
    return [stage for stage in STAGES if not pipeline._is_complete(stage)]


def test_config_change_invalidates_markers(completed_run):
    # top_k is read by analyze alone: the stages before it stay complete
    _, config, _ = completed_run
    assert incomplete(dataclasses.replace(config, top_k=7)) == ["analyze", "report"]


def test_model_format_change_invalidates_markers(completed_run, monkeypatch):
    # a directory trained under another model format re-trains instead of
    # failing to read its models
    _, config, _ = completed_run
    pipeline = Pipeline(config)
    assert pipeline._is_complete("train")
    monkeypatch.setattr("crossmoji.pipeline.MODEL_FORMAT", "crossmoji-model 0")
    pipeline = Pipeline(config)
    assert pipeline._is_complete("ingest")
    assert not pipeline._is_complete("train")


# --- per-stage cache keys ------------------------------------------------------

def copy_run(completed_run, tmp_path):
    """A private copy of the shared completed run (inputs, config and
    outputs) to edit and re-run; returns the copy's config."""
    shutil.copytree(completed_run[0], tmp_path / "run")
    return load_config(tmp_path / "run" / "config.json")


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


def test_input_edit_reruns_every_stage(completed_run, tmp_path):
    config = copy_run(completed_run, tmp_path)
    west = config.corpora[0].input_path
    lines = west.read_text(encoding="utf-8").splitlines(keepends=True)
    west.write_text("".join(lines[: len(lines) // 2]), encoding="utf-8")
    counts = (config.out_dir / "counts.json").read_bytes()
    manifest = Pipeline(config).run("all")
    assert ran(manifest) == list(STAGES)
    assert (config.out_dir / "counts.json").read_bytes() != counts
    assert manifest.stages["ingest"]["counts"]["US"]["posts_read"] == len(lines) // 2


def test_lexicon_edit_reruns_project_and_later(completed_run, tmp_path):
    config = copy_run(completed_run, tmp_path)
    drop_last_line(config.corpora[0].lexicon_path)
    assert ran(Pipeline(config).run("all")) == ["project", "analyze", "report"]


def test_top_k_edit_reruns_analyze_and_report_equal_to_cold_run(completed_run, tmp_path):
    config = copy_run(completed_run, tmp_path)
    edit_config(tmp_path / "run" / "config.json", "top_k", 3)
    edited = load_config(tmp_path / "run" / "config.json")
    assert ran(Pipeline(edited).run("all")) == ["analyze", "report"]
    cold = load_config(tmp_path / "run" / "config.json", out_dir=str(tmp_path / "cold"))
    assert ran(Pipeline(cold).run("all")) == list(STAGES)
    assert outputs(config.out_dir) == outputs(cold.out_dir)


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


@pytest.mark.parametrize("field", sorted(FIELD_READERS))
def test_edit_invalidates_first_stage_reading_it(completed_run, tmp_path, field):
    # the stages before the first reader stay complete: no over-invalidation
    stage, edit = FIELD_READERS[field]
    changed = edit(completed_run[1], tmp_path)
    assert incomplete(changed)[0] == stage


def test_truncated_model_retrains_to_same_bytes(completed_run, tmp_path):
    config = copy_run(completed_run, tmp_path)
    before = outputs(config.out_dir, also=("models",))
    model = config.out_dir / "models" / "US.run0.vec"
    model.write_bytes(model.read_bytes()[:-100])
    manifest = Pipeline(config).run("all")
    assert not manifest.stages["train"]["skipped"]
    assert manifest.stages["ingest"]["skipped"]
    assert outputs(config.out_dir, also=("models",)) == before
    # the repaired directory is complete again
    assert ran(Pipeline(config).run("all")) == []


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
    assert sorted(p.name for p in (config.out_dir / "tensors").iterdir()) == ["EMPTY"]
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
    # models and tensor CSVs made to raise, analyze writes the same report
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=8, runs=2, dim=8, epochs=1)
    raw = json.loads(cfg_path.read_text())
    edit(raw)
    cfg_path.write_text(json.dumps(raw))
    config = load_config(cfg_path)
    Pipeline(config).run("all")
    report_dir = config.out_dir / "report"
    report = {p.name: p.read_bytes() for p in report_dir.iterdir()}
    assert {"category_scc.csv", "country_matrix.csv"} & set(report) == sections
    for name in ("load_model", "read_streams", "count_frequencies", "read_tensor_csv"):
        monkeypatch.setattr(pipeline, name, refuse)
    assert ran(Pipeline(config).run("analyze")) == ["analyze"]
    assert {p.name: p.read_bytes() for p in report_dir.iterdir()} == report


def assert_only_recorded_files(config) -> None:
    # no temp file or earlier run's file stays behind: each file is a marker,
    # the manifest or an artifact a marker records with its digest
    out = Path(config.out_dir)
    recorded = {"manifest.json"}
    for stage in STAGES:
        recorded.add(f".stage_{stage}.json")
        recorded |= set(json.loads((out / f".stage_{stage}.json").read_text())["artifacts"])
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
    emitted = [name for name, f in manifest.charts.items() if f]
    assert set(emitted) == {"fig_top_emoji", "fig_category_shares",
                            "fig_country_heatmap", "fig_category_top5",
                            "fig_icon_extremes"}
    for name in emitted:
        root = ET.parse(charts_dir / f"{name}.svg").getroot()
        assert root.tag.endswith("svg")


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
    assert report.frequency is not None  # per-corpus frequency still emitted
    # charts backed by empty sections are omitted and noted
    assert manifest.charts["fig_category_top5"] is None
    assert any("chart fig_category_top5 omitted" in w for w in manifest.warnings)


def test_stage_failure_names_stage_and_keeps_partial_artifacts(tmp_path):
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=5, runs=1,
                                       dim=8, epochs=1)
    raw = json.loads(cfg_path.read_text())
    raw["corpora"][1]["input"] = "missing.jsonl"
    cfg_path.write_text(json.dumps(raw))
    config = load_config(cfg_path)
    with pytest.raises(PipelineStageError, match="ingest"):
        Pipeline(config).run("all")
    # the first corpus's streams were written before the failure
    assert (Path(config.out_dir) / "streams" / "US.bin").exists()
    assert (Path(config.out_dir) / "manifest.json").exists()


def test_failed_stage_artifacts_are_deleted_by_next_run(tmp_path):
    # the failed ingest wrote US's streams; its marker lists them, so the
    # next run deletes them although its config no longer has US
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=5, runs=1,
                                       dim=8, epochs=1)
    (tmp_path / "east.jsonl").rename(tmp_path / "east-kept.jsonl")
    with pytest.raises(PipelineStageError, match="ingest"):
        Pipeline(load_config(cfg_path)).run("all")
    out = tmp_path / "out"
    assert (out / "streams" / "US.bin").exists()
    marker = json.loads((out / ".stage_ingest.json").read_text())
    assert marker["key"] is None
    assert set(marker["artifacts"]) == {"streams/US.bin", "streams/JP.bin", "counts.json"}
    edit_config(cfg_path, "corpora", [
        {"id": "JP", "culture": "East", "input": "east-kept.jsonl", "lang": "en",
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


def fail_icon_table(monkeypatch) -> str:
    """analyze: `EmojiInventory.category` raises only while the report CSVs
    are written, so `category_scc.csv` is whole and `icon_scc.csv` is not."""
    write = pipeline.write_report_csvs

    def failing(*args):
        with monkeypatch.context() as m:
            m.setattr(EmojiInventory, "category", cut_off)
            write(*args)

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
    assert any("duplicating" in w for w in manifest.warnings)
    assert "catAclone" not in manifest.stages["project"]["axes"]
    assert "catA" in manifest.stages["project"]["axes"]


def test_config_validation_errors(tmp_path):
    cfg_path = write_two_culture_setup(tmp_path, posts_per_pattern=5)
    raw = json.loads(cfg_path.read_text())
    raw["corpora"][0]["culture"] = "North"
    cfg_path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="culture"):
        load_config(cfg_path)


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


def within_rounding(items: int, seconds: float, per_s: int) -> bool:
    # seconds are rounded to the millisecond, the rate is not
    return items / (seconds + 5e-4) - 1 <= per_s <= items / max(seconds - 5e-4, 1e-9) + 1


def test_manifest_records_train_throughput_per_run(completed_run):
    # tokens per run are the in-vocabulary tokens times epochs; ingest
    # records posts per second per corpus, and both stages their workers
    from crossmoji.embedding import load_model

    _, config, manifest = completed_run
    ingest, train = manifest.stages["ingest"], manifest.stages["train"]
    for corpus_id, info in train["training"].items():
        vocab = load_model(Path(config.out_dir) / "models" / f"{corpus_id}.run0.vec").vocab
        tokens = vocab.kept_tokens * config.training.epochs
        assert len(info["runs"]) == config.runs
        for run in info["runs"]:
            assert run["seconds"] > 0
            assert within_rounding(tokens, run["seconds"], run["tokens_per_s"])
    assert list(ingest["throughput"]) == [c.corpus_id for c in config.corpora]
    for corpus_id, info in ingest["throughput"].items():
        assert info["records"] == ingest["counts"][corpus_id]["posts_read"] > 0
        assert info["seconds"] > 0
        assert within_rounding(info["records"], info["seconds"], info["posts_per_s"])
    # one shard row per byte range: the ranges of each file cover it in order
    cpus = pipeline.usable_cpus()
    shards = ingest["shards"]
    for spec in config.corpora:
        rows = [r for r in shards if r["file"] == str(spec.input_path.resolve())]
        assert 1 <= len(rows) <= cpus
        assert [r["start"] for r in rows] == [0] + [r["end"] for r in rows[:-1]]
        assert rows[-1]["end"] == spec.input_path.stat().st_size
        assert sum(r["lines"] for r in rows) == ingest["counts"][spec.corpus_id]["posts_read"]
        assert all(r["seconds"] >= 0 for r in rows)
    assert ingest["workers"] == min(len(shards), cpus)
    assert train["workers"] == min(len(config.corpora) * config.runs, cpus)


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


def test_directory_ingested_with_text_streams_reingests(completed_run, tmp_path, monkeypatch):
    # an output directory ingested before stream files had a format: text
    # streams, and an ingest key without the stream format.  Ingest re-runs
    # and writes the same stream files, so the later stages stay complete.
    config = copy_run(completed_run, tmp_path)
    out = config.out_dir
    before = outputs(out, also=("models", "streams"))
    fields, files = pipeline.STAGE_READS["ingest"]
    with monkeypatch.context() as m:
        m.setitem(pipeline.STAGE_READS, "ingest",
                  (tuple(f for f in fields if f != "stream_format"), files))
        old_key = Pipeline(config)._key("ingest")
    artifacts = {}
    for spec in config.corpora:
        (out / "streams" / f"{spec.corpus_id}.bin").unlink()
        text = out / "streams" / f"{spec.corpus_id}.tokens"
        with open(text, "w", encoding="utf-8") as f:
            write_streams(ingest_handle(spec, load_default_inventory())[0], f)
        artifacts[f"streams/{spec.corpus_id}.tokens"] = hashlib.sha256(
            text.read_bytes()).hexdigest()
    marker = json.loads((out / ".stage_ingest.json").read_text())
    artifacts["counts.json"] = marker["artifacts"]["counts.json"]
    (out / ".stage_ingest.json").write_text(json.dumps(marker | {
        "key": old_key, "artifacts": artifacts}))
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
    return np.array(ids, dtype=np.int64), np.array(lengths, dtype=np.int64)


def test_train_input_from_type_counts_equals_token_streams(completed_run):
    # vocabulary and training ids built from a stream file's type table
    # equal those built from the corpus's token streams
    _, config, manifest = completed_run
    inventory = load_default_inventory()
    for spec in config.corpora:
        streams, _ = ingest_handle(spec, inventory)
        types = load_streams(config.out_dir / "streams" / f"{spec.corpus_id}.bin")
        vocab = vocabulary_of(types, config.min_count)
        assert vocab == build_vocabulary(streams, config.min_count)
        assert len(vocab) == manifest.stages["train"]["training"][spec.corpus_id]["vocabulary"]
        want = encode_token_loop(streams, vocab)
        for ids, lengths in (encode_types(types, vocab), encode_streams(streams, vocab)):
            assert ids.dtype == lengths.dtype == np.int64
            assert np.array_equal(ids, want[0]) and np.array_equal(lengths, want[1])


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
