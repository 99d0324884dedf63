"""Command-line interface: stage selection, flags, error reporting."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crossmoji.cli import main

from util import edit_config, write_two_culture_setup


@pytest.fixture()
def small_config(tmp_path):
    return write_two_culture_setup(tmp_path, posts_per_pattern=6, runs=1,
                                   dim=8, epochs=1)


def test_all_stage_via_positional(small_config, capsys):
    code = main(["all", "--config", str(small_config)])
    out = capsys.readouterr().out
    assert code == 0
    assert "ingest" in out and "report" in out
    assert (small_config.parent / "out" / "manifest.json").exists()


def test_stage_flag_equivalent(small_config, capsys):
    assert main(["--config", str(small_config), "--stage", "ingest"]) == 0
    assert (small_config.parent / "out" / "streams" / "US.bin").exists()


def test_default_stage_is_all(small_config):
    assert main(["--config", str(small_config)]) == 0
    assert (small_config.parent / "out" / "report" / "report.json").exists()


def test_conflicting_stage_forms_rejected(small_config, capsys):
    code = main(["train", "--config", str(small_config), "--stage", "ingest"])
    assert code == 2
    assert "conflicting" in capsys.readouterr().err


def test_out_override(small_config, tmp_path):
    alt = tmp_path / "elsewhere"
    assert main(["all", "--config", str(small_config), "--out", str(alt)]) == 0
    assert (alt / "manifest.json").exists()


def test_missing_input_file_is_clean_error(tmp_path, capsys):
    cfg = write_two_culture_setup(tmp_path, posts_per_pattern=3)
    raw = json.loads(cfg.read_text())
    raw["corpora"][0]["input"] = "nope.jsonl"
    cfg.write_text(json.dumps(raw))
    code = main(["all", "--config", str(cfg)])
    assert code == 1
    assert "ingest" in capsys.readouterr().err


def test_worker_failure_is_stage_error_exit_1(tmp_path, capsys, monkeypatch):
    # one vocabulary token cannot train: each run's worker raises
    from crossmoji import pipeline

    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 2)
    cfg = write_two_culture_setup(tmp_path, posts_per_pattern=3, runs=2)
    raw = json.loads(cfg.read_text())
    raw["corpora"] = raw["corpora"][:1]
    cfg.write_text(json.dumps(raw))
    (tmp_path / "west.jsonl").write_text("".join(
        json.dumps({"post_id": str(i), "text": "hello hello", "country": "US",
                    "lang": "en"}) + "\n" for i in range(5)))
    code = main(["all", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1
    assert "stage 'train' failed: need at least 2 vocabulary tokens" in err
    assert "BrokenProcessPool" not in err
    # the failed stage's marker lists the models it was to write
    marker = json.loads((tmp_path / "out" / ".stage_train.json").read_text())
    assert marker["key"] is None
    assert set(marker["artifacts"]) == {"models/US.run0.vec", "models/US.run1.vec"}


def test_input_that_is_a_directory_is_clean_error(tmp_path, capsys):
    # hashing the input for the cache key must not raise before ingest does
    cfg = write_two_culture_setup(tmp_path, posts_per_pattern=3)
    raw = json.loads(cfg.read_text())
    raw["corpora"][0]["input"] = "."
    cfg.write_text(json.dumps(raw))
    assert main(["all", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'ingest' failed") and err.count("\n") == 1


@pytest.mark.parametrize("contents", [None, b"\xff\xfe{}"], ids=["directory", "not-utf-8"])
def test_config_that_is_a_directory_or_not_utf8_is_exit_2(tmp_path, capsys, contents):
    cfg = tmp_path / "run.json"
    if contents is None:
        cfg.mkdir()
    else:
        cfg.write_bytes(contents)
    assert main(["all", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: cannot read the config") and err.count("\n") == 1


def test_bad_config_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"corpora": []}))
    assert main(["all", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("corpus_id", ["", ".", "..", "../../escaped", "a/b", "a\\b", "a\0b"])
def test_corpus_id_that_is_not_a_file_name_is_exit_2(small_config, capsys, corpus_id):
    raw = json.loads(small_config.read_text())
    raw["corpora"][0]["id"] = corpus_id
    small_config.write_text(json.dumps(raw))
    # "../../escaped" would put files next to the config, outside out/
    before = set(small_config.parent.rglob("*"))
    assert main(["all", "--config", str(small_config)]) == 2
    assert "must be a plain file name" in capsys.readouterr().err
    assert set(small_config.parent.rglob("*")) == before


def test_stage_without_predecessor_fails_cleanly(small_config, capsys):
    code = main(["analyze", "--config", str(small_config)])
    assert code == 1
    assert "project" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("dimm", 50), ("dim", 0), ("mode", "parallel"), ("threads", 2),
    ("runs", "three"), ("top_k", 2.5), ("shared_threshold", None), ("top_k", 0),
    ("training", 5), ("corpora", 5),
    pytest.param("corpora", [5], id="corpora-entry-5"),
    pytest.param(None, '{"seed": 1,', id="unfinished-json"),
    pytest.param(None, '"config"', id="json-string"),
    ("top-k", 3), ("out_dir", 7), ("emoji_data", 5),
])
def test_bad_training_config_is_exit_2_with_one_line(small_config, capsys, key, value):
    edit_config(small_config, key, value)
    assert main(["all", "--config", str(small_config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (key or "JSON") in err


def test_cli_import_loads_no_network_modules():
    # the SVG writer once escaped text with xml.sax.saxutils, whose import
    # chain pulls in urllib.request, http.client, email and ssl
    code = ("import sys, crossmoji.cli; print(sorted({'urllib.request', 'http.client', "
            "'email.parser', 'ssl'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"
