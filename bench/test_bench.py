"""Self-tests of the benchmark: generators, output checks and tracer.

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def files_of(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("generate", [
    workloads.write_planted,
    lambda d, seed: workloads.write_feed(d, seed, records=300),
])
def test_generators_are_deterministic_per_seed(tmp_path, generate):
    a = generate(tmp_path / "a", 5)
    b = generate(tmp_path / "b", 5)
    c = generate(tmp_path / "c", 6)
    assert files_of(tmp_path / "a") == files_of(tmp_path / "b")
    assert a.expected_counts == b.expected_counts
    assert files_of(tmp_path / "a") != files_of(tmp_path / "c")


def test_feed_tally_matches_real_ingest_and_catches_a_mismatch(tmp_path):
    wl = workloads.write_feed(tmp_path / "in", 3, records=400)
    for counts in wl.expected_counts.values():
        assert counts["posts_read"] == 400
        assert counts["parse_errors"] > 0 and counts["dropped_retweet"] > 0
        assert counts["posts_after_filter"] > 0
        assert sum(v for k, v in counts.items() if k != "posts_read") == 400
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-m", "crossmoji.cli", "ingest",
         "--config", str(wl.config), "--out", str(out)],
        cwd=run.ROOT, env=run.child_env(), capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert run.count_failures(out, wl.expected_counts) == []

    counts = json.loads((out / "counts.json").read_text(encoding="utf-8"))
    counts["JP"]["dropped_retweet"] += 1
    (out / "counts.json").write_text(json.dumps(counts), encoding="utf-8")
    assert run.count_failures(out, wl.expected_counts) == [
        f"JP.dropped_retweet: got {counts['JP']['dropped_retweet']}, "
        f"generated {wl.expected_counts['JP']['dropped_retweet']}"]


def test_set_top_k_changes_only_top_k(tmp_path):
    wl = workloads.write_feed(tmp_path, 1, records=50)
    before = json.loads(wl.config.read_text(encoding="utf-8"))
    workloads.set_top_k(wl.config, 99)
    after = json.loads(wl.config.read_text(encoding="utf-8"))
    assert after.pop("top_k") == 99
    before.pop("top_k")
    assert after == before


def fake_output(directory: Path) -> Path:
    (directory / "models").mkdir(parents=True)
    (directory / "report").mkdir()
    (directory / "models" / "US.run0.vec").write_text("2 1\na 0.1\nb 0.2\n")
    (directory / "report" / "icon_scc.csv").write_text(
        f"emoji,scc,unicode_category\n{workloads.E1},0.9,x\n{workloads.E2},-0.2,x\n",
        encoding="utf-8")
    (directory / "report" / "category_scc.csv").write_text(
        f"category,rho,top5_west,top5_east\ncatA,0.5,{workloads.E1} a,b {workloads.E1}\n",
        encoding="utf-8")
    (directory / "manifest.json").write_text('{"seconds": 1.0}')
    (directory / "counts.json").write_text('{"US": {"posts_read": 2}}')
    return directory


def test_digest_catches_a_changed_csv_or_model_only(tmp_path):
    a = fake_output(tmp_path / "a")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    assert run.digest(a) == run.digest(b)
    (b / "manifest.json").write_text('{"seconds": 2.0}')  # timings may differ
    assert run.digest(a) == run.digest(b)

    (b / "report" / "icon_scc.csv").write_text("emoji,scc,unicode_category\n")
    assert run.digest(a) != run.digest(b)
    assert run.digest(a, models_only=True) == run.digest(b, models_only=True)

    (b / "models" / "US.run0.vec").write_text("2 1\na 0.1\nb 0.3\n")
    assert run.digest(a, models_only=True) != run.digest(b, models_only=True)


def test_signal_checks(tmp_path):
    out = fake_output(tmp_path / "out")
    e1, e2 = workloads.E1, workloads.E2
    assert run.signal_failures(out, e1, e2) == []
    assert run.signal_margin(out, e1, e2) == pytest.approx(1.1)
    (out / "report" / "icon_scc.csv").write_text(
        f"emoji,scc,unicode_category\n{e1},0.1,x\n{e2},0.2,x\n", encoding="utf-8")
    (out / "report" / "category_scc.csv").write_text(
        f"category,rho,top5_west,top5_east\ncatA,-0.5,{e1},b\n", encoding="utf-8")
    assert run.signal_failures(out, e1, e2) == [
        "catA rho -0.5 <= 0", "icon scc E1 0.1 <= E2 0.2", "E1 missing from catA top5_east"]
    (out / "report" / "icon_scc.csv").unlink()
    assert run.signal_failures(out, e1, e2)[0].startswith("report unreadable")


def test_rerun_catches_models_that_differ_from_a_cold_run(tmp_path, monkeypatch):
    """The rerun workload flags a re-run whose outputs differ from a cold run."""
    wl = workloads.Workload(config=tmp_path / "config.json",
                            expected_counts={"US": {"posts_read": 2}})
    wl.config.write_text('{"top_k": 3}')
    calls = []

    def fake_pipeline(config, out, trace=None):
        calls.append(out.name)
        if not out.exists():
            fake_output(out)
        if out.name == "reference":  # the cold run of the edited config differs
            (out / "report" / "icon_scc.csv").write_text("emoji,scc,unicode_category\n")
        return run.Process(code=0, wall_s=0.01, peak_rss_mb=1.0)

    bench = run.Bench("rerun", 1, 0.0, tmp_path, wl.config)
    monkeypatch.setattr(bench, "pipeline", fake_pipeline)
    monkeypatch.setattr(bench, "probe_setup", lambda: None)
    untraced, traced = run.rerun(bench, wl, None)
    assert traced is None and len(untraced) == run.MIN_OPS
    assert calls == ["out"] * (1 + run.MIN_OPS) + ["reference"]
    assert len(bench.ops) == 1 + run.MIN_OPS  # the untimed cold run is counted too
    assert bench.ops[0].problems == untraced[0].problems == []
    assert untraced[-1].problems == [
        "re-run models/CSVs differ from a cold run of the edited config"]


def test_rerun_flags_a_failed_cold_run(tmp_path, monkeypatch):
    wl = workloads.Workload(config=tmp_path / "config.json",
                            expected_counts={"US": {"posts_read": 2}})
    wl.config.write_text('{"top_k": 3}')
    runs = []

    def fake_pipeline(config, out, trace=None):
        runs.append(out.name)
        if len(runs) == 1:  # the untimed cold run fails and writes nothing
            return run.Process(code=1, wall_s=0.01, peak_rss_mb=1.0)
        shutil.rmtree(out, ignore_errors=True)
        fake_output(out)
        return run.Process(code=0, wall_s=0.01, peak_rss_mb=1.0)

    bench = run.Bench("rerun", 1, 0.0, tmp_path, wl.config)
    monkeypatch.setattr(bench, "pipeline", fake_pipeline)
    monkeypatch.setattr(bench, "probe_setup", lambda: None)
    run.rerun(bench, wl, None)
    assert bench.ops[0].problems == ["untimed cold run exited 1"]


def test_hung_child_is_killed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.2)
    done = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"],
                         tmp_path / "log")
    assert done.code == -9 and done.wall_s < 10


def test_tracer_spans_have_parents_and_self_time():
    t = tracer.Tracer()
    with t.span("outer"):
        with t.span("inner"):
            pass
        with t.span("inner"):
            pass
    spans = t.as_dict()["spans"]
    assert [s["parent"] for s in spans] == [None, 0, 0]
    outer = spans[0]
    children = spans[1]["seconds"] + spans[2]["seconds"]
    assert outer["self_s"] == pytest.approx(outer["seconds"] - children)
    assert t.totals()["inner"]["calls"] == 2


def test_instrumented_wraps_and_restores_the_pipeline():
    from crossmoji import pipeline

    originals = {name: getattr(pipeline, name) for name in tracer.PIPELINE_CALLS}
    stage = pipeline.Pipeline.stage_ingest
    with tracer.instrumented(tracer.Tracer()):
        assert all(getattr(pipeline, n) is not f for n, f in originals.items())
        assert pipeline.Pipeline.stage_ingest is not stage
    assert all(getattr(pipeline, n) is f for n, f in originals.items())
    assert pipeline.Pipeline.stage_ingest is stage


def test_instrumented_fails_on_a_name_the_pipeline_lacks(monkeypatch):
    from crossmoji import pipeline

    stage = pipeline.Pipeline.stage_ingest
    calls = dict(tracer.PIPELINE_CALLS, no_such_call=("x.missing", None))
    monkeypatch.setattr(tracer, "PIPELINE_CALLS", calls)
    with pytest.raises(AttributeError, match="no_such_call"):
        with tracer.instrumented(tracer.Tracer()):
            pass
    assert pipeline.Pipeline.stage_ingest is stage  # nothing was left wrapped


def test_a_counter_hook_that_no_longer_fits_fails_the_call(tmp_path):
    wrapped = tracer._wrap(tracer.Tracer(), lambda path: None, "embedding.save",
                           tracer._saved)
    with pytest.raises(FileNotFoundError):  # the call wrote no file at `path`
        wrapped(tmp_path / "missing.vec")
    wrapped = tracer._wrap(tracer.Tracer(), lambda handle: ([], None), "corpus.ingest",
                           tracer._ingest)
    with pytest.raises(AttributeError):  # the result changed shape
        wrapped(None)


def test_benchmark_json_names_every_metric_the_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    empty_trace = {"totals": {}, "trace": {"counters": {}}}
    traced = run.Op(run.Process(0, 2.0, 1.0), 1.0)
    layers = run.layer_metrics(empty_trace, traced, 1.0, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in layers.items()}
