"""Tests of the pipeline benchmark itself, on the tiny workloads.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_polegeom()

import spans  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.TINY_WORKLOADS
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
CHECK_KINDS = ("hexagon", "polar", "cone", "t11", "t4", "spread", "normal-spread")


def test_same_seed_same_input_digest():
    for name, specs in TINY.items():
        a = workloads.make_inputs(specs, 7, name)
        b = workloads.make_inputs(specs, 7, name)
        assert a == b
        if any(spec.pullbacks for spec in specs):
            assert workloads.make_inputs(specs, 8, name)[1] != a[1]


def test_digest_covers_the_full_workloads():
    _, digest = workloads.build_jobs(workloads.WORKLOADS["checks"], 3, "checks")
    assert digest == workloads.make_inputs(workloads.WORKLOADS["checks"], 3, "checks")[1]


def test_random_gl_is_invertible():
    import random

    from polegeom.fields import GF
    from polegeom.linalg import Matrix

    rng = random.Random(0)
    for p in (2, 3, 7):
        rows = workloads.random_gl(rng, 6, p)
        assert Matrix(GF(p), rows).rank() == 6


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workloads_pass_their_checks(name):
    jobs, _ = workloads.build_jobs(TINY[name], 1, name)
    tally = run.Tally()
    tally.run_pass(jobs)
    assert tally.failures == []
    assert tally.attempted == len(jobs)


def _corrupt(expected):
    bad = copy.deepcopy(expected)
    key = sorted(bad)[0]
    value = bad[key]
    if isinstance(value, bool):
        bad[key] = not value
    elif isinstance(value, (int, float)):
        bad[key] = value + 1
    elif isinstance(value, str):
        bad[key] = value + "x"
    elif isinstance(value, list):
        bad[key] = value + [0]
    elif isinstance(value, dict):
        bad[key] = {**value, "0": 1}
    else:
        bad[key] = "corrupted"
    return bad


@pytest.mark.parametrize("name", sorted(TINY))
def test_wrong_expected_answer_counts_as_failure(name):
    jobs, _ = workloads.build_jobs(TINY[name], 1, name)
    for job in jobs:
        job.expected = _corrupt(job.expected)
    tally = run.Tally()
    tally.run_pass(jobs)
    assert tally.attempted == len(jobs)
    assert len(tally.failures) == len(jobs)
    assert {f["job"] for f in tally.failures} == {job.name for job in jobs}


def test_every_check_kind_fires():
    """Each expected key of each check kind is compared, one at a time."""
    jobs, _ = workloads.build_jobs(TINY["checks"], 1, "checks")
    assert {job.kind for job in jobs} == set(CHECK_KINDS)
    for job in jobs:
        for key in job.expected:
            probe = copy.copy(job)
            probe.expected = {key: "corrupted"}
            tally = run.Tally()
            tally.run_job(probe)
            assert [f["keys"] for f in tally.failures] == [[key]], (job.name, key)


def test_cone_expects_the_known_red_verdict():
    expected = workloads.load_expected()["checks"]["cone T7/gf(3)"]
    assert expected["line_planes_ok"] is False
    assert expected["witness"].startswith("468 of 481 radical lines")
    assert expected["pole_set_ok"] and expected["degree4_is_conic"] and expected["off_vertex_ok"]


def test_crashing_job_counts_as_failure():
    jobs, _ = workloads.build_jobs(TINY["classify"], 1, "classify")
    jobs[0].kind = "no-such-command"
    tally = run.Tally()
    tally.run_pass(jobs)
    assert tally.attempted == len(jobs)
    assert [f["job"] for f in tally.failures] == [jobs[0].name]


def _metrics_and_units(record):
    return {k: v["unit"] for k, v in record["result"]["metrics"].items()}


def test_untraced_run_emits_every_end_to_end_metric():
    record = run.run_benchmark("classify", 2, 0, False, specs=TINY, setup_samples=2)
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert _metrics_and_units(record) == want
    assert all(v["value"] > 0 for v in record["result"]["metrics"].values())
    assert record["result"]["failed"] == 0
    assert len(record["setup_samples_s"]) == 2
    assert record["provenance"]["backend"] == "python"
    assert record["provenance"]["polegeom_file"] == "src/polegeom/__init__.py"


@pytest.fixture(scope="module")
def traced_record():
    from polegeom import poles

    original = poles.enumerate_poles
    record = run.run_benchmark("report", 3, 0, True, specs=TINY)
    assert poles.enumerate_poles is original  # wrappers removed after the run
    return record


def test_traced_run_emits_every_per_layer_metric(traced_record):
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert _metrics_and_units(traced_record) == want
    metrics = {k: v["value"] for k, v in traced_record["result"]["metrics"].items()}
    assert metrics["poles.scans_per_odd_n_job"] == 3
    assert metrics["kernels.scan_calls"] > 0
    assert metrics["cli.output_bytes"] > 0


def test_traced_spans_nest(traced_record):
    rows = traced_record["spans"]
    assert rows
    for name, start, end, parent in rows:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _ = rows[parent]
            assert p_start <= start and end <= p_end, name
    assert min(spans.self_times(rows)) >= -1e-9
    top = sum(end - start for _, start, end, parent in rows if parent == -1)
    traced_wall = traced_record["result"]["metrics"]["trace.traced_wall_s"]["value"]
    assert top <= traced_wall


def test_benchmark_json_matches_the_contract():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def _run_cli(cwd, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("var", run.GUARDED_ENV)
def test_refuses_guarded_environment(var):
    env = dict(os.environ, **{var: "1"})
    proc = _run_cli(ROOT, env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert var in proc.stderr


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_cli(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
