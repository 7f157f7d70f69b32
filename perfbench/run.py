#!/usr/bin/env python3
"""Pipeline benchmark for polegeom: end-to-end and per-layer numbers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload report --seed 1 --seconds 15 --trace 0

One process drives the load in a closed loop: one job at a time, each
finishing before the next starts, with one worker.  ``--trace 0`` cycles
through the workload's job list for about ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` runs one untraced pass, one traced pass
and one pass that counts field operations, and reports the per-layer
metrics.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
carries provenance and the failure details, and the full record (with
the spans of a traced run) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

GUARDED_ENV = ("POLEGEOM_PURE", "POLEGEOM_BUDGET", "POLEGEOM_NO_EXT")
SETUP_SAMPLES = 5  # fresh processes set up per run; setup_s is their median
CHILD_TIMEOUT_S = 120

# name -> unit; the end-to-end metrics, measured with tracing off
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit; the per-layer metrics of one traced pass
PER_LAYER = {
    "kernels.scan_calls": "count",
    "kernels.points_scanned": "count",
    "kernels.scan_s": "s",
    "kernels.points_per_s": "1/s",
    "poles.scans_per_job": "count",
    "poles.scans_per_odd_n_job": "count",
    "poles.enumerate_self_s": "s",
    "poles.upper_radical_self_s": "s",
    "poles.lines_emitted": "count",
    "projective.wedge2_calls": "count",
    "poles.line_yield": "ratio",
    "poles.variety_s": "s",
    "linalg.pfaffian_s": "s",
    "poly.evaluate_calls": "count",
    "geometry.build_self_s": "s",
    "geometry.incidences": "count",
    "geometry.graph_s": "s",
    "geometry.graph_vertices": "count",
    "geometry.graph_edges": "count",
    "geometry.check_s.normal_spread": "s",
    "geometry.check_s.polar": "s",
    "geometry.check_s.cone": "s",
    "geometry.check_s.t11": "s",
    "geometry.check_s.t4": "s",
    "projective.span_points_calls": "count",
    "projective.span_points_s": "s",
    "projective.from_pair_calls": "count",
    "fields.of_calls": "count",
    "fields.mul_calls": "count",
    "cli.emit_s": "s",
    "cli.output_bytes": "bytes",
    "forms.pullback_s": "s",
    "forms.cube_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}

CHECK_SPANS = {
    "geometry.check_s.normal_spread": "geometry.normal_spread_check",
    "geometry.check_s.polar": "geometry.expected_polar_lines",
    "geometry.check_s.cone": "geometry.cone_structure_check",
    "geometry.check_s.t11": "geometry.t11_structure_check",
    "geometry.check_s.t4": "geometry.t4_line_check",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# -- set-up -------------------------------------------------------------------


def guard_environment() -> None:
    bad = [name for name in GUARDED_ENV if name in os.environ]
    if bad:
        raise BenchError(f"refusing to run with {', '.join(bad)} set")


def import_polegeom():
    """Import polegeom from this checkout's src/, never from elsewhere."""
    if not (SRC / "polegeom" / "__init__.py").is_file():
        raise BenchError(f"no polegeom package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import polegeom

    origin = Path(polegeom.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"polegeom imported from {origin}, not from {SRC}")
    return polegeom


def git_commit() -> Optional[str]:
    """The checkout's commit from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """sha256 over polegeom's Python sources, which identify the code run."""
    h = hashlib.sha256()
    for path in sorted((SRC / "polegeom").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def set_up(workload: str, seed: int, specs: Optional[Dict] = None, tracer=None):
    """Import, generate the seeded inputs, run one untimed warm-up job.

    Returns ``(setup_s, jobs, digest)``.  ``specs`` defaults to the
    workloads of ``workloads.WORKLOADS``.  With a tracer, the input
    generation (the pullbacks) is traced.
    """
    t0 = time.perf_counter()
    import_polegeom()
    import workloads

    specs = workloads.WORKLOADS if specs is None else specs
    if workload not in specs:
        raise BenchError(f"unknown workload {workload!r} (choose from {sorted(specs)})")
    if tracer is not None:
        tracer.install()
    try:
        jobs, digest = workloads.build_jobs(specs[workload], seed, workload)
    finally:
        if tracer is not None:
            tracer.uninstall()
    workloads.run_job(workloads.warmup_job(workload))
    return time.perf_counter() - t0, jobs, digest


def setup_in_fresh_process(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=str(ROOT))
    if proc.returncode != 0:
        raise BenchError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# -- measuring ----------------------------------------------------------------


class Tally:
    """Per-job latencies and check failures over the measured runs of jobs."""

    def __init__(self):
        self.latencies: Dict[str, List[float]] = {}
        self.pass_walls: List[float] = []
        self.failures: List[dict] = []
        self.outputs: Dict[str, dict] = {}
        self.attempted = 0

    def run_job(self, job, tracer=None) -> float:
        import workloads

        raw, error = None, None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                raw = workloads.run_job(job)
            else:
                with tracer.span("job"):
                    raw = workloads.run_job(job)
        except Exception:  # a crashing job is a failed job; keep going
            error = traceback.format_exc(limit=3)
        latency = time.perf_counter() - t0
        self.attempted += 1
        self.latencies.setdefault(job.name, []).append(latency)
        if error is not None:
            self.failures.append({"job": job.name, "error": error})
            return latency
        got = workloads.outcome(job, raw)
        self.outputs[job.name] = got
        bad = workloads.mismatches(job, got)
        if bad:
            self.failures.append({
                "job": job.name,
                "keys": bad,
                "got": {k: got.get(k) for k in bad},
                "want": {k: job.expected[k] for k in bad},
            })
        return latency

    def run_pass(self, jobs, tracer=None) -> float:
        t0 = time.perf_counter()
        for job in jobs:
            self.run_job(job, tracer)
        wall = time.perf_counter() - t0
        self.pass_walls.append(wall)
        return wall

    def job_medians(self) -> List[float]:
        return [statistics.median(v) for v in self.latencies.values()]


def measure(jobs, seconds: float) -> Tally:
    """Closed loop over the job list for about ``seconds``.

    Every job runs once; then the loop cycles through the list again and
    stops before the first job that would, going by its last latency,
    end after ``seconds``.
    """
    tally = Tally()
    start = time.perf_counter()
    tally.run_pass(jobs)
    k = 0
    while True:
        job = jobs[k % len(jobs)]
        if time.perf_counter() - start + tally.latencies[job.name][-1] > seconds:
            return tally
        tally.run_job(job)
        k += 1


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(tally: Tally, setup_samples: List[float]) -> Dict[str, float]:
    """Times from each job's median latency, so repeats do not skew the mix."""
    per_job = sorted(tally.job_medians())
    if len(per_job) > 1:
        p90 = statistics.quantiles(per_job, n=10, method="inclusive")[8]
    else:
        p90 = per_job[0]
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": sum(per_job),
        "job_p50_s": statistics.median(per_job),
        "job_p90_s": p90,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer_metrics(tracer, setup_tracer, jobs, untraced: float, traced: float):
    from spans import summarize

    spans = tracer.spans
    rows = summarize(spans)
    setup_rows = summarize(setup_tracer.spans)
    counts = tracer.counts

    def incl(name, table=rows):
        return table.get(name, {}).get("inclusive_s", 0.0)

    def own(name):
        return rows.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    # scans per job: spans are appended in call order, so a job's
    # descendants are the spans between it and the next top-level span
    job_idx = [i for i, s in enumerate(spans) if s[3] == -1]
    per_job = []
    for k, start in enumerate(job_idx):
        stop = job_idx[k + 1] if k + 1 < len(job_idx) else len(spans)
        per_job.append(sum(1 for s in spans[start:stop] if s[0] == "kernels.scan"))
    odd = [c for c, job in zip(per_job, jobs) if job.n % 2 == 1]

    scan_s = own("kernels.scan")
    points = counts["kernels.points_scanned"]
    wedge = counts["projective.wedge2_calls"]
    out = {
        "kernels.scan_calls": calls("kernels.scan"),
        "kernels.points_scanned": points,
        "kernels.scan_s": scan_s,
        "kernels.points_per_s": points / scan_s if scan_s > 0 else 0.0,
        "poles.scans_per_job": sum(per_job) / len(per_job),
        "poles.scans_per_odd_n_job": sum(odd) / len(odd) if odd else 0.0,
        "poles.enumerate_self_s": own("poles.enumerate_poles"),
        "poles.upper_radical_self_s": own("poles.enumerate_upper_radical"),
        "poles.lines_emitted": counts["poles.lines_emitted"],
        "projective.wedge2_calls": wedge,
        "poles.line_yield": counts["poles.lines_emitted"] / wedge if wedge else 0.0,
        "poles.variety_s": incl("poles.pole_variety") + incl("poles.variety_degree"),
        "linalg.pfaffian_s": incl("linalg.pfaffian"),
        "poly.evaluate_calls": counts["poly.evaluate_calls"],
        "geometry.build_self_s": own("geometry.build_geometry"),
        "geometry.incidences": counts["geometry.incidences"],
        "geometry.graph_s": incl("kernels.graph_stats"),
        "geometry.graph_vertices": counts["geometry.graph_vertices"],
        "geometry.graph_edges": counts["geometry.graph_edges"],
        "projective.span_points_calls": calls("projective.span_points"),
        "projective.span_points_s": incl("projective.span_points"),
        "projective.from_pair_calls": counts["projective.from_pair_calls"],
        "fields.of_calls": counts["fields.of_calls"],
        "fields.mul_calls": counts["fields.mul_calls"],
        "cli.emit_s": incl("cli.emit"),
        "cli.output_bytes": counts["cli.output_bytes"],
        "forms.pullback_s": incl("forms.pullback", setup_rows),
        "forms.cube_s": incl("forms.cube"),
        "trace.untraced_wall_s": untraced,
        "trace.traced_wall_s": traced,
        "trace.overhead_s": traced - untraced,
    }
    for metric, span in CHECK_SPANS.items():
        out[metric] = incl(span)
    return out, rows


# -- driver -------------------------------------------------------------------


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  specs: Optional[Dict] = None, setup_samples: int = SETUP_SAMPLES) -> dict:
    """One benchmark run; returns the full record (result line included)."""
    from spans import FIELD_COUNTS, Tracer, self_by_kind

    setup_tracer = Tracer() if trace else None
    setup_s, jobs, digest = set_up(workload, seed, specs, setup_tracer)
    import polegeom
    from polegeom import kernels

    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "input_digest": digest,
        "jobs_per_pass": len(jobs),
        "provenance": {
            "backend": kernels.BACKEND,
            "workers": 1,
            "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "polegeom_file": str(Path(polegeom.__file__).resolve().relative_to(ROOT)),
            "load": "closed loop, one process, one job at a time",
        },
    }
    tally = Tally()
    if trace:
        untraced = tally.run_pass(jobs)
        tracer = Tracer()
        with tracer:
            traced = tally.run_pass(jobs, tracer)
        field_counter = Tracer(spans={}, counts=FIELD_COUNTS)
        with field_counter:
            tally.run_pass(jobs)
        tracer.counts.update(field_counter.counts)
        for name, got in tally.outputs.items():
            if name.startswith("report "):
                tracer.counts["cli.output_bytes"] += got["bytes"]
        metrics, rows = per_layer_metrics(tracer, setup_tracer, jobs, untraced, traced)
        units = PER_LAYER
        record["span_summary"] = rows
        record["self_by_kind"] = self_by_kind(tracer.spans, [job.kind for job in jobs])
        record["spans"] = tracer.spans
        record["counts"] = dict(tracer.counts)
    else:
        samples = [setup_s]
        samples += [setup_in_fresh_process(workload, seed) for _ in range(setup_samples - 1)]
        tally = measure(jobs, seconds)
        metrics = end_to_end_metrics(tally, samples)
        units = END_TO_END
        record["setup_samples_s"] = samples
        record["first_pass_wall_s"] = tally.pass_walls[0]
        record["job_latencies_s"] = tally.latencies
    attempted, failed = tally.attempted, len(tally.failures)
    record["failed_ratio"] = failed / attempted
    record["failures"] = tally.failures
    record["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return record


def write_record(record: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record))
    return path


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        guard_environment()
        if args.setup_only:
            setup_s, _, _ = set_up(args.workload, args.seed)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    path = write_record(record)
    detail = {k: record[k] for k in ("workload", "seed", "input_digest", "jobs_per_pass",
                                     "failed_ratio", "provenance")}
    detail["failures"] = record["failures"][:5]
    detail["record"] = str(path.relative_to(ROOT))
    print(json.dumps(detail))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
