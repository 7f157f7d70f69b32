"""Seeded inputs, jobs and exact output checks for the pipeline benchmark.

A workload is a list of instance specs.  Each spec names a catalog form
over GF(p) and how many random GL(n, p) pullbacks of it to add; the
matrices come from this module's own seeded sampler, so what polegeom is
fed does not depend on polegeom's own random helpers.  A job is what one
CLI command would do on one input (``poles --output json``,
``fingerprint`` or ``check <name>``), and its outcome is compared with an
expected answer: a recorded one from ``expected.json`` or, for the
hexagon, the closed form of the split Cayley hexagon H(q).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from polegeom import cli, geometry
from polegeom.fields import GF
from polegeom.forms import TriForm, catalog_form
from polegeom.linalg import Matrix
from polegeom.poles import full_report

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

@dataclass(frozen=True)
class Spec:
    """One catalog instance of a workload and how many pullbacks to add."""

    kind: str  # report, classify or a check name
    tag: str
    p: int
    param: Optional[int] = None
    pullbacks: int = 0
    catalog: bool = True  # include the catalog form itself as a job

    @property
    def key(self) -> str:
        """Instance key of the catalog form, as used in expected.json."""
        name = self.tag if self.param is None else f"{self.tag}({self.param})"
        return f"{name}/gf({self.p})"


@dataclass
class Job:
    name: str
    kind: str
    form: TriForm
    field: GF
    expected: Dict[str, Any]
    n: int


# Parameters satisfying each parametric catalog row's condition over
# GF(2) and GF(3): the desk instances of the test suite.
DESK_PARAMS = {"T10_1": {3: 2}, "T11_1": {3: 2}, "T10_2": {2: 1}, "T11_2": {2: 1}, "T12": {}}
DESK_TAGS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9",
             "T10_1", "T10_2", "T11_1", "T11_2", "T12")


def desk_specs() -> List[Spec]:
    """Every desk instance with 4 pullbacks: 22 instances, 110 jobs."""
    out = []
    for tag in DESK_TAGS:
        for p in (2, 3):
            if tag in DESK_PARAMS:
                if p in DESK_PARAMS[tag]:
                    out.append(Spec("classify", tag, p, DESK_PARAMS[tag][p], 4))
            else:
                out.append(Spec("classify", tag, p, None, 4))
    return out


WORKLOADS: Dict[str, List[Spec]] = {
    "report": [
        Spec("report", "T9", 5, pullbacks=1),
        Spec("report", "T10_1", 7, 3, pullbacks=1),
    ],
    "classify": desk_specs(),
    # every check the CLI offers; GF(5) for the hexagon would take 84 s
    # of pure BFS, and GF(5) for the spreads keeps the normal-spread job
    # near 2 s instead of 13 s, so a run gets through the list twice
    "checks": [
        Spec("hexagon", "T9", 2, pullbacks=4),
        Spec("hexagon", "T9", 3, pullbacks=12),
        Spec("polar", "T5", 3),
        Spec("polar", "T6", 3),
        Spec("polar", "T8", 3),
        Spec("cone", "T7", 3),
        Spec("t11", "T11_1", 3, 2),
        Spec("t4", "T4", 3),
        # coordinate-free checks: one seeded pullback, no catalog job
        Spec("spread", "T10_1", 5, 2, pullbacks=1, catalog=False),
        Spec("normal-spread", "T10_1", 5, 2, pullbacks=1, catalog=False),
    ],
}

# Small versions of the workloads, for the benchmark's own tests.
TINY_WORKLOADS: Dict[str, List[Spec]] = {
    "report": [
        Spec("report", "T9", 2, pullbacks=1),
        Spec("report", "T10_1", 3, 2, pullbacks=1),
    ],
    "classify": [Spec("classify", "T4", 2, pullbacks=1), Spec("classify", "T9", 2, pullbacks=1)],
    "checks": [
        Spec("hexagon", "T9", 2, pullbacks=1),
        Spec("polar", "T8", 2),
        Spec("cone", "T7", 2),
        Spec("t11", "T11_2", 2, 1),
        Spec("t4", "T4", 2),
        Spec("spread", "T10_2", 2, 1, pullbacks=1, catalog=False),
        Spec("normal-spread", "T10_2", 2, 1, pullbacks=1, catalog=False),
    ],
}

# One small untimed job per workload that finishes lazy set-up (imports
# inside functions, encoder state) before anything is timed.
WARMUPS: Dict[str, Spec] = {
    "report": Spec("report", "T9", 2),
    "classify": Spec("classify", "T1", 2),
    "checks": Spec("t4", "T4", 3),
}


# -- seeded inputs ------------------------------------------------------------


def _invertible_mod_p(rows: List[List[int]], p: int) -> bool:
    work = [list(r) for r in rows]
    n = len(work)
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] % p), None)
        if piv is None:
            return False
        work[col], work[piv] = work[piv], work[col]
        inv = pow(work[col][col], p - 2, p)
        for r in range(col + 1, n):
            f = work[r][col] * inv % p
            if f:
                work[r] = [(a - f * b) % p for a, b in zip(work[r], work[col])]
    return True


def random_gl(rng: random.Random, n: int, p: int) -> List[List[int]]:
    """A uniformly random invertible n x n matrix over GF(p)."""
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if _invertible_mod_p(rows, p):
            return rows


def catalog_of(spec: Spec) -> TriForm:
    return catalog_form(spec.tag, GF(spec.p), param=spec.param)


def make_inputs(specs: List[Spec], seed: int, label: str):
    """The seeded pullback matrices for a workload and their digest.

    Returns ``(matrices, digest)`` where ``matrices[i]`` lists the
    matrices for ``specs[i]``.  The digest covers the specs and the
    matrices and so depends on the seed and the benchmark alone.
    """
    rng = random.Random(f"perfbench:{label}:{seed}")
    matrices = []
    for spec in specs:
        n = catalog_of(spec).n
        matrices.append([random_gl(rng, n, spec.p) for _ in range(spec.pullbacks)])
    doc = [[spec.kind, spec.key, spec.catalog, mats] for spec, mats in zip(specs, matrices)]
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    return matrices, digest


def load_expected() -> Dict[str, Dict[str, Any]]:
    return json.loads(EXPECTED_PATH.read_text())


def _hexagon_expected(q: int) -> Dict[str, Any]:
    # split Cayley hexagon H(q): (q^6-1)/(q-1) points and lines, s = t = q,
    # girth 12 and diameter 6 in the incidence graph
    v = (q**6 - 1) // (q - 1)
    return {"stats": [v, v, q + 1, q + 1, 12, 6]}


def expected_for(spec: Spec, expected: Dict[str, Dict[str, Any]], pullback: bool):
    if spec.kind == "hexagon":
        return _hexagon_expected(spec.p)
    if spec.kind == "report":
        want = dict(expected["report"][spec.key])
        if pullback:
            # the JSON of a pullback names a different form; its pole
            # geometry is the catalog form's
            want.pop("sha256")
        return want
    if spec.kind == "classify":
        return {"fingerprint": expected["classify"][spec.key]}
    return expected["checks"][f"{spec.kind} {spec.key}"]


def build_jobs(specs: List[Spec], seed: int, label: str):
    """Jobs of a workload in run order, plus the input digest."""
    expected = load_expected()
    matrices, digest = make_inputs(specs, seed, label)
    groups = []
    for spec, mats in zip(specs, matrices):
        base = catalog_of(spec)
        field = GF(spec.p)
        group = []
        if spec.catalog:
            group.append(Job(f"{spec.kind} {spec.key}", spec.kind, base, field,
                             expected_for(spec, expected, False), base.n))
        for k, rows in enumerate(mats):
            form = base.pullback(Matrix(field, rows))
            group.append(Job(f"{spec.kind} {spec.key} pullback#{k}", spec.kind, form,
                             field, expected_for(spec, expected, True), base.n))
        groups.append(group)
    # Spread each instance's jobs evenly over the pass: the machine's speed
    # drifts within a run, and jobs of one size run back to back would
    # sample only one stretch of it.
    keyed = [((k + (s + 0.5) / len(groups)) / len(group), s, k, job)
             for s, group in enumerate(groups) for k, job in enumerate(group)]
    jobs = [job for *_, job in sorted(keyed, key=lambda t: t[:3])]
    return jobs, digest


def warmup_job(label: str) -> Job:
    spec = WARMUPS[label]
    form = catalog_of(spec)
    return Job(f"warm-up {spec.kind} {spec.key}", spec.kind, form, GF(spec.p), {}, form.n)


# -- running and checking -----------------------------------------------------


def run_job(job: Job) -> Any:
    """The library work of one CLI command; its raw result."""
    form, field = job.form, job.field
    if job.kind == "report":
        payload = full_report(form, field)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli._emit(payload, "json")
        return payload, buf.getvalue()
    if job.kind == "classify":
        return geometry.fingerprint(form, field)
    geom = geometry.build_geometry(form, field)
    if job.kind == "hexagon":
        return geometry.hexagon_check(geom)
    if job.kind == "polar":
        tag = (form.label or "").split("(")[0]
        return list(geom.lines) == geometry.expected_polar_lines(tag, field)
    if job.kind == "cone":
        return geometry.cone_structure_check(geom, form)
    if job.kind == "t11":
        return geometry.t11_structure_check(geom, form)
    if job.kind == "t4":
        return geometry.t4_line_check(geom)
    if job.kind == "spread":
        return geometry.spread_check(geom).is_spread
    if job.kind == "normal-spread":
        return geometry.spread_check(geom).is_spread and geometry.normal_spread_check(geom)
    raise ValueError(f"unknown job kind {job.kind!r}")


def _plain(value):
    return json.loads(json.dumps(value))


def outcome(job: Job, raw: Any) -> Dict[str, Any]:
    """The checked facts of a job's raw result, as plain JSON values."""
    if job.kind == "report":
        payload, text = raw
        return {
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "histogram": payload["histogram"],
            "poles": len(payload["poles"]),
            "lines": len(payload["upper_radical"]),
            "bytes": len(text.encode()),
        }
    if job.kind == "classify":
        return {"fingerprint": _plain(raw.as_tuple())}
    if job.kind == "hexagon":
        return {"stats": list(raw.as_tuple())}
    if job.kind == "cone":
        return {
            "pole_set_ok": raw.pole_set_ok,
            "degree4_is_conic": raw.degree4_is_conic,
            "line_planes_ok": raw.line_planes_ok,
            "off_vertex_ok": raw.off_vertex_ok,
            "witness": raw.witness,
        }
    if job.kind in ("t11", "t4"):
        return {"pass": raw.passed, "witness": raw.witness}
    return {"pass": bool(raw)}


def mismatches(job: Job, got: Dict[str, Any]) -> List[str]:
    """Keys whose value differs from the job's expected answer."""
    return [k for k, want in job.expected.items() if got.get(k) != want]
