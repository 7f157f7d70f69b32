#!/usr/bin/env python3
"""Record the expected answers of every benchmark input into expected.json.

Run from the root of a checkout, on a commit whose answers are trusted:

    python3 perfbench/record_expected.py

It runs each catalog form of the full and the tiny workloads once and
stores what the checks compare: the SHA-256 of each ``poles --output
json`` report with its histogram, pole and line counts, each
fingerprint, and each check verdict.  It refuses to record a check
verdict other than the one the classification predicts: polar, t11, t4,
spread and normal-spread pass, and the T7 cone fails only its
line-plane clause.
"""

from __future__ import annotations

import json
import sys

from run import import_polegeom


def catalog_outcome(workloads, spec):
    from polegeom.fields import GF

    form = workloads.catalog_of(spec)
    job = workloads.Job(spec.key, spec.kind, form, GF(spec.p), {}, form.n)
    return workloads.outcome(job, workloads.run_job(job))


def main() -> int:
    import_polegeom()
    import workloads

    expected = {"report": {}, "classify": {}, "checks": {}}
    specs = [s for table in (workloads.WORKLOADS, workloads.TINY_WORKLOADS)
             for specs in table.values() for s in specs]
    for spec in specs:
        if spec.kind == "hexagon":
            continue  # closed form, nothing to record
        got = catalog_outcome(workloads, spec)
        if spec.kind == "report":
            got.pop("bytes")
            expected["report"][spec.key] = got
        elif spec.kind == "classify":
            expected["classify"][spec.key] = got["fingerprint"]
        else:
            if spec.kind == "cone":
                clauses = [got[k] for k in ("pole_set_ok", "degree4_is_conic",
                                            "line_planes_ok", "off_vertex_ok")]
                ok = clauses == [True, True, False, True]
            else:
                ok = got["pass"] is True
            if not ok:
                print(f"unexpected verdict for {spec.kind} {spec.key}: {got}", file=sys.stderr)
                return 1
            expected["checks"][f"{spec.kind} {spec.key}"] = got
        print(f"recorded {spec.kind} {spec.key}", file=sys.stderr)
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
