#!/usr/bin/env python3
"""Benchmark the compiled scan kernels against the pure-Python twins.

Run:  python benchmarks/bench_kernels.py
"""

import time

from polegeom import _kernels_py
from polegeom.fields import GF
from polegeom.forms import catalog_form
from polegeom.poles import structure_cube
from polegeom.projective import num_projective_points

try:
    from polegeom import _gfkernels
except ImportError:
    _gfkernels = None


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def bench_scan(tag, p, lam=None, want_kernels=True):
    field = GF(p)
    h = catalog_form(tag, field, param=lam)
    cube = structure_cube(h, field)
    total = num_projective_points(p, h.n)
    label = f"scan {tag} gf({p}) [{total} points, kernels={want_kernels}]"
    t_py, out_py = timed(_kernels_py.scan, cube, h.n, p, 0, total, want_kernels)
    if _gfkernels is None:
        print(f"{label:<52} pure {t_py:8.3f}s   (no compiled backend)")
        return
    t_cy, out_cy = timed(_gfkernels.scan, cube, h.n, p, 0, total, want_kernels)
    assert out_py == out_cy, "backend outputs differ"
    print(
        f"{label:<52} pure {t_py:8.3f}s   cython {t_cy:8.3f}s   x{t_py / t_cy:6.1f}"
    )


def main():
    print("backend available:", "cython" if _gfkernels else "pure only")
    bench_scan("T9", 2)
    bench_scan("T9", 3)
    bench_scan("T9", 5, want_kernels=False)
    bench_scan("T10_1", 7, lam=3)


if __name__ == "__main__":
    main()
