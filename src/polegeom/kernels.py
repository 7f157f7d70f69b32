"""Backend selection for the GF(p) scan kernels.

The compiled extension is used when it imported cleanly; setting the
environment variable POLEGEOM_PURE=1 forces the pure-Python fallback.
Both backends expose scan/rank_mod_p/kernel_mod_p with identical output:
the same points, degrees and reduced-echelon radicals, in the canonical
order.  The pure scan walks the points as an odometer over packed-row
integers and needs an alternating cube (it raises ValueError otherwise);
the radicals agree because the reduced echelon form of a row space is
unique.  graph_stats (girth, diameter and connectivity from int-bitset
balls) has one implementation, in _kernels_py, whichever backend is
selected.
"""

from __future__ import annotations

import os

from . import _kernels_py

if os.environ.get("POLEGEOM_PURE"):
    _impl = _kernels_py
else:
    try:
        from . import _gfkernels as _impl  # type: ignore[attr-defined]
    except ImportError:
        _impl = _kernels_py

BACKEND: str = _impl.BACKEND

scan = _impl.scan
rank_mod_p = _impl.rank_mod_p
kernel_mod_p = _impl.kernel_mod_p
graph_stats = _kernels_py.graph_stats


def backend_name() -> str:
    return BACKEND
