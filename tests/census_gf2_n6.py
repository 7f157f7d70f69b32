"""The exhaustive census of GF(2)^6: every one of the 2^20 - 1 nonzero
forms matches a catalog row by its fingerprint, and the rows are hit
exactly the orbit sizes |GL(6,2)|/|Stab|, with |GL(6,2)| = 20,158,709,760.

It runs for about four and a half minutes (257 s on a 2-core machine),
so pytest does not collect it (the name does not start with ``test_``).
Run it from the repository root as

    PYTHONPATH=src python tests/census_gf2_n6.py
"""

import itertools
import time

from polegeom.fields import GF
from polegeom.forms import TriForm
from test_census import _census

# T1: [6 choose 3]_2 decomposable forms; T2: 63 radicals x 868 rank-5
# forms on GF(2)^5; the others are |GL(6,2)| over stabilizers of order
# 56,448 (T3), 120,960 (T10_2(1)) and 43,008 (T4)
EXPECTED = {"T1": 1_395, "T2": 54_684, "T3": 357_120, "T10_2": 166_656, "T4": 468_720}


def main() -> None:
    field = GF(2)
    triples = list(itertools.combinations(range(1, 7), 3))
    forms = (
        TriForm(6, field, dict(zip(triples, bits)))
        for bits in itertools.product((0, 1), repeat=len(triples))
        if any(bits)
    )
    start = time.perf_counter()
    counts = _census(forms, 6, field)
    elapsed = time.perf_counter() - start
    print(", ".join(f"{tag} {count:,}" for tag, count in counts.most_common()))
    print(f"{sum(counts.values()):,} forms in {elapsed:.0f} s")
    assert sum(counts.values()) == 2 ** len(triples) - 1
    assert counts == EXPECTED, counts


if __name__ == "__main__":
    main()
