#!/usr/bin/env python3
"""Print one sha256 over the constructions of 360 seeded E[m] instances.

Each instance (q < 150, m = 2..13) contributes its (q, A, B, m) and the
construction record the tests pin: n, the Frobenius matrix, the pairing
root, the table of E[m] and its decomposition.  Run it on two source trees
to see whether a change moved any output of ``torsion_data``:

    PYTHONPATH=src python scripts/construction_hash.py
"""

import hashlib
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from polyhelpers import construction_record, seeded_curves  # noqa: E402

from torsionfields.torsion import torsion_data  # noqa: E402

COUNT = 360
SEED = 20


def main() -> int:
    t0 = time.process_time()
    h = hashlib.sha256()
    models = Counter()
    for q, A, B, m in seeded_curves(COUNT, seed=SEED, low_m=2):
        td = torsion_data(q, A, B, m)
        h.update(repr((q, A, B, m)).encode() + construction_record(td).encode())
        models[type(td.field).__name__] += 1
    print(f"{COUNT} instances ({', '.join(f'{k} {v}' for k, v in sorted(models.items()))}), "
          f"{time.process_time() - t0:.1f} s CPU")
    print(f"sha256 {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
