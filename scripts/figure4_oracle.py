"""Certify figure 4's pd from the homology oracle alone.

    python3 scripts/figure4_oracle.py

Runs `betti.lattice_pd` on the edges of the whole unreduced 43-vertex
hypergraph in `fixtures/figure4.json`, with no reduction rule, and
prints the pd it finds. That lattice has more elements than
`lattices.DEFAULT_ELEMENT_CAP` (2^18) lets a walk build, so this
process raises the cap to 2^24 first; the walk then takes about 20 s
and under 100 MiB on one core. Exits 1 unless the pd is 36, the
engine's answer and the certified lower bound in the README.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from hyperpd import lattices  # noqa: E402
from hyperpd.betti import lattice_pd  # noqa: E402
from hyperpd.hypergraphs import edge_masks, hypergraph_from_json_dict  # noqa: E402

EXPECTED = 36


def main() -> int:
    with open(os.path.join(ROOT, "fixtures", "figure4.json")) as f:
        H = hypergraph_from_json_dict(json.load(f))
    lattices.DEFAULT_ELEMENT_CAP = 1 << 24
    found = lattice_pd(H.mu, edge_masks(H))
    print(found)
    return 0 if found == EXPECTED else 1


if __name__ == "__main__":
    sys.exit(main())
