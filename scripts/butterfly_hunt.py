#!/usr/bin/env python3
"""Hunt the codimension-4 points of the built-in reaction-diffusion field
for a range of diffusion constants and compare each numerically found
point against the closed-form coordinates.

--k1 and --k2 take comma-separated lists, and every (k1, k2) pair of the
two lists is solved in one process, which reuses the field's compiled
system from pair to pair.

Usage:
    python scripts/butterfly_hunt.py [--k1 1.0[,k1,...]] [--k2 2.0[,k2,...]] [--seeds 256]
"""

import argparse
import itertools
import sys
from pathlib import Path

from catafind import SolveOptions, find_catastrophes, make_reaction_diffusion

# the closed forms are a test oracle, kept next to the tests, not in the package
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from rd_reference import RdReference


def hunt(field, k1, k2, seeds):
    """Print the codimension-4 reports at (k1, k2) against the closed form."""
    ref = RdReference(k1, k2)
    span = 1.5 * max(1.0, k1, k2)
    box = [(-span, span)] * 4 + [(0.0, span)] * 2
    opts = SolveOptions(seed_count=seeds)
    reports = find_catastrophes(field, 4, box, opts, fixed={"k1": k1, "k2": k2})

    print(f"k1={k1} k2={k2}: {len(reports)} codim-4 report(s)")
    targets = {+1: ref.butterfly_point(+1), -1: ref.butterfly_point(-1)}
    for rep in reports:
        u, v = rep.point.x
        branch = +1 if u >= 0 else -1
        tgt = targets[branch]
        err = max(max(abs(a - b) for a, b in zip(rep.point.x, tgt.x)),
                  max(abs(a - b) for a, b in zip(rep.point.alpha, tgt.alpha)))
        print(f"  branch {branch:+d}: (u,v)=({u:+.12f},{v:+.12f})  "
              f"residual={rep.residual:.2e}  full={rep.full}  "
              f"subrank_ok={rep.subrank_ok}  |closed-form err|={err:.2e}")


def floats(text):
    return [float(t) for t in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k1", type=floats, default=[1.0])
    ap.add_argument("--k2", type=floats, default=[2.0])
    ap.add_argument("--seeds", type=int, default=256)
    args = ap.parse_args()

    field = make_reaction_diffusion()
    for k1, k2 in itertools.product(args.k1, args.k2):
        hunt(field, k1, k2, args.seeds)


if __name__ == "__main__":
    main()
