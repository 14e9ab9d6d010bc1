#!/usr/bin/env python3
"""Certify the headline ordered families and print the verdict table.

The fallbacks column counts, per prefix Wronskian W_s, the cells whose
double-precision value failed its certificate and was recomputed at 50
digits: scan cells, read for their signs, at the sign tier (rho <= 1e-2),
and refinement, Brent and slope points at the value tier
(rho <= 1e-10); see melnlab.certify._wronskian_logs.

Usage: python scripts/certify_families.py [--interval A:B] [--out OUTDIR]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from melnlab.basis import family
from melnlab.certify import certify_family
from melnlab.reports import write_json

HEADLINERS = [
    ("F1", 1, None), ("F1", 2, None),
    ("F2", 1, None), ("F2", 2, None),
    ("F3", 1, None),
    ("F4", 2, None),
    ("F5", 1, None), ("F5", 2, None),
    ("F6", 2, None),
]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--interval", default="0.1:10")
    parser.add_argument("--out", default="out/certify")
    args = parser.parse_args()
    a, b = (float(p) for p in args.interval.split(":"))
    out = Path(args.out)

    print(f"{'family':>8} {'classification':>16} {'bound':>6} {'nu':>16} "
          f"{'fallbacks':>28} {'time':>7}")
    for name, k, lam in HEADLINERS:
        t0 = time.time()
        fams = family(name, k, lam=lam)
        verdict = certify_family(fams, a, b, name=f"{name}^{k}")
        write_json(out / f"{name}_{k}.json", verdict.to_dict())
        print(f"{name + '^' + str(k):>8} {verdict.classification:>16} "
              f"{str(verdict.zero_bound):>6} {str(list(verdict.nu)):>16} "
              f"{str(list(verdict.fallbacks)):>28} {time.time() - t0:6.1f}s")
    print(f"verdicts written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
