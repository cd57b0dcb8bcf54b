#!/usr/bin/env python3
"""Proportional-fair utility versus the sharing parameter, per potential-D2D
load q: overlay utility over eta and underlay utility over beta.

Shows the optimum locations: the overlay maximiser is insensitive to q once
the mode threshold is large (it converges to the D2D weight), while the
underlay maximiser shifts left as q grows.
"""

import argparse
import csv
import pathlib

import numpy as np

from d2dshare import NetworkParams
from d2dshare.overlay import overlay_rates
from d2dshare.underlay import optimal_access_factor, underlay_rates


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="data")
    ap.add_argument("--mu", type=float, default=710.0, help="mode threshold for the overlay curves")
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    base = NetworkParams(bandwidth_normalization=False)
    etas = np.linspace(0.02, 0.98, 49)
    betas = np.linspace(0.02, 1.0, 50)

    for q in (0.1, 0.2, 0.4):
        p = base.replace(q=q, mu=args.mu)
        rows = [(float(e), overlay_rates(p.replace(eta=float(e))).utility) for e in etas]
        path = outdir / f"overlay_utility_q{q:.1f}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["eta [dimensionless]", "utility [weighted log rate]"])
            w.writerows(rows)
        print("wrote", path)

    for q in (0.2, 0.6, 1.0):
        p = base.replace(q=q)
        rows = [
            (float(b), underlay_rates(p.replace(beta=float(b))).utility) for b in betas
        ]
        star = optimal_access_factor(p)
        path = outdir / f"underlay_utility_q{q:.1f}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["beta [dimensionless]", "utility [weighted log rate]"])
            w.writerows(rows)
        print(f"wrote {path} (beta* = {star:.4f})")


if __name__ == "__main__":
    main()
