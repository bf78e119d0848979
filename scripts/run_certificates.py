"""Dual-certificate verification over a batch of planted instances.

For each of --count seeds, generates a planted instance at the given
parameters, runs the full certificate construction and verification, and
tallies how often each condition and the overall verdict hold. A seed whose
Neumann series diverges has no report; it is counted as diverged and the
batch goes on. Writes one JSON report per seed under results/certificates/
plus a summary JSON.
"""

import argparse
import json
import os
import time

from qcr.certificate import CONDITIONS, NeumannDivergenceError, verify_certificate
from qcr.fileio import write_report
from qcr.instances import InstanceParams, derive_seed, gen_planted

CONDITION_LABELS = tuple(c.label for c in CONDITIONS)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--nc", type=int, default=85)
    ap.add_argument("--gamma", type=float, default=0.85)
    ap.add_argument("--rho", type=float, default=0.10)
    ap.add_argument("--lambda", dest="lam", type=float, default=0.1)
    ap.add_argument("--base-seed", type=int, default=1000)
    ap.add_argument("--out-dir", default="results/certificates")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    condition_passes = [0] * len(CONDITIONS)
    overall_passes = 0
    diverged = 0
    t0 = time.perf_counter()
    for k in range(args.count):
        seed = derive_seed(args.base_seed, k)
        inst = gen_planted(
            InstanceParams(n=args.n, n_c=args.nc, gamma=args.gamma, rho=args.rho, seed=seed)
        )
        try:
            rep = verify_certificate(inst, lam=args.lam)
        except NeumannDivergenceError:
            diverged += 1
            continue
        for i, ok in enumerate(rep.conditions):
            condition_passes[i] += ok
        overall_passes += rep.overall
        write_report(rep, os.path.join(args.out_dir, f"report_{k:03d}.json"))
    # timing goes to stdout only, so that summary.json stays deterministic
    wall = time.perf_counter() - t0

    summary = {
        "count": args.count,
        "params": {"n": args.n, "n_c": args.nc, "gamma": args.gamma, "rho": args.rho},
        "lambda": args.lam,
        "base_seed": args.base_seed,
        "condition_passes": dict(zip(CONDITION_LABELS, condition_passes)),
        "overall_passes": overall_passes,
        "diverged": diverged,
    }
    with open(os.path.join(args.out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")

    for label, passes in zip(CONDITION_LABELS, condition_passes):
        print(f"{label}: {passes}/{args.count}")
    print(f"overall: {overall_passes}/{args.count}")
    print(f"diverged: {diverged}/{args.count}")
    print(f"wall time: {wall:.2f} s total, {wall / max(args.count, 1):.3f} s per certificate")
    print(f"wrote per-seed reports and summary.json to {args.out_dir}")


if __name__ == "__main__":
    main()
