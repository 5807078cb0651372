#!/usr/bin/env python3
"""Tensor-square amplification experiments.

Prints (1) the iterated distance orbit from several starting points, showing
convergence to sqrt(2), and (2) a measured-vs-predicted table for random
unitary pairs, one amplification step, using the phase-aligned input
distance in which the one-step law is exact.
"""

import argparse

import numpy as np

from soficlab.amplify import (
    SQRT2,
    amplification_report,
    iterate_amplification,
    iterations_to_tolerance,
)
from soficlab.metrics import random_unitaries


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rank", type=int, default=3)
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=1e-6)
    args = parser.parse_args()

    print(f"orbit convergence to sqrt(2) = {SQRT2:.12f} (tolerance {args.tol:g})")
    for d0 in (0.05, 0.3, 0.9, 1.9):
        steps = iterations_to_tolerance(d0, args.tol)
        orbit = iterate_amplification(d0, steps + 1)
        shown = ", ".join(f"{d:.6f}" for d in orbit[: min(6, len(orbit))])
        print(f"  d0 = {d0:4.2f}: {steps:2d} steps   [{shown}{', ...' if len(orbit) > 6 else ''}]")

    us = random_unitaries(args.rank, 2 * args.pairs, np.random.default_rng(args.seed))
    report = amplification_report(list(zip(us[::2], us[1::2])))
    print(f"\none amplification step, U({args.rank}) -> U({args.rank ** 2}), seed {args.seed}")
    print(f"  {'d_in':>10} {'predicted':>10} {'measured':>10} {'error':>9}")
    for d_in, pred, meas in report.pairs:
        print(f"  {d_in:10.6f} {pred:10.6f} {meas:10.6f} {abs(pred - meas):9.2e}")
    print(f"  max prediction error: {report.max_prediction_error():.2e}")


if __name__ == "__main__":
    main()
