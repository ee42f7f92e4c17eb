"""Trace the peaks of the two p-maps' folds of 20 shuffled rows at one prime and check them against their bounds.

    python tests/check_fold_peaks.py PRIME [--max-mib POWER OMEGA]

The rows are witt.random_rows(random.Random(1), PRIME, 20, nonzero=True),
each folded in a shuffled order of its support drawn from the same
generator (witt.shuffled_support).  They are folded once through
witt.pth_power_rows and once through restricted.omega_functional_rows,
each under tracemalloc, and the two traced peaks are printed in MiB.  The
exit status is 0 when the peaks are within POWER and OMEGA MiB, or, with
no bounds given, within witt._SWEEP_BYTES; otherwise the bound passed is
printed.
"""

import argparse
import random
import sys
import tracemalloc

from wittcoh import restricted, witt
from wittcoh.gfp import PrimeField


def traced_peak(fold, rows, p, orders) -> int:
    """The traced peak, in bytes, of one call of fold."""
    tracemalloc.start()
    try:
        fold(rows, p, orders)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("prime", type=int)
    parser.add_argument("--max-mib", type=float, nargs=2, metavar=("POWER", "OMEGA"), help="the bounds of the folds")
    args = parser.parse_args(argv)
    p = args.prime
    rng = random.Random(1)
    rows = witt.random_rows(rng, p, 20, nonzero=True)
    orders = [witt.shuffled_support(g, rng) for g in witt.elements(PrimeField(p), rows)]
    peaks = [traced_peak(fold, rows, p, orders) for fold in (witt.pth_power_rows, restricted.omega_functional_rows)]
    mib = [b / 2**20 for b in peaks]
    print("fold peaks at p = {}: pth_power_rows {:.1f} MiB, omega_functional_rows {:.1f} MiB".format(p, *mib))
    if args.max_mib is None:
        return "over witt._SWEEP_BYTES" if max(peaks) > witt._SWEEP_BYTES else 0
    power, omega = args.max_mib
    return f"over the {power:g} or {omega:g} MiB bound" if mib[0] > power or mib[1] > omega else 0


if __name__ == "__main__":
    sys.exit(main())
