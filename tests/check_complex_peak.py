"""Build the restricted complex of one prime, check its degree-2 dimensions and bound the process's peak RSS.

    python tests/check_complex_peak.py PRIME --max-mib M

verify.dims_summary(PrimeField(PRIME)) assembles and row-reduces the
complex.  The line printed names the peak RSS (ru_maxrss) and
(H2_res, ker_delta2_res).  The exit status is 0 when those are
(PRIME + 1, 2 PRIME + 1), as at every prime above 3, and the peak is
within M MiB; otherwise the failure is printed.
"""

import argparse
import resource
import sys

from wittcoh.gfp import PrimeField
from wittcoh.verify import dims_summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("prime", type=int)
    parser.add_argument("--max-mib", type=float, required=True, help="the bound of the peak RSS")
    args = parser.parse_args(argv)
    p = args.prime
    summary = dims_summary(PrimeField(p))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    dims = (summary["H2_res"], summary["ker_delta2_res"])
    print(f"cochain_complex({p}) peak RSS: {peak:.0f} MiB, (H2_res, ker_delta2_res) = {dims}")
    if dims != (p + 1, 2 * p + 1):
        return f"(H2_res, ker_delta2_res) = {dims}, not {(p + 1, 2 * p + 1)}"
    return f"over the {args.max_mib:g} MiB bound" if peak > args.max_mib else 0


if __name__ == "__main__":
    sys.exit(main())
