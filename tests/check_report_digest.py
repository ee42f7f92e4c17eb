"""Run `wittcoh verify --prime P`, keep its report in rP.jsonl and check it against its pinned digest.

    python tests/check_report_digest.py PRIME [--max-rss MIB]

The report is checked three ways: no check may fail or be skipped; the
SHA-256 of the report without its last newline must be "P:0" of
tests/data/large_prime_digests.json; and the peak RSS of the run, printed
with its wall time, must not pass MIB when a bound is given.  The exit
status is 0 when all hold; otherwise the first that fails is printed.
"""

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "data" / "large_prime_digests.json"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("prime", type=int)
    parser.add_argument("--max-rss", type=float, metavar="MIB", help="the bound on the run's peak RSS")
    args = parser.parse_args(argv)
    p = args.prime
    start = time.perf_counter()
    command = [sys.executable, "-W", "error", "-m", "wittcoh", "verify", "--prime", str(p)]
    out = subprocess.run(command, stdout=subprocess.PIPE, check=True).stdout
    wall, peak = time.perf_counter() - start, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    Path(f"r{p}.jsonl").write_bytes(out)
    print(f"verify --prime {p}: {wall:.0f} s, peak RSS {peak:.0f} MiB")
    bad = [c["name"] for r in map(json.loads, out.splitlines()) for c in r["checks"] if c["skipped"] or not c["pass"]]
    if bad:
        return f"failed or skipped checks: {bad}"
    if hashlib.sha256(out.rstrip(b"\n")).hexdigest() != json.loads(DIGESTS.read_text())[f"{p}:0"]:
        return "the report differs from its digest"
    if args.max_rss is not None and peak > args.max_rss:
        return f"over the {args.max_rss:g} MiB bound"
    return 0


if __name__ == "__main__":
    sys.exit(main())
