"""Command-line front end: verification reports, cocycle dumps, extension tables.

Subcommands
    verify     run the per-prime verification suite, one JSON report per line
    cocycles   emit explicit degree-2 cocycles in coordinates
    extension  emit the bracket/p-map presentation of one central extension

Exit status: 0 all checks passed, 1 some check failed, 2 invalid input
(including an --output path that cannot be written, and a prime of any
subcommand whose dense d2 matrix, one byte per entry, would exceed the
memory limit, p > 103: one size rule for all three, checked on every
integer before its primality and before any work, so a --primes range
ends at once at its first integer above 104).
Every flag has an environment-variable fallback named WITTCOH_<FLAG>
(e.g. WITTCOH_SEED); command-line values win, also over the environment
value of a conflicting flag (--prime against WITTCOH_PRIMES and --primes
against WITTCOH_PRIME).  Output is deterministic:
byte-identical across runs and across --jobs values for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from multiprocessing import Pool

import numpy as np

from .extensions import build_extension, verify_restricted_axioms
from .gfp import PrimeField, is_prime
from .ordinary import virasoro_cocycle, wedge_pairs
from .restricted import check_dense_d2_size, omega_coordinate, virasoro_cochain
from .verify import _run_prime_args

_ENV_PREFIX = "WITTCOH_"


def _env_default(name: str, fallback=None):
    return os.environ.get(_ENV_PREFIX + name.upper().replace("-", "_"), fallback)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _parse_primes(single, chain) -> list[int] | str:
    """Primes to run, from --prime or an inclusive --primes A..B range."""
    if single is not None and chain is not None:
        return "use either --prime or --primes, not both"
    if single is not None:
        return _prime_refusal(single) or [single]
    if chain is not None:
        parts = chain.split("..")
        if len(parts) != 2:
            return f"range must look like A..B, got {chain!r}"
        try:
            lo, hi = int(parts[0]), int(parts[1])
        except ValueError:
            return f"range must look like A..B with integers, got {chain!r}"
        primes = []
        for n in range(max(lo, 3), hi + 1):
            refusal = _refusal(n)  # before primality; the size rule refuses every larger n too
            if refusal:
                return refusal
            if is_prime(n):
                primes.append(n)
        if not primes:
            return f"no primes >= 3 in {chain}"
        return primes
    return "one of --prime or --primes is required"


def _refusal(n: int) -> str | None:
    """Why n is refused as too large for its dense d2 matrix, or None."""
    try:
        check_dense_d2_size(n)
    except ValueError as e:
        return str(e)
    return None


def _prime_refusal(n: int | None) -> str | None:
    """Why --prime n is refused, or None: the size rule comes before
    primality, so any n above the cap gets the size message."""
    if n is None:
        return "--prime is required"
    return _refusal(n) or (None if n >= 3 and is_prime(n) else f"{n} is not prime (need an odd prime >= 3)")


def cmd_verify(args) -> int:
    single, chain = args.prime, args.primes
    # A flag given on the command line overrides the environment value of the other.
    if args.given == {"prime"}:
        chain = None
    elif args.given == {"primes"}:
        single = None
    primes = _parse_primes(single, chain)
    if isinstance(primes, str):
        return _fail(primes)
    if args.jobs < 1:
        return _fail(f"--jobs must be at least 1, got {args.jobs}")
    jobs = [(p, args.seed) for p in primes]
    workers = min(args.jobs, len(primes), os.cpu_count() or 1)
    if workers > 1:
        with Pool(workers) as pool:
            reports = pool.map(_run_prime_args, jobs)
    else:
        reports = [_run_prime_args(j) for j in jobs]
    ok = True
    for report in reports:
        print(json.dumps(report))
        ok = ok and report["all_pass"]
    return 0 if ok else 1


def cmd_cocycles(args) -> int:
    p = args.prime
    refusal = _prime_refusal(p)
    if refusal:
        return _fail(refusal)
    field = PrimeField(p)
    which = args.which

    def phi10_payload() -> dict:
        return {f"({i},{j})": v for (i, j), v in zip(wedge_pairs(p), virasoro_cocycle(field).values) if v}

    def omega_payload(i: int) -> dict:
        c = omega_coordinate(field, i)
        return {str(j): c.omega_value(j) for j in range(-1, p - 1)}

    if which[0] == "phi10":
        if len(which) != 1:
            return _fail("phi10 takes no index")
        if p == 3:
            return _fail("the phi10 cocycle needs p > 3")
        out = {"prime": p, "which": "phi10", "phi": phi10_payload()}
    elif which[0] == "omega":
        if len(which) != 2:
            return _fail("omega needs a basis index, e.g. --which omega 0")
        try:
            i = int(which[1])
        except ValueError:
            return _fail(f"bad basis index {which[1]!r}")
        if not -1 <= i <= p - 2:
            return _fail(f"basis index {i} out of range [-1, {p - 2}]")
        out = {"prime": p, "which": "omega", "index": str(i), "omega": omega_payload(i)}
    elif which[0] == "all":
        if len(which) != 1:
            return _fail("all takes no index")
        out = {
            "prime": p,
            "which": "all",
            "phi10": phi10_payload() if p > 3 else None,
            "omega": {str(i): omega_payload(i) for i in range(-1, p - 1)},
        }
    else:
        return _fail(f"unknown cocycle selector {which[0]!r} (expected phi10, omega I, or all)")
    print(json.dumps(out))
    return 0


def cmd_extension(args) -> int:
    p = args.prime
    refusal = _prime_refusal(p)
    if refusal:
        return _fail(refusal)
    field = PrimeField(p)
    which = args.which
    if which == "virasoro":
        if p == 3:
            return _fail("the virasoro extension needs p > 3")
        cocycle = virasoro_cochain(field)
    else:
        try:
            i = int(which)
        except ValueError:
            return _fail(f"bad selector {which!r} (expected a basis index or 'virasoro')")
        if not -1 <= i <= p - 2:
            return _fail(f"basis index {i} out of range [-1, {p - 2}]")
        cocycle = omega_coordinate(field, i)
    ext = build_extension(cocycle)
    report = verify_restricted_axioms(ext, trials=5, seed=args.seed)

    # np.argwhere and boolean indexing both walk the nonzero entries in row-major order.
    labels = [f"e{i}" for i in range(-1, p - 1)] + ["c"]
    table, powers = ext.bracket_table, ext.pmap_basis
    entries = zip(np.argwhere(table).tolist(), table[table != 0].tolist())
    triples = [[labels[u], labels[v], labels[w], c] for (u, v, w), c in entries]
    pmap = {label: {} for label in labels}
    for (u, w), c in zip(np.argwhere(powers).tolist(), powers[powers != 0].tolist()):
        pmap[labels[u]][labels[w]] = c

    if args.format == "csv":
        lines = ["left,right,component,coefficient"]
        lines += [",".join(str(x) for x in t) for t in triples]
        text = "\n".join(lines) + "\n"
    else:
        out = {
            "prime": p,
            "which": which,
            "basis": labels,
            "brackets": triples,
            "pmap": pmap,
            "verification": {
                "pass": report.all_pass,
                "checks": [
                    {"name": c.name, "pass": c.passed, "detail": c.detail} for c in report.checks
                ],
            },
        }
        text = json.dumps(out) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as e:
            return _fail(f"cannot write {args.output}: {e.strerror}")
    else:
        sys.stdout.write(text)
    return 0


class _Given(argparse.Action):
    """Stores the value and records the flag in `given`: it came from the command line."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = namespace.given | {self.dest}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittcoh",
        description="Exact verification of the restricted cohomology and central "
        "extensions of the modular Witt algebra over GF(p).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # String defaults go through `type` like command-line values, and only
    # when the flag is absent, so a malformed environment value is a usage
    # error (exit 2) and a command-line value still overrides it.
    def add_common(sp):
        sp.add_argument("--prime", type=int, default=_env_default("prime"), action=_Given)
        sp.add_argument("--seed", type=int, default=_env_default("seed", "0"))
        sp.set_defaults(given=frozenset())

    v = sub.add_parser("verify", help="run the verification suite and emit JSON reports")
    v.add_argument("--primes", default=_env_default("primes"), action=_Given, help="inclusive range A..B")
    v.add_argument("--jobs", type=int, default=_env_default("jobs", "1"))
    add_common(v)
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("cocycles", help="emit explicit degree-2 cocycles as JSON")
    c.add_argument(
        "--which",
        nargs="+",
        default=["all"],
        help="phi10 | omega I | all",
    )
    add_common(c)
    c.set_defaults(fn=cmd_cocycles)

    e = sub.add_parser("extension", help="emit one central extension presentation")
    e.add_argument("--which", default="virasoro", help="basis index i or 'virasoro'")
    e.add_argument("--format", choices=("json", "csv"), default="json")
    e.add_argument("--output", default=None, help="write to a file instead of stdout")
    add_common(e)
    e.set_defaults(fn=cmd_extension)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
