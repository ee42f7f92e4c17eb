"""One repetition of a benchmark workload in a fresh interpreter.

    python3 perfbench/rep.py SPAWN_TIME setup
    python3 perfbench/rep.py SPAWN_TIME WORKLOAD SEED TRACE [PRIMES]

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start-up and ``import
wittcoh``, as a user of the package pays them.  The workload's reference
kernel runs, timed as ``ref_s``, before the tracer is installed and
before the workload, so nothing the program leaves behind can slow it.  PRIMES, comma separated,
replaces the workload's primes.  Prints one JSON object on stdout.
"""

import sys
import time

SPAWN_TIME = float(sys.argv[1])

import wittcoh  # noqa: E402 - the import is the set-up being timed

SETUP_S = time.monotonic() - SPAWN_TIME

import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import KERNELS  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, execute, gate  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    if not Path(wittcoh.__file__).resolve().is_relative_to(SRC):
        print(f"wittcoh was imported from {wittcoh.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if argv == ["setup"]:
        print(json.dumps({"setup_s": SETUP_S}))
        return 0
    name, seed, traced, *primes = argv
    workload = WORKLOADS[name]
    if primes:
        workload = dataclasses.replace(workload, primes=tuple(int(p) for p in primes[0].split(",")))
    wall0 = time.monotonic()
    KERNELS[workload.reference]()
    ref_s = time.monotonic() - wall0
    gc.collect()
    tracer = Tracer() if traced == "1" else None
    if tracer is not None:
        tracer.install()
        unwrapped = tracer.unwrapped_aliases()
        if unwrapped:
            print(f"traced functions left unwrapped: {unwrapped}", file=sys.stderr)
            return 2

    cpu0, wall0 = _cpu_s(), time.monotonic()
    try:
        outputs = execute(workload, int(seed))
    finally:
        wall_s, cpu_s = time.monotonic() - wall0, _cpu_s() - cpu0
        if tracer is not None:
            tracer.uninstall()
    result = {
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "ref_s": ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "gate": gate(workload, outputs),
    }
    if tracer is not None:
        if not tracer.restored():
            print("tracer left a wrapper installed", file=sys.stderr)
            return 2
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{workload.name}.jsonl")
        result["layers"] = tracer.layer_stats()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[2:]))
