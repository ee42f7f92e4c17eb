"""Benchmark of the wittcoh verifier, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs the workload's primes in a fresh interpreter
(``rep.py``) that imports wittcoh from ``src/`` as a user of ``wittcoh
verify`` would, with a seed of its own derived from N, and checks every
output against the closed forms in ``workloads.py``.
Repetitions run back to back, one at a time, until the next one would end
after S seconds; at least one always runs.

With ``--trace 0`` the end-to-end metrics are medians over repetitions.
``wall_rel`` is the workload's wall time over that of the reference kernel
timed in the same process (``reference.py``), which cancels the host's
drift; the raw times are printed too, but not reported as metrics.
With ``--trace 1`` every repetition is a pair, untraced then traced, and
the per-layer metrics are medians over the traced ones.  Metric lines go
to stdout; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when every
output is correct, 1 when one is not, 2 when a repetition could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS, rep_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9  # import-only processes per run, added to each repetition's own set-up sample
RUN_LIMIT_S = 170  # a run that is not done by then is aborted, whatever --seconds says

END_TO_END = {
    "wall_rel": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "checks_run": "count",
}
PER_LAYER = {
    **{f"{layer}.{stat}": unit for layer in LAYERS for stat, unit in (("calls", "count"), ("self_s", "s"))},
    "gfp.rref.cells": "count",
    "gfp.rref.max_cells": "count",
    "gfp.rref.distinct_frac": "ratio",
    "trace.overhead_s": "s",
    "host.steal_frac": "ratio",
}


class RepetitionError(RuntimeError):
    """A repetition exited with an error or printed no result."""


def spawn(*args: str, deadline: float) -> dict:
    """Run rep.py in a fresh interpreter, killed at `deadline`; return the JSON it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    spawn_time = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), repr(spawn_time), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(deadline - spawn_time, 0.0),
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RepetitionError(f"rep.py {' '.join(args)} exited with status {proc.returncode}")
    return json.loads(lines[-1])


def cpu_times() -> list[int]:
    """Cumulative host CPU ticks (user .. steal) from /proc/stat, read-only."""
    with open("/proc/stat") as stat:
        return [int(x) for x in stat.readline().split()[1:9]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of host CPU time stolen by the hypervisor between two readings."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def repetition(workload: str, seed: int, index: int, traced: bool, deadline: float) -> dict:
    """Repetition `index` of a run: one process, given its own seed (``rep_seed``)."""
    return spawn(workload, str(rep_seed(seed, index)), str(int(traced)), deadline=deadline)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[dict], list[dict], float]:
    """Repeat the workload for about `seconds`.

    Returns the metrics, the untraced and the traced repetitions' results,
    and the host steal share over the run.
    """
    start, ticks = time.monotonic(), cpu_times()
    deadline = start + RUN_LIMIT_S
    setups = [] if trace else [spawn("setup", deadline=deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    while True:
        t, index = time.monotonic(), len(plain)
        plain.append(repetition(workload, seed, index, False, deadline))
        if trace:
            traced.append(repetition(workload, seed, index, True, deadline))
        longest = max(longest, time.monotonic() - t)
        if time.monotonic() - start + longest > seconds:
            break
    steal = steal_share(ticks, cpu_times())

    def median(key: str, reps: list[dict]) -> float:
        return statistics.median(r[key] for r in reps)

    if trace:
        metrics = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = median("wall_s", traced) - median("wall_s", plain)
        metrics["host.steal_frac"] = steal
    else:
        metrics = {
            "wall_rel": statistics.median(r["wall_s"] / r["ref_s"] for r in plain),
            "setup_s": statistics.median(setups + [r["setup_s"] for r in plain]),
            "peak_rss_mb": median("peak_rss_mb", plain),
            "checks_run": statistics.median(r["gate"]["run"] for r in plain),
        }
    return metrics, plain, traced, steal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wittcoh" / "__init__.py").is_file():
        print(f"no wittcoh package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        metrics, plain, traced, steal = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RepetitionError, subprocess.TimeoutExpired) as e:
        print(f"benchmark aborted: {e}", file=sys.stderr)
        return 2

    units = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(units):
        print(f"metric names differ from the declared ones: {sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 2
    reps = plain + traced
    attempted = sum(r["gate"]["run"] for r in reps)
    failed = sum(r["gate"]["failed"] for r in reps)
    skipped = reps[0]["gate"]["skipped"]
    for r in reps:
        for failure in r["gate"]["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:<44} {value:.6g} {units[name]}")
    print(f"{'failed_frac':<44} {failed / attempted:.6g} ({failed} of {attempted} checks)")
    print(f"{'checks_skipped':<44} {skipped} per repetition")
    print(f"{'repetitions':<44} {len(plain)} untraced, {len(traced)} traced")
    if not args.trace:
        for key in ("wall_s", "cpu_s", "ref_s"):
            print(f"{key + ' (raw, median)':<44} {statistics.median(r[key] for r in plain):.6g} s")
        print(f"{'host.steal_frac':<44} {steal:.6g} ratio")
    correct = failed == 0 and attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
