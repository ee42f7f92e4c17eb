"""Self-test of the benchmark at p = 5, run from the root of a source checkout.

    python3 perfbench/selftest.py

Checks that the tracer restores every original function and would catch
an alias it failed to wrap; that each workload calls every layer it is
predicted to exercise; that call and cell counts repeat exactly for the
same seed; that the output gate rejects a wrong dimension; and that the
metric and workload names agree with BENCHMARK.json.  Exits 1 on the
first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

from run import END_TO_END, PER_LAYER, ROOT, spawn
from workloads import WORKLOADS, execute, gate

PRIME = 5
SEED = 3


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def tracer_checks() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import wittcoh.verify  # noqa: F401 - loads every traced module
    from tracer import TARGETS, Tracer, _namespaces, _resolve

    before = {(owner, key): value for owner in _namespaces() for key, value in vars(owner).items()}
    original = _resolve(*TARGETS[1])
    tracer = Tracer()
    tracer.install()
    check(not tracer.unwrapped_aliases(), "install wraps every alias of every traced function")
    from wittcoh import extensions, gfp, ordinary, witt

    check(
        all(hasattr(f, "__wrapped__") for f in (extensions.pth_power, ordinary.bracket, witt.pth_power, gfp.PrimeField.rref)),
        "names imported into other modules and methods are wrapped too",
    )
    wittcoh.verify.planted_alias = original
    check("wittcoh.verify.planted_alias" in tracer.unwrapped_aliases(), "an unwrapped alias is caught")
    del wittcoh.verify.planted_alias
    tracer.uninstall()
    after = {(owner, key): value for owner in _namespaces() for key, value in vars(owner).items()}
    check(
        tracer.restored() and before.keys() == after.keys() and all(after[k] is v for k, v in before.items()),
        "uninstall restores every original",
    )

    bad = dataclasses.replace(WORKLOADS["ranks-p19"], primes=(PRIME,))
    dims = execute(bad, SEED)
    dims[0][1]["H2_res"] += 1
    result = gate(bad, dims)
    check(result["failed"] == 1 and "H2_res" in result["failures"][0], "the gate rejects a wrong H2_res")


def workload_checks() -> None:
    for name, workload in WORKLOADS.items():
        first, second = (spawn(name, str(SEED), "1", str(PRIME), deadline=time.monotonic() + 60) for _ in range(2))
        a, b = first["layers"], second["layers"]
        check(first["gate"]["failed"] == 0 and first["gate"]["run"] > 0, f"{name}: outputs pass the gate")
        missing = [layer for layer in workload.layers if not a[f"{layer}.calls"] > 0]
        check(not missing, f"{name}: every predicted layer is called {missing or ''}")
        counts = [k for k in a if k.endswith(".calls") or (k.startswith("gfp.rref.") and not k.endswith("_s"))]
        differ = [k for k in counts if a[k] != b[k]]
        check(not differ, f"{name}: {len(counts)} counts repeat exactly for seed {SEED} {differ or ''}")
        check(set(a) | {"trace.overhead_s", "host.steal_frac"} == set(PER_LAYER), f"{name}: layer metric names")


def benchmark_json_checks() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads")
    check(
        {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
        and {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
        "BENCHMARK.json metric names and units",
    )


if __name__ == "__main__":
    tracer_checks()
    workload_checks()
    benchmark_json_checks()
