"""The benchmark's workloads and the gate that checks their outputs.

Each workload drives the public API (``verify.run_prime`` or
``verify.dims_summary``) for a fixed set of primes.  The reason each one
was chosen is its ``why`` in BENCHMARK.json.  ``layers`` lists the traced
layers the workload is predicted to exercise; the self-test asserts each
of them is called.

Each repetition of a run passes ``run_prime`` another seed derived from
the benchmark seed (``rep_seed``), so a run covers many of the random
elements whose draw sets the cost of ``run_prime``.  A repetition takes
well under a second on either workload, so a run holds dozens of them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    api: str  # "run_prime" or "dims_summary"
    primes: tuple[int, ...]
    reference: str  # the kernel in ``reference.KERNELS`` whose work is like the dominant layer's
    layers: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "enum-p7",
            "run_prime",
            (7,),
            "python",
            (
                "restricted.star_correction",
                "restricted.starstar_correction",
                "restricted.eval_omega",
                "witt.pth_power",
                "witt.pth_power_via_derivation",
                "witt.bracket",
                "extensions.verify_restricted_axioms",
                "extensions.build_extension",
                "extensions.classify_extension",
                "extensions.cohomologous",
                "gfp.rref",
                "verify.run_prime",
            ),
        ),
        Workload(
            "ranks-p19",
            "dims_summary",
            (19,),
            "numpy",
            (
                "gfp.rref",
                "ordinary.delta1_matrix",
                "ordinary.delta2_matrix",
                "ordinary.delta2_block",
                "restricted.delta2_res_matrix",
                "verify.dims_summary",
            ),
        ),
    )
}


def rep_seed(seed: int, index: int) -> int:
    """The seed repetition `index` of a run with benchmark seed `seed` passes to ``run_prime``."""
    return seed * 1000 + index


def execute(workload: Workload, seed: int) -> list[tuple[int, dict]]:
    """Run the workload's primes through the public API; returns (prime, output) pairs."""
    from wittcoh import verify
    from wittcoh.gfp import PrimeField

    if workload.api == "dims_summary":
        return [(p, verify.dims_summary(PrimeField(p))) for p in workload.primes]
    return [(p, verify.run_prime(p, seed=seed)) for p in workload.primes]


def expected_dims(p: int) -> dict:
    """Closed forms for every value ``dims_summary`` reports, valid for p > 3."""
    if p <= 3:
        raise ValueError(f"closed forms below need p > 3, got {p}")
    grades = range(-1, p - 1)
    return {
        "C1": p,
        "C2_cl": p * (p - 1) // 2,
        "C2_res": p * (p + 1) // 2,
        "C3_cl": p * (p - 1) * (p - 2) // 6,
        "C3_res": p * (p + 1) * (p + 2) // 6,
        "H0_cl": 1,
        "H1_cl": 0,
        "H2_cl": 1,
        "H0_res": 1,
        "H1_res": 0,
        "H2_res": p + 1,
        "ker_delta2_res": 2 * p + 1,
        "im_delta1_res": p,
        "graded_kernel_dims_deg1": {str(k): 0 for k in grades},
        "graded_kernel_dims_deg2": {str(k): 2 if k == 0 else 1 for k in grades},
    }


def _flatten(d: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in d.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def gate(workload: Workload, outputs: list[tuple[int, dict]]) -> dict:
    """Check every output; count checks run, failed and skipped.

    A ``run_prime`` report contributes each of its checks (skipped ones are
    counted, not run) plus ``all_pass`` itself; every reported dimension
    of either API is one more check against its closed form.
    """
    run = failed = skipped = 0
    failures: list[str] = []
    for p, out in outputs:
        if workload.api == "run_prime":
            for check in out["checks"]:
                if check["skipped"]:
                    skipped += 1
                    continue
                run += 1
                if not check["pass"]:
                    failed += 1
                    failures.append(f"p={p} {check['name']}: {check['detail']}")
            run += 1
            if out["all_pass"] is not True or out["prime"] != p:
                failed += 1
                failures.append(f"p={p} report: all_pass={out['all_pass']} prime={out['prime']}")
            dims = out["dims"]
        else:
            dims = out
        got, want = _flatten(dims), _flatten(expected_dims(p))
        for key in sorted(set(got) | set(want)):
            run += 1
            if got.get(key) != want.get(key):
                failed += 1
                failures.append(f"p={p} dims.{key} = {got.get(key)} != {want.get(key)}")
    return {"run": run, "failed": failed, "skipped": skipped, "failures": failures}
