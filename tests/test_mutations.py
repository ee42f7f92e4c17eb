"""Negative controls: each mutation corrupts one kernel of the complex, and the set of checks it fails is pinned.

A route that shares a bug with its oracle passes vacuously; each row of
the table names the checks that catch its mutation at p = 7 and 13.  The
mutations cover both halves of the rank certificates: d2's grade blocks,
their kernels and the inverse X of the lower bound, and ker d2_res.
ordinary.block_full_agreement, the rank certificates, must be in every
set.  A check that stops failing under its mutation is a regression.
"""

import numpy as np
import pytest

from wittcoh import gfp, restricted, verify

# The downstream failures of a complex whose ordinary degree-2 kernel is wrong.
WRONG_KERNEL = {
    "ordinary.block_full_agreement",
    "ordinary.graded_kernel_dims",
    "ordinary.cohomology_dims",
    "restricted.kernel_structure",
    "restricted.h2_dimension",
    "extensions.splitting_independence",
    "extensions.axioms",
    "extensions.negative_control",
    "extensions.class_independence",
    "extensions.classification_counts",
    "report.dims_closed_forms",
}


def corrupted_block_entry(monkeypatch):
    # The complex reduces d2's grade blocks with one nonzero entry changed (to another nonzero, so the
    # grading check still counts every entry); verify gathers the blocks from d2 itself.
    block = restricted.delta2_block

    def corrupted(d2, p, k):
        blocks = block(d2, p, k).copy()
        blocks[tuple(np.argwhere((blocks != 0) & (blocks != p - 1))[0])] += 1
        return blocks

    monkeypatch.setattr(restricted, "delta2_block", corrupted)


def dropped_kernel_vector(monkeypatch):
    # The first free column of the stacked blocks' elimination is reported as a pivot, its vector dropped.
    kernels = gfp.PrimeField.kernels

    def dropped(self, m):
        vectors, free = kernels(self, m)
        if np.ndim(m) == 3:
            vectors, free = vectors.copy(), free.copy()
            k, c = np.argwhere(free)[0]
            free[k, c], vectors[k, c] = False, 0
        return vectors, free

    monkeypatch.setattr(gfp.PrimeField, "kernels", dropped)


def wrong_inverse(monkeypatch):
    inverses = gfp.PrimeField.inverses

    def wrong(self, m):
        x = inverses(self, m).copy()
        x[0, 0, 0] = (x[0, 0, 0] + 1) % self.p
        return x

    monkeypatch.setattr(gfp.PrimeField, "inverses", wrong)


def rank_d2_off_by_one(monkeypatch):
    init = restricted.CochainComplex.__init__

    def off_by_one(self, field):
        init(self, field)
        self.rank_d2 += 1

    monkeypatch.setattr(restricted.CochainComplex, "__init__", off_by_one)


def corrupted_restricted_kernel_vector(monkeypatch):
    # One entry of the first vector of ker d2_res changed: d2_res no longer kills it, and the cocycles drawn from it
    # are no longer cocycles.
    init = restricted.CochainComplex.__init__

    def corrupted(self, field):
        init(self, field)
        first = self.ker_d2_res[0].copy()
        first[0] = (first[0] + 1) % field.p
        self.ker_d2_res = (first,) + self.ker_d2_res[1:]

    monkeypatch.setattr(restricted.CochainComplex, "__init__", corrupted)


TABLE = [
    (corrupted_block_entry, WRONG_KERNEL),
    (dropped_kernel_vector, WRONG_KERNEL),
    (wrong_inverse, {"ordinary.block_full_agreement"}),
    (rank_d2_off_by_one, {"ordinary.block_full_agreement", "restricted.kernel_structure"}),
    (
        corrupted_restricted_kernel_vector,
        {"ordinary.block_full_agreement", "restricted.omega_fold_invariance", "extensions.roundtrip"},
    ),
]


@pytest.fixture
def fresh_complex():
    restricted.cochain_complex.cache_clear()
    yield
    restricted.cochain_complex.cache_clear()


@pytest.mark.parametrize("p", [7, 13])
@pytest.mark.parametrize("mutate,failing", TABLE, ids=lambda x: getattr(x, "__name__", ""))
def test_mutation_fails_its_pinned_checks(monkeypatch, fresh_complex, mutate, failing, p):
    mutate(monkeypatch)
    report = verify.run_prime(p)
    assert {c["name"] for c in report["checks"] if not c["pass"]} == failing
    assert not report["all_pass"]
