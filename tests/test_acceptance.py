"""Acceptance suite: every headline claim at its exact expected value.

Run with `pytest -s tests/test_acceptance.py` to see one line per criterion.
All comparisons are exact integer equalities; there are no tolerances
anywhere in this suite.
"""

import itertools
import random
from contextlib import contextmanager

import numpy as np
import pytest

from tests.oracles import from_dict, graded_pair_positions, omega_by_enumeration, wedge_triples
from wittcoh.extensions import (
    Classification,
    classify_extension,
    omega_extension,
    verify_restricted_axioms,
    virasoro_extension,
)
from wittcoh.gfp import PrimeField
from wittcoh.ordinary import (
    c2_from_dict,
    delta1_cl,
    delta1_matrix,
    delta2_block,
    delta2_cl,
    delta2_matrix,
    dual_basis,
    virasoro_cocycle,
    wedge_pairs,
)
from wittcoh.restricted import (
    c2_dim,
    c3_dim,
    delta2_res_matrix,
    eval_omega,
    graded_component_kernel_dim,
    ordinary_cohomology_dims,
    restricted_h2,
    virasoro_cochain,
)
from wittcoh.witt import (
    basis_element,
    normalize_index,
    pth_power,
    pth_power_via_derivation,
    random_element,
)

SMALL = [5, 7, 11, 13]
FULL = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


@contextmanager
def criterion(num, description):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {description}")


def test_criterion_01_dimension_theorem():
    with criterion(1, "dim H2 = p+1, ker d2 = 2p+1, im d1 = p for p in 5..37"):
        for p in FULL:
            h2 = restricted_h2(PrimeField(p))
            assert h2.h2_dim == p + 1
            assert h2.ker_dim == 2 * p + 1
            assert h2.im_dim == p


def test_criterion_02_p3_case():
    with criterion(2, "dim H2 = 3 at p = 3"):
        assert restricted_h2(PrimeField(3)).h2_dim == 3


def test_criterion_03_ordinary_cohomology_full_range():
    with criterion(3, "H0=1, H1=0, H2=1 and graded kernel pattern for p in 5..37"):
        for p in FULL:
            field = PrimeField(p)
            hc = ordinary_cohomology_dims(field)
            assert (hc.h0, hc.h1, hc.h2) == (1, 0, 1)
            for k in range(-1, p - 1):
                assert graded_component_kernel_dim(field, k, 2) == (2 if k == 0 else 1)


def test_criterion_04_cochain_dimensions():
    with criterion(4, "coordinate counts match p(p+1)/2 and p(p+1)(p+2)/6"):
        for p in [3] + FULL:
            assert c2_dim(p) == p * (p + 1) // 2
            assert len(wedge_pairs(p)) + p == p * (p + 1) // 2
            assert c3_dim(p) == p * (p + 1) * (p + 2) // 6
            assert len(wedge_triples(p)) + p * p == p * (p + 1) * (p + 2) // 6


def test_criterion_05_explicit_cocycle_identities():
    with criterion(5, "generator cocycle, -2n coboundary identity, grade-0 recursion, p in 5..37"):
        for p in FULL:
            field = PrimeField(p)
            gen = virasoro_cocycle(field)
            assert delta2_cl(gen).is_zero()
            d1 = delta1_matrix(field)
            assert field.rank(np.column_stack([d1, gen.to_vector()])) == field.rank(d1) + 1
            scaled = c2_from_dict(
                field,
                {(n, normalize_index(p - n, p)): -2 * n for n in range(1, (p - 1) // 2 + 1)},
            )
            assert scaled == delta1_cl(dual_basis(field, 0))
            block = delta2_block(delta2_matrix(field), p, 0)
            pairs0 = [wedge_pairs(p)[n] for n in graded_pair_positions(p, 0)]
            index = {pair: n for n, pair in enumerate(pairs0)}
            for v in field.kernel_basis(block):
                def a(n):
                    return int(v[index[(n, normalize_index(p - n, p))]])

                low = int(v[index[(-1, 1)]])
                for n in range(1, (p - 5) // 2 + 1):
                    assert (n * a(n + 2)) % p == ((n + 3) * a(n + 1) + (2 * n + 3) * low) % p


def test_criterion_06_induced_block_vanishes():
    with criterion(6, "beta block of the degree-2 coboundary matrix is zero, p in 5..37"):
        for p in FULL:
            field = PrimeField(p)
            m = delta2_res_matrix(field)
            assert not m[len(wedge_triples(p)) :, :].any()


def test_criterion_07_pth_power_oracle_equivalence():
    with criterion(7, "summand-fold p-th power == derivation p-th power, 100+ elements each prime"):
        for p in SMALL:
            field = PrimeField(p)
            rng = random.Random(7 * p)
            for i in range(-1, p - 1):
                b = basis_element(field, i)
                assert pth_power(b) == pth_power_via_derivation(b)
            for _ in range(100):
                g = random_element(field, rng)
                assert pth_power(g) == pth_power_via_derivation(g)


def test_criterion_08_extension_verification():
    with criterion(8, "all p+1 extensions pass the restricted axioms; corrupted table fails"):
        for p in SMALL:
            field = PrimeField(p)
            for i in range(-1, p - 1):
                report = verify_restricted_axioms(omega_extension(field, i), trials=5, seed=p)
                assert report.all_pass, (p, i, report.failed())
            report = verify_restricted_axioms(virasoro_extension(field), trials=5, seed=p)
            assert report.all_pass, (p, "virasoro", report.failed())
        bad = omega_extension(PrimeField(5), 0).with_bracket_entry_zeroed(1, 2)
        report = verify_restricted_axioms(bad, trials=2)
        assert not report.all_pass
        assert any(c.name == "jacobi" and not c.passed for c in report.checks)


def test_criterion_09_classification_counts():
    with criterion(9, "exactly p classes are trivial as ordinary extensions, one is not"):
        for p in SMALL:
            field = PrimeField(p)
            labels = [classify_extension(c) for c in restricted_h2(field).representatives]
            assert labels.count(Classification.ORDINARY_LEVI_ONLY) == p
            assert labels.count(Classification.NON_LEVI) == 1
            assert Classification.SPLIT not in labels


def test_criterion_10_nonzero_omega_search():
    with criterion(10, "brute-force search finds nonzero omega for the Virasoro cocycle at p=5"):
        field = PrimeField(5)
        c = virasoro_cochain(field)
        nonzero = {}
        for size in (1, 2, 3):
            for combo in itertools.combinations(range(-1, 4), size):
                g = from_dict(field, {i: 1 for i in combo})
                value = omega_by_enumeration(c, g)
                assert eval_omega(c, g) == value
                if value:
                    nonzero[combo] = value
        assert nonzero, "no nonzero omega value among sums of <= 3 basis vectors"
        # The independently enumerated witness value, frozen.
        assert nonzero[(-1, 0, 1)] == 4
        witness = from_dict(field, {-1: 1, 0: 1, 1: 1})
        for order in itertools.permutations([-1, 0, 1]):
            assert eval_omega(c, witness, fold_order=list(order)) == 4
