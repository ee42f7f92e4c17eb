"""Exact linear algebra over GF(p)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wittcoh.gfp import PrimeField, is_prime

SMALL_PRIMES = [3, 5, 7, 11, 13]


def test_primality_by_trial_division():
    assert [n for n in range(2, 32) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@pytest.mark.parametrize("bad", [1, 2, 4, 9, 15, 21])
def test_field_rejects_bad_moduli(bad):
    with pytest.raises(ValueError):
        PrimeField(bad)


def test_inverse_examples():
    assert PrimeField(5).inv(2) == 3
    for p in SMALL_PRIMES:
        assert PrimeField(p).inv(1) == 1
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(0)


@given(st.sampled_from(SMALL_PRIMES), st.data())
def test_inverse_property(p, data):
    field = PrimeField(p)
    a = data.draw(st.integers(min_value=1, max_value=p - 1))
    assert a * field.inv(a) % p == 1


def test_rref_examples():
    f = PrimeField(5)
    eye = np.eye(3, dtype=np.int64)
    r, pivots = f.rref(eye)
    assert (r == eye).all() and pivots == [0, 1, 2]

    r, pivots = f.rref([[1, 2], [2, 4]])
    assert (r == np.array([[1, 2], [0, 0]])).all() and pivots == [0]

    r, pivots = f.rref(np.zeros((2, 3), dtype=np.int64))
    assert not r.any() and pivots == []


def test_rank_examples():
    f = PrimeField(5)
    assert f.rank(np.eye(4, dtype=np.int64)) == 4
    assert f.rank([[1, 2], [2, 4]]) == 1
    assert f.rank(np.zeros((3, 2), dtype=np.int64)) == 0


def test_kernel_examples():
    f = PrimeField(5)
    m = f.matrix([[1, 2], [2, 4]])
    basis = f.kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    assert not ((m @ v) % 5).any()
    # v is proportional to (3, 1): the cross term vanishes
    assert (v[0] * 1 - v[1] * 3) % 5 == 0 and v.any()

    assert f.kernel_basis(np.eye(3, dtype=np.int64)) == []
    assert len(f.kernel_basis(np.zeros((2, 2), dtype=np.int64))) == 2


@st.composite
def matrix_and_field(draw):
    p = draw(st.sampled_from(SMALL_PRIMES))
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=6))
    entries = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=p - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return PrimeField(p), np.array(entries, dtype=np.int64)


@given(matrix_and_field())
def test_rank_nullity(fm):
    field, m = fm
    assert field.rank(m) + len(field.kernel_basis(m)) == m.shape[1]


@given(matrix_and_field())
def test_rref_idempotent(fm):
    field, m = fm
    r1, piv1 = field.rref(m)
    r2, piv2 = field.rref(r1)
    assert (r1 == r2).all() and piv1 == piv2
    assert piv1 == sorted(piv1)


@given(matrix_and_field())
def test_kernel_vectors_annihilate(fm):
    field, m = fm
    for v in field.kernel_basis(m):
        assert not ((m @ v) % field.p).any()


@given(matrix_and_field(), st.randoms(use_true_random=False))
def test_rank_invariant_under_row_permutation(fm, rnd):
    field, m = fm
    perm = list(range(m.shape[0]))
    rnd.shuffle(perm)
    assert field.rank(m[perm]) == field.rank(m)
