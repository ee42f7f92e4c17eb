"""Witt algebra bracket, summand expansion and the two p-th power routes."""

import random
import tracemalloc

import numpy as np
import pytest

from tests.oracles import (
    CyclicPoly,
    first_axiom_failure,
    jacobi_failure_by_loops,
    pth_power_by_composition,
    sample_rows,
)
from wittcoh import verify, witt
from wittcoh.extensions import omega_extension, virasoro_extension
from wittcoh.gfp import PrimeField
from wittcoh.witt import (
    ProportionalityError,
    WittElement,
    basis_element,
    bracket,
    bracket_chain,
    from_dict,
    gamma,
    jacobson_s,
    lambda_rows,
    normalize_index,
    pth_power,
    pth_power_basis,
    pth_power_rows,
    pth_power_via_derivation,
    pth_power_via_derivation_rows,
    random_element,
    right_bracket_matrix,
    summands_total,
    zero,
)

F5 = PrimeField(5)
F7 = PrimeField(7)


def e(i, field=F5):
    return basis_element(field, i)


def test_normalize_index():
    assert normalize_index(4, 5) == -1
    assert normalize_index(0, 7) == 0
    assert normalize_index(-3, 5) == 2
    assert all(normalize_index(m, 5) == normalize_index(m + 5, 5) for m in range(-10, 10))


def test_bracket_basis_rule():
    assert bracket(e(1), e(2)) == e(3)
    assert bracket(e(2), e(3)) == e(0)  # 2 + 3 = 0 mod 5
    assert bracket(e(-1), e(1)) == from_dict(F5, {0: 2})
    for i in range(-1, 4):
        assert bracket(e(i), e(i)).is_zero()


def test_bracket_rejects_mismatched_fields():
    with pytest.raises(ValueError):
        bracket(e(0), basis_element(F7, 0))


@pytest.mark.parametrize("p", [11, 13])
def test_bracket_reads_no_structure_tensor(p, monkeypatch):
    # bracket is the formula route, so comparing it with the tensor is a
    # check of two independent routes also on dense elements.
    field = PrimeField(p)
    rng = random.Random(p)
    t = witt._bracket_tensor(p)

    def no_tensor(q):
        raise AssertionError("bracket read the structure tensor")

    monkeypatch.setattr(witt, "_bracket_tensor", no_tensor)
    for _ in range(5):
        x, y = (WittElement(field, tuple(rng.randrange(1, p) for _ in range(p))) for _ in range(2))
        expected = np.einsum("s,t,stm->m", x.coeffs, y.coeffs, t) % p
        assert bracket(x, y).coeffs == tuple(expected.tolist())


def test_bracket_chain_examples():
    # [[e0, e1], e0] = [e1, e0] = -e1
    assert bracket_chain(e(0), [e(1), e(0)]) == from_dict(F5, {1: 4})
    # [[e-1, e1], e1] = [2 e0, e1] = 2 e1
    assert bracket_chain(e(-1), [e(1), e(1)]) == from_dict(F5, {1: 2})
    assert bracket_chain(e(2), [e(2), e(0)]).is_zero()
    with pytest.raises(ValueError):
        bracket_chain(e(0), [])


def test_pth_power_basis():
    assert pth_power_basis(F5, 0) == e(0)
    assert pth_power_basis(F5, 2).is_zero()
    assert pth_power_basis(F5, -1).is_zero()
    with pytest.raises(ValueError):
        pth_power_basis(F5, 4)


def test_jacobson_s_worked_example():
    s = jacobson_s(e(0), e(1))
    assert len(s) == 4
    assert s[0].is_zero() and s[1].is_zero() and s[2].is_zero()
    assert s[3] == e(1)


def test_jacobson_s_degenerate():
    g = from_dict(F5, {-1: 2, 1: 3})
    assert all(s.is_zero() for s in jacobson_s(g, zero(F5)))
    assert all(s.is_zero() for s in jacobson_s(g, g))


def test_pth_power_examples():
    assert pth_power(e(0)) == e(0)
    assert pth_power(e(2)).is_zero()
    g = e(-1) + e(0)
    assert pth_power(g) == g


def test_derivation_oracle_examples():
    assert pth_power_via_derivation(e(-1)).is_zero()
    assert pth_power_via_derivation(e(0)) == e(0)
    g = e(-1) + e(0)
    assert pth_power_via_derivation(g) == g


def test_cyclic_poly_arithmetic():
    f = CyclicPoly(F5, (0, 1, 1, 0, 0))  # x + x^2
    assert f.derivative().coeffs == (1, 2, 0, 0, 0)
    # (x + x^2)^2 = x^2 + 2x^3 + x^4
    assert (f * f).coeffs == (0, 0, 1, 2, 1)
    # wraparound: x^4 * x^2 = x^6 = x
    g = CyclicPoly(F5, (0, 0, 0, 0, 1))
    h = CyclicPoly(F5, (0, 0, 1, 0, 0))
    assert (g * h).coeffs == (0, 1, 0, 0, 0)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_pth_power_oracle_equivalence(p):
    field = PrimeField(p)
    rng = random.Random(0)
    for i in range(-1, p - 1):
        b = basis_element(field, i)
        assert pth_power(b) == pth_power_via_derivation(b)
    for _ in range(25):
        g = random_element(field, rng)
        assert pth_power(g) == pth_power_via_derivation(g)


@pytest.mark.parametrize("p", [5, 7])
def test_antisymmetry_jacobi_exhaustive(p):
    field = PrimeField(p)
    basis = [basis_element(field, i) for i in range(-1, p - 1)]
    for x in basis:
        for y in basis:
            assert (bracket(x, y) + bracket(y, x)).is_zero()
            for z in basis:
                j = (
                    bracket(bracket(x, y), z)
                    + bracket(bracket(y, z), x)
                    + bracket(bracket(z, x), y)
                )
                assert j.is_zero()


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_antisymmetry_jacobi_random(p):
    field = PrimeField(p)
    rng = random.Random(1)
    for _ in range(100):
        x, y, z = (random_element(field, rng) for _ in range(3))
        assert (bracket(x, y) + bracket(y, x)).is_zero()
        j = bracket(bracket(x, y), z) + bracket(bracket(y, z), x) + bracket(bracket(z, x), y)
        assert j.is_zero()


def corrupted_tensor(p, kind):
    """A copy of W's structure constants, broken in one of five ways or (kind "none") whole."""
    t = witt._bracket_tensor(p).copy()
    if kind == "pair":  # [e_1, e_2] = 0 both ways: antisymmetric, Jacobi fails
        t[2, 3] = t[3, 2] = 0
    elif kind == "one-sided":  # [e_2, e_0] changed alone
        t[3, 1, 0] = (t[3, 1, 0] + 1) % p
    elif kind == "diagonal":  # [e_{-1}, e_{-1}] != 0, before any Jacobi failure
        t[0, 0, 2] = 1
    elif kind == "late":  # [e_{p-2}, e_{p-2}] != 0, after Jacobi failures it causes
        t[p - 1, p - 1, 2] = 1
    elif kind == "scaled":  # 2 [x, y] is a Lie bracket too, but not W's
        t = 2 * t % p
    return t


@pytest.mark.parametrize("p", [5, 7, 11])
def test_jacobi_scan_equals_loops(p, monkeypatch):
    field = PrimeField(p)
    tables = [corrupted_tensor(p, kind) for kind in ("none", "pair", "one-sided", "late", "scaled", "diagonal")]
    tables.append(omega_extension(field, 0).bracket_table)
    tables.append(virasoro_extension(field).with_bracket_entry_zeroed(-1, 0).bracket_table)
    rng = np.random.default_rng(p)
    for _ in range(3):  # random single-entry corruptions
        t = witt._bracket_tensor(p).copy()
        t[tuple(rng.integers(0, p, 3))] += 1
        tables.append(t)
    expected = [jacobi_failure_by_loops(t, p) for t in tables]
    assert expected[0] is None and expected[6] is None and expected[1] is not None
    assert [witt.jacobi_scan(t, p) for t in tables] == expected
    for size in (32 * (p + 1) ** 3 * 2, 1):  # two or three u per block, then one
        monkeypatch.setattr(witt, "_SWEEP_BYTES", size)
        assert [witt.jacobi_scan(t, p) for t in tables] == expected


def test_jacobi_scan_stays_within_its_block_bound(monkeypatch):
    p = 17
    t = witt._bracket_tensor(p)
    monkeypatch.setattr(witt, "_SWEEP_BYTES", 32 * p**3)  # one u per block
    tracemalloc.start()
    try:
        assert witt.jacobi_scan(t, p) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= witt._SWEEP_BYTES + 16 * p**3  # and two copies of the p^3 tensor, far below 32 p^4


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("kind", ["pair", "one-sided", "late", "scaled", "diagonal"])
def test_antisymmetry_jacobi_names_the_first_failure_of_a_loop(p, kind, monkeypatch):
    field = PrimeField(p)
    t = corrupted_tensor(p, kind)
    expected = first_axiom_failure(t, field)
    if kind == "scaled":  # a Lie bracket, caught only by comparing witt.bracket with the table
        assert expected is None
        expected = "bracket disagrees with the table on e-1, e0"
    monkeypatch.setattr(witt, "_bracket_tensor", lambda q: t)
    with pytest.raises(AssertionError) as failure:
        verify._antisymmetry_jacobi(field, random.Random(0))
    assert str(failure.value) == expected
    if kind == "late":  # antisymmetry fails too, on a later pair
        assert expected.startswith("Jacobi") and ((t + t.transpose(1, 0, 2)) % p).any()
    if kind == "diagonal":
        assert expected == "antisymmetry fails"


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_antisymmetry_jacobi_draws_100_triples(p):
    field = PrimeField(p)
    rng, reference = random.Random(p), random.Random(p)
    assert verify._antisymmetry_jacobi(field, rng) == f"{p**3 + 100} triples"
    for _ in range(300):
        random_element(field, reference)
    assert rng.random() == reference.random()


@pytest.mark.parametrize("p", [5, 7])
def test_adjoint_power_axiom_exhaustive(p):
    field = PrimeField(p)
    basis = [basis_element(field, i) for i in range(-1, p - 1)]
    for g in basis:
        for h in basis:
            assert bracket_chain(h, [g] * p) == bracket(h, pth_power(g))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_adjoint_power_axiom_random(p):
    field = PrimeField(p)
    rng = random.Random(2)
    for _ in range(20):
        g, h = random_element(field, rng, True), random_element(field, rng, True)
        assert bracket_chain(h, [g] * p) == bracket(h, pth_power(g))


@pytest.mark.parametrize("p", [5, 7, 11])
def test_pth_power_homogeneity(p):
    field = PrimeField(p)
    rng = random.Random(3)
    for _ in range(25):
        g = random_element(field, rng)
        lam = rng.randrange(p)
        assert pth_power(lam * g) == pow(lam, p, p) * pth_power(g)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_pth_power_proportionality(p):
    field = PrimeField(p)
    rng = random.Random(4)
    for _ in range(100):
        g = random_element(field, rng, True)
        power = pth_power(g)
        scalar = gamma(g)  # raises ProportionalityError on failure
        assert power == scalar * g


def test_gamma_examples():
    assert gamma(e(0)) == 1
    assert gamma(e(1)) == 0
    assert gamma(e(-1) + e(0)) == 1
    with pytest.raises(ValueError):
        gamma(zero(F5))


def test_gamma_detects_non_proportional_power(monkeypatch):
    import wittcoh.witt as witt_mod

    monkeypatch.setattr(witt_mod, "pth_power", lambda g, term_order=None: basis_element(g.field, 1))
    with pytest.raises(ProportionalityError):
        witt_mod.gamma(basis_element(F5, 0) + basis_element(F5, 2))


@pytest.mark.parametrize("p", [5, 7, 11])
def test_pth_power_fold_order_independence(p):
    field = PrimeField(p)
    rng = random.Random(5)
    for _ in range(15):
        g = random_element(field, rng, True)
        order = g.support()
        rng.shuffle(order)
        assert pth_power(g, term_order=order) == pth_power(g)
    with pytest.raises(ValueError):
        pth_power(basis_element(field, 0), term_order=[1])


def test_element_validation():
    with pytest.raises(ValueError):
        WittElement(F5, (1, 2, 3))
    with pytest.raises(ValueError):
        basis_element(F5, 4)
    assert from_dict(F5, {3: 6}).coeff(3) == 1


def lambda_rows_by_loops(start, bg, bh, steps, p):
    """The lambda-degree recurrence in plain int64, one degree at a time."""
    rows = [start % p]
    for _ in range(steps):
        grown = [(r @ bh) % p for r in rows] + [np.zeros_like(start)]
        for k, r in enumerate(rows):
            grown[k + 1] = (grown[k + 1] + r @ bg) % p
        rows = grown
    return np.array(rows)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_stacked_kernel_equals_single_calls(p):
    field = PrimeField(p)
    rng = random.Random(6)
    gs = np.array([random_element(field, rng).coeffs for _ in range(6)])
    hs = np.array([random_element(field, rng).coeffs for _ in range(6)])
    bg, bh = right_bracket_matrix(gs, p), right_bracket_matrix(hs, p)
    rows = lambda_rows(gs, bg, bh, p - 1, p)
    totals = summands_total(gs, bg, bh, p)
    assert rows.shape == (6, p, p) and totals.shape == (6, p)
    for k in range(6):
        g, h = WittElement(field, tuple(gs[k])), WittElement(field, tuple(hs[k]))
        assert (bg[k] == right_bracket_matrix(gs[k], p)).all()
        assert tuple(gs[k] @ bh[k] % p) == bracket(g, h).coeffs
        assert (rows[k] == lambda_rows(gs[k], bg[k], bh[k], p - 1, p)).all()
        assert (totals[k] == summands_total(gs[k], bg[k], bh[k], p)).all()
        assert tuple(totals[k]) == sum(jacobson_s(g, h), zero(field)).coeffs


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_stacked_kernel_matches_int_loops_on_arbitrary_matrices(p):
    # Matrices of size p + 1 as in a central extension; the float64 rows
    # must equal the plain recurrence also where they are reduced mid-way.
    rng = np.random.default_rng(p)
    n = p + 1
    start = rng.integers(0, p, (4, n))
    bg, bh = rng.integers(0, p, (4, n, n)), rng.integers(0, p, (4, n, n))
    rows = lambda_rows(start, bg, bh, 2 * p, p)
    for k in range(4):
        assert (rows[k] == lambda_rows_by_loops(start[k], bg[k], bh[k], 2 * p, p)).all()


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_fold_rows_equal_single_element_powers(p, monkeypatch):
    field = PrimeField(p)
    rows = sample_rows(field, random.Random(p))
    powers = pth_power_rows(rows, p)
    assert powers.shape == rows.shape
    for g, power in zip(rows, powers):
        assert tuple(power) == pth_power(WittElement(field, tuple(g))).coeffs
    # Leading axes stack like a flat batch, and one row per block changes nothing.
    assert (pth_power_rows(rows.reshape(3, -1, p), p).reshape(-1, p) == powers).all()
    monkeypatch.setattr(witt, "_SWEEP_BYTES", 1)
    assert (pth_power_rows(rows, p) == powers).all()


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_derivation_rows_equal_cyclic_poly_composition(p):
    field = PrimeField(p)
    rows = sample_rows(field, random.Random(p + 1))
    powers = pth_power_via_derivation_rows(rows, p)
    assert powers.shape == rows.shape
    for g, power in zip(rows, powers):
        expected = pth_power_by_composition(WittElement(field, tuple(g)))
        assert tuple(power) == expected.coeffs
        assert pth_power_via_derivation(WittElement(field, tuple(g))) == expected
    assert (pth_power_via_derivation_rows(rows.reshape(2, -1, p), p).reshape(-1, p) == powers).all()


def test_first_failure_leaves_rng_where_a_loop_stops():
    def loop(rng, count, bad):
        for k in range(count):
            if rng.randrange(100) in bad:
                return k
        return None

    for bad in ({-1}, set(range(50, 100)), set(range(100))):
        rng, reference = random.Random(4), random.Random(4)
        samples, k = witt.first_failure(rng, lambda: rng.randrange(100), 10, lambda s: [v in bad for v in s])
        assert k == loop(reference, 10, bad)
        assert len(samples) == 10 and rng.random() == reference.random()
    assert witt.first_failure(random.Random(0), None, 0, None) == ([], None)
