"""Witt algebra bracket, summand expansion and the two p-th power routes."""

import random
import tracemalloc

import numpy as np
import pytest

from tests.oracles import (
    CyclicPoly,
    bracket_by_loop,
    bracket_chain,
    bracket_tensor_by_loop,
    first_axiom_failure,
    fold_by_loop,
    from_dict,
    jacobi_failure_by_loops,
    pth_power_by_composition,
    sample_rows,
)
from wittcoh import restricted, verify, witt
from wittcoh.extensions import omega_extension, virasoro_extension
from wittcoh.gfp import PrimeField
from wittcoh.witt import (
    ProportionalityError,
    WittElement,
    basis_chains,
    basis_element,
    bracket,
    bracket_rows,
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


def tensor_brackets(xs, ys, p):
    """[x, y] of broadcast stacked rows contracted from W's structure constants."""
    xs, ys = np.broadcast_arrays(np.mod(xs, p), np.mod(ys, p))
    return np.einsum("...s,...t,stm->...m", xs, ys, witt._bracket_tensor(p)) % p


def loop_brackets(xs, ys, field):
    """[x, y] of broadcast stacked rows, one bracket_by_loop per pair, in the broadcast shape."""
    xs, ys = np.broadcast_arrays(np.mod(xs, field.p), np.mod(ys, field.p))
    pairs = zip(witt.elements(field, xs), witt.elements(field, ys))
    return np.array([bracket_by_loop(x, y).coeffs for x, y in pairs]).reshape(xs.shape)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_bracket_rows_equal_the_loop_and_the_tensor_on_every_basis_pair(p):
    field = PrimeField(p)
    eye = np.eye(p, dtype=np.int64)
    rows = bracket_rows(eye[:, None], eye, p)  # rows[u, v] = [e_{u-1}, e_{v-1}]
    assert rows.shape == (p, p, p)
    assert (rows == witt._bracket_tensor(p) % p).all()
    assert (rows == loop_brackets(eye[:, None], eye, field)).all()
    for u, v in [(0, 0), (1, 2), (p - 1, 0)]:
        x, y = witt.elements(field, eye[[u, v]])
        assert bracket(x, y).coeffs == tuple(rows[u, v]) == bracket_by_loop(x, y).coeffs


@pytest.mark.parametrize("p", [3, 7, 13])
def test_bracket_rows_on_stacked_and_broadcast_shapes(p):
    field = PrimeField(p)
    rng = np.random.default_rng(p)
    for xshape, yshape in [((6,), (6,)), ((2, 3), (3,)), ((4, 1), (1, 5)), ((), (2, 2)), ((), ())]:
        xs, ys = rng.integers(0, p, xshape + (p,)), rng.integers(0, p, yshape + (p,))
        rows = bracket_rows(xs, ys, p)
        assert rows.shape == np.broadcast_shapes(xshape, yshape) + (p,)
        assert (rows == tensor_brackets(xs, ys, p)).all()
        assert (rows == loop_brackets(xs, ys, field)).all()


@pytest.mark.parametrize("p", [5, 7])
def test_bracket_rows_reduce_any_integers_first(p):
    # Entries far outside [0, p), negative ones included, bracket as their residues; so do right-bracket matrices,
    # also of entries past 2^53, which a float64 product would round, and near 2^63, which its cast would overflow.
    field = PrimeField(p)
    rng = np.random.default_rng(p)
    xs, ys = rng.integers(-5 * p, 5 * p, (8, p)), rng.integers(-(2**40), 2**40, (8, p))
    rows = bracket_rows(xs, ys, p)
    assert rows.min() >= 0 and rows.max() < p
    assert (rows == bracket_rows(xs % p, ys % p, p)).all()
    assert (rows == tensor_brackets(xs, ys, p)).all()
    assert (rows == loop_brackets(xs, ys, field)).all()
    assert (bracket_rows(xs.tolist(), ys.tolist(), p) == rows).all()  # array-likes too
    vs = np.vstack([ys, np.resize([2**40, -(2**40), 2**54 + 1, 2**62], (4, p))])  # every big entry in every row
    matrices = right_bracket_matrix(vs, p)
    assert matrices.shape == (12, p, p) and matrices.min() >= 0 and matrices.max() < p
    assert (matrices == right_bracket_matrix(vs % p, p)).all()
    assert (matrices == np.einsum("kt,stm->ksm", vs % p, witt._bracket_tensor(p)) % p).all()
    assert (right_bracket_matrix(vs[-1].tolist(), p) == matrices[-1]).all()


@pytest.mark.parametrize("p", [5, 11])
def test_bracket_rows_read_no_structure_constants(p, monkeypatch):
    # Nor do right-bracket matrices, or the fold, which takes its steps' brackets from them.
    field = PrimeField(p)
    expected = witt._bracket_tensor(p) % p
    gs = sample_rows(field, random.Random(p))
    powers = pth_power_via_derivation_rows(gs, p)

    def no_constants(q):
        raise AssertionError("the formula route read structure constants")

    monkeypatch.setattr(witt, "_bracket_tensor", no_constants)
    eye = np.eye(p, dtype=np.int64)
    assert (bracket_rows(eye[:, None], eye, p) == expected).all()
    assert bracket(basis_element(field, 1), basis_element(field, 2)).coeffs == tuple(expected[2, 3])
    assert (right_bracket_matrix(eye, p) == expected.transpose(1, 0, 2)).all()  # row s of B(e_v) is [e_s, e_v]
    assert (pth_power_rows(gs, p) == powers).all()


@pytest.mark.parametrize("p", [3, 5, 7, 31])
def test_bracket_tensor_equals_the_loop_over_basis_pairs(p):
    assert (witt._bracket_tensor(p) == bracket_tensor_by_loop(p)).all()


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_basis_brackets_match_the_loop_and_the_formula_route(p):
    # The one table of W's bracket on the basis, against two routes that never read it: scattered, it is the loop
    # over basis pairs; and row u of right_bracket_matrix(e_{v-1}), [e_{u-1}, e_{v-1}] by index arithmetic, is
    # coefficient[u, v] at target[u, v] and zero elsewhere.  The table is shared by every reader, so it must refuse
    # writes.
    coefficient, target = witt.basis_brackets(p)
    u, v = np.indices((p, p))
    assert coefficient.dtype == target.dtype == np.int64 and coefficient.shape == target.shape == (p, p)
    tensor = np.zeros((p, p, p), dtype=np.int64)
    tensor[u, v, target] = coefficient
    assert (tensor == bracket_tensor_by_loop(p)).all()
    rows = np.zeros((p, p, p), dtype=np.int64)  # rows[v, u] is row u of the right-bracket matrix of e_{v-1}
    rows[v, u, target] = coefficient
    assert (right_bracket_matrix(np.eye(p, dtype=np.int64), p) == rows).all()
    for table in (coefficient, target):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 1] = 2
    assert witt.basis_brackets(p)[0] is coefficient and witt.basis_brackets(p)[1] is target


def test_bracket_chain_examples():
    # [[e0, e1], e0] = [e1, e0] = -e1
    assert bracket_chain(e(0), [e(1), e(0)]) == from_dict(F5, {1: 4})
    # [[e-1, e1], e1] = [2 e0, e1] = 2 e1
    assert bracket_chain(e(-1), [e(1), e(1)]) == from_dict(F5, {1: 2})
    assert bracket_chain(e(2), [e(2), e(0)]).is_zero()
    with pytest.raises(ValueError):
        bracket_chain(e(0), [])


@pytest.mark.parametrize("p", [3, 5, 7])
def test_basis_chains_equal_the_generic_bracket_chain(p):
    # The scalar recurrence behind ind2 and the adjoint axiom on W, with
    # p - 1 factors (ind2) and with p (the adjoint chain power).
    field = PrimeField(p)
    basis = [basis_element(field, i) for i in range(-1, p - 1)]
    for steps in (p - 1, p):
        c, m = basis_chains(p, steps)
        for a, x in enumerate(basis):
            for b, y in enumerate(basis):
                chain = bracket_chain(x, [y] * steps)
                assert chain == basis_element(field, int(m[a, b]) - 1, int(c[a, b])), (steps, x, y)


def test_pth_power_basis():
    assert pth_power_basis(F5, 0) == e(0)
    assert pth_power_basis(F5, 2).is_zero()
    assert pth_power_basis(F5, -1).is_zero()
    with pytest.raises(ValueError):
        pth_power_basis(F5, 4)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_basis_powers_match_the_derivation_route(p):
    # The one table of W's restricted structure, against the basis powers of the route that never reads it:
    # D^p of every basis derivation.  The table is shared by every reader, so it must refuse writes.
    powers = witt.basis_powers(p)
    assert powers.dtype == np.int64 and powers.shape == (p, p)
    assert (powers == pth_power_via_derivation_rows(np.eye(p, dtype=np.int64), p)).all()
    assert not powers.flags.writeable
    with pytest.raises(ValueError):
        powers[1, 1] = 2
    assert witt.basis_powers(p) is powers


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


@pytest.mark.parametrize("bad", [1.5, 2.0, np.float64(3.0), "1", None])
def test_elements_refuse_coefficients_that_are_not_integers(bad):
    # 1.5 used to be kept: its bracket with e_0 read 6*e-1 + 3.0*e0, and the fold truncated it to 1.
    with pytest.raises(ValueError, match="coefficients must be integers"):
        WittElement(F7, (bad, 0, 0, 0, 0, 0, 2))
    with pytest.raises(ValueError, match="coefficients must be integers"):
        basis_element(F7, 0, bad)


def test_elements_store_numpy_integers_as_int():
    g = WittElement(F7, tuple(np.arange(-3, 4)))
    assert g.coeffs == (4, 5, 6, 0, 1, 2, 3) and all(type(c) is int for c in g.coeffs)
    assert all(type(c) is int for c in basis_element(F7, 2, np.int64(9)).coeffs)
    assert all(type(c) is int for c in witt.elements(F7, np.eye(7, dtype=np.int64))[3].coeffs)


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


def shuffled_samples(p, seed):
    """sample_rows' rows (full, two-term, single-term, zero), their elements, and an order for each: every other one
    shuffled, the rest ascending."""
    field = PrimeField(p)
    rng = random.Random(seed)
    rows = sample_rows(field, rng)
    gs = witt.elements(field, rows)
    return rows, gs, [witt.shuffled_support(g, rng) if k % 2 else g.support() for k, g in enumerate(gs)]


P_MAPS = [
    (pth_power_rows, lambda g, order: pth_power(g, term_order=order).coeffs),
    (restricted.omega_functional_rows, lambda g, order: tuple(restricted.omega_functional(g, fold_order=order))),
]


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@pytest.mark.parametrize("p_map, one_row", P_MAPS)
def test_stacked_folds_equal_one_row_folds(p, p_map, one_row):
    rows, gs, orders = shuffled_samples(p, p)
    sizes = {len(g.support()) for g in gs}
    assert {0, 1, 2} <= sizes and max(sizes) > 2
    expected = [one_row(g, order) for g, order in zip(gs, orders)]
    assert [tuple(row) for row in p_map(rows, p, orders).tolist()] == expected
    # Leading axes stack like a flat batch, the orders given row-major, and the default order is ascending.
    assert [tuple(row) for row in p_map(rows.reshape(3, 4, p), p, orders).reshape(len(gs), -1).tolist()] == expected
    assert [tuple(row) for row in p_map(rows, p).tolist()] == [one_row(g, None) for g in gs]


@pytest.mark.parametrize("p", [5, 7, 11])
def test_fold_sums_each_row_like_a_loop_over_its_steps(p, monkeypatch):
    # Whole, one step per block, and in blocks of four steps, where a row's steps straddle two blocks, the fold
    # sums the step values of every row as a loop over (prefix sum, next term) does.
    rows, gs, orders = shuffled_samples(p, p + 2)
    weights = lambda g, h: restricted._correction_weights(g, h, p)  # noqa: E731
    expected = [fold_by_loop(weights, g, order) for g, order in zip(gs, orders)]
    steps = np.array([max(len(order) - 1, 0) for order in orders])
    for size in (witt._SWEEP_BYTES, 1, 4 * 9 * 8 * p * p):
        monkeypatch.setattr(witt, "_SWEEP_BYTES", size)
        blocks = []
        sums = witt.fold(lambda g, h: (blocks.append(len(g)), weights(g, h))[1], rows, p, orders)
        assert all((row == want).all() for row, want in zip(sums, expected))
        assert sum(blocks) == steps.sum()
    ends = steps.cumsum()  # a row's steps run from ends - steps to ends
    assert blocks[0] == 4 and any(((ends - steps < cut) & (cut < ends)).any() for cut in np.cumsum(blocks))


@pytest.mark.parametrize("p", [3, 7])
def test_fold_kernels_step_only_where_the_next_term_is_nonzero(p, monkeypatch):
    # A row of k terms takes k - 1 steps and single-term and zero rows none,
    # so the summand and correction-weight calls take only those steps.
    rows, gs, orders = shuffled_samples(p, p + 1)
    steps = sum(max(len(g.support()) - 1, 0) for g in gs)
    seen = []
    for module, name in [(witt, "summands_total"), (restricted, "_correction_weights")]:
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda gv, *rest, f=original: (seen.append(len(gv)), f(gv, *rest))[1])
    pth_power_rows(rows, p, orders)
    restricted.omega_functional_rows(rows, p, orders)
    assert seen == [steps, steps]


@pytest.mark.parametrize(
    "order",
    [[-1, 0], [-1, 0, 2, 2], [-1, 0, 0], [-1, 0, 1], [-1, 0, 2, 1], [-1, 0, 2, 6], [-2, 0, 2], [-1, 0, 2.5]],
)
def test_folds_refuse_an_order_that_is_not_a_permutation_of_the_support(order):
    # g = e_{-1} + 2 e_0 + 3 e_2 over GF(7); each order misses, repeats, adds or mistypes a term.
    g = from_dict(F7, {-1: 1, 0: 2, 2: 3})
    rows = np.array([e(1, F7).coeffs, g.coeffs, g.coeffs])
    for p_map, one_row in P_MAPS:
        for stack, orders in [(rows[1], [order]), (rows, [[1], [2, 0, -1], order]), (rows, [[1], [2, 0, -1]])]:
            with pytest.raises(ValueError, match="permutation of the support"):
                p_map(stack, 7, orders)
        with pytest.raises(ValueError, match="permutation of the support"):
            one_row(g, order)
        # A zero row takes an empty order, and each row folds in its own.
        valid = p_map(np.array([g.coeffs, zero(F7).coeffs, g.coeffs]), 7, [[2, -1, 0], [], g.support()])
        expected = [one_row(g, [2, -1, 0]), one_row(zero(F7), None), one_row(g, None)]
        assert [tuple(row) for row in valid.tolist()] == expected


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
        sizes = []

        def draw(m):  # one batch of m samples in one call
            sizes.append(m)
            return witt.randbelow(rng, 100, m)

        samples, k = witt.first_failure(rng, draw, 10, lambda s: [v in bad for v in s])
        assert k == loop(reference, 10, bad)
        assert sizes == ([10] if k is None else [10, k + 1])
        assert len(samples) == 10 and rng.getstate() == reference.getstate()
    assert witt.first_failure(random.Random(0), lambda m: [], 0, None) == ([], None)


def test_lambda_rows_refuses_unreduced_entries():
    # The float64 bound assumes entries in [0, p); an unreduced matrix
    # fails fast instead of being reduced again inside the kernel.
    p = 7
    gv = np.array(e(1, F7).coeffs)
    bg, bh = right_bracket_matrix(gv, p), right_bracket_matrix(np.array(e(2, F7).coeffs), p)
    lambda_rows(gv, bg, bh, p - 1, p)
    for bad in (bg + p, bg - p):
        with pytest.raises(ValueError, match="reduced"):
            lambda_rows(gv, bad, bh, p - 1, p)
    with pytest.raises(ValueError, match="reduced"):
        summands_total(gv + p, bg, bh, p)


def test_first_failures_winds_each_generator_back_as_its_own_loop():
    def loop(rng, count, bad):
        for k in range(count):
            if rng.randrange(100) in bad:
                return k
        return None

    bads = [{-1}, set(range(50, 100)), set(range(100))]
    rngs, references = [random.Random(s) for s in (4, 5, 6)], [random.Random(s) for s in (4, 5, 6)]
    def failing(drawn):
        return [[v in b for v in s] for s, b in zip(drawn, bads)]

    samples, firsts = witt.first_failures(rngs, lambda rng, m: witt.randbelow(rng, 100, m), 10, failing)
    assert firsts == [loop(r, 10, b) for r, b in zip(references, bads)]
    assert [len(s) for s in samples] == [10] * 3
    assert [r.getstate() for r in rngs] == [r.getstate() for r in references]
    assert witt.first_failures([], None, 5, None) == ([], [])


@pytest.mark.parametrize("n", [1, 2, 3, 7, 67, 2**31, 2**32 - 1])
def test_randbelow_equals_a_randrange_loop(n):
    # The same values and the same final generator state as count calls of
    # randrange(n), whatever share of the words is redrawn.
    for count in (0, 1, 997):
        rng, reference = random.Random(n + count), random.Random(n + count)
        values = witt.randbelow(rng, n, count)
        assert values.dtype == np.int64 and values.shape == (count,)
        assert values.tolist() == [reference.randrange(n) for _ in range(count)]
        assert rng.getstate() == reference.getstate()
    for bad in (0, -3, 2**32):
        with pytest.raises(ValueError, match="randbelow"):
            witt.randbelow(random.Random(0), bad, 1)


def test_randbelow_refuses_a_negative_or_non_integer_count():
    # randbelow(rng, 7, -1) used to give an empty array.
    rng = random.Random(0)
    state = rng.getstate()
    for bad in (-1, -32):
        with pytest.raises(ValueError, match="count >= 0"):
            witt.randbelow(rng, 7, bad)
    for bad_n, bad_count in [(7, 2.5), (7.0, 3)]:
        with pytest.raises(ValueError, match="must be an integer"):
            witt.randbelow(rng, bad_n, bad_count)
    assert rng.getstate() == state  # nothing drawn
    reference = random.Random(0)
    assert witt.randbelow(rng, np.int64(7), np.int64(3)).tolist() == [reference.randrange(7) for _ in range(3)]


def random_element_loop(field, rng, count):
    """The rows of count random_element(field, rng, True) calls, drawn one randrange at a time."""
    rows = []
    while len(rows) < count:
        row = [rng.randrange(field.p) for _ in range(field.p)]
        if any(row):
            rows.append(row)
    return rows


def test_random_rows_redraws_zero_rows_as_random_element():
    field, count = PrimeField(3), 40
    seed = 0
    while not (witt.randbelow(random.Random(seed), 3, 3 * count).reshape(count, 3) == 0).all(axis=1).any():
        seed += 1  # a seed whose first rows include a zero row
    rng, reference = random.Random(seed), random.Random(seed)
    rows = witt.random_rows(rng, 3, count, nonzero=True)
    assert rows.tolist() == random_element_loop(field, reference, count)
    assert rng.getstate() == reference.getstate()
    rng, reference = random.Random(seed), random.Random(seed)
    assert [witt.random_element(field, rng, True) for _ in range(count)] == [
        WittElement(field, tuple(row)) for row in random_element_loop(field, reference, count)
    ]
    assert rng.getstate() == reference.getstate()
    assert witt.random_rows(random.Random(seed), 3, count, width=5).shape == (count, 5)


def test_random_rows_is_the_one_part_call_of_random_records():
    # Both give the rows and the final generator state of a random_element loop, zero-row redraws included.
    field, count = PrimeField(3), 30
    first_rows = {s: witt.randbelow(random.Random(s), 3, 3 * count).reshape(count, 3) for s in range(60)}
    redrawn = [s for s, rows in first_rows.items() if not rows.any(axis=1).all()]  # a first row is zero
    assert len(redrawn) >= 5
    for seed in redrawn[:5]:
        reference = random.Random(seed)
        rows = random_element_loop(field, reference, count)
        for draw in (
            lambda rng: witt.random_rows(rng, 3, count, nonzero=True),
            lambda rng: witt.random_records(rng, 3, count, [(3, True)])[0],
        ):
            rng = random.Random(seed)
            assert draw(rng).tolist() == rows and rng.getstate() == reference.getstate()


@pytest.mark.parametrize("parts", [[(3, True), (1, False)], [(3, False), (3, True), (3, True)], [(1, True), (2, True)]])
def test_random_records_fall_back_to_the_record_loop(parts):
    # A part that must be nonzero and came out zero is redrawn before the
    # next part, as the loop over the records redraws it.
    count, size = 12, sum(width for width, _ in parts)

    def loop(rng):
        records = [[] for _ in parts]
        for _ in range(count):
            for rows, (width, nonzero) in zip(records, parts):
                row = [rng.randrange(3) for _ in range(width)]
                while nonzero and not any(row):
                    row = [rng.randrange(3) for _ in range(width)]
                rows.append(row)
        return records

    fallbacks = 0
    for seed in range(40):
        raw = witt.randbelow(random.Random(seed), 3, count * size).reshape(count, size)
        starts = np.cumsum([0] + [width for width, _ in parts])
        fallbacks += any(nonzero and not raw[:, a:b].any(axis=1).all() for (_, nonzero), a, b in zip(parts, starts, starts[1:]))
        rng, reference = random.Random(seed), random.Random(seed)
        assert [rows.tolist() for rows in witt.random_records(rng, 3, count, parts)] == loop(reference)
        assert rng.getstate() == reference.getstate()
    assert fallbacks  # the record loop was taken


def test_a_generator_that_overrides_randrange_sees_every_call():
    class Counted(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            self.calls = 0

        def randrange(self, *args):
            self.calls += 1
            return super().randrange(*args)

    rng, reference = Counted(2), Counted(2)
    assert witt.randbelow(rng, 7, 50).tolist() == [reference.randrange(7) for _ in range(50)]
    assert rng.calls == reference.calls == 50
    assert witt.random_rows(rng, 5, 30, nonzero=True).tolist() == random_element_loop(PrimeField(5), reference, 30)
    assert rng.calls == reference.calls and rng.getstate() == reference.getstate()


def test_run_prime_draws_its_samples_in_bulk(monkeypatch):
    # Before bulk draws, run_prime(7) made 5,872 randrange calls; falling
    # back to one call per value anywhere would show here.
    calls = []
    original = random.Random.randrange

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(random.Random, "randrange", counted)
    assert verify.run_prime(7, seed=0)["all_pass"]
    assert len(calls) < 600


def test_oracle_check_compares_the_one_row_derivation_route(monkeypatch):
    # witt.pth_power_oracle also holds the one-row derivation entry point
    # to the stacked rows on the basis.
    field = F7
    original = witt.pth_power_via_derivation

    def off_at_e1(g):
        power = original(g)
        return power + e(0, field) if g == e(1, field) else power

    monkeypatch.setattr(witt, "pth_power_via_derivation", off_at_e1)
    check = next(c for c in verify._witt_checks(field, random.Random(0), 5) if c.name == "witt.pth_power_oracle")
    assert (check.passed, check.detail) == (False, "one-row mismatch at e1")


@pytest.mark.parametrize("u", [-1, 0, 3])
def test_adjoint_scan_names_the_pair_a_loop_over_g_then_h_meets_first(monkeypatch, u):
    # witt.adjoint_power_on_w reads every basis pair off matrix powers.  With
    # one basis power flipped, e_u^{[p]} + e_{-1}, it must name the pair a
    # loop over g, then h, fails on first; [e_{-1}, e_{-1}] = 0, so that
    # h is never e_{-1}, the first basis element.
    field = F7
    p = field.p
    basis = [e(i, field) for i in range(-1, p - 1)]

    def power(g):
        return pth_power(g) + e(-1, field) if g == e(u, field) else pth_power(g)

    g, h = next((g, h) for g in basis for h in basis if bracket_chain(h, [g] * p) != bracket(h, power(g)))
    original = witt.pth_power_rows

    def flipped(gs, p):
        powers = original(gs, p)
        powers[(gs % p == np.eye(p, dtype=np.int64)[u + 1]).all(axis=-1), 0] += 1
        return powers

    monkeypatch.setattr(witt, "pth_power_rows", flipped)
    check = next(c for c in verify._witt_checks(field, random.Random(0), 5) if c.name == "witt.adjoint_power_on_w")
    assert (check.passed, check.detail) == (False, f"fails at {g!r}, {h!r}")
