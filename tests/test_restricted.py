"""Restricted cochains: correction sums, coboundaries, and H^0..H^2."""

import random
import tracemalloc

import numpy as np
import pytest

from tests.oracles import (
    bracket_chain,
    c3_zero,
    delta2_res_matrix_by_loops,
    from_dict,
    graded_pair_positions,
    graded_triple_positions,
    omega_by_enumeration,
    omega_fold_invariance_by_loop,
    rref_by_pivots,
    sample_rows,
    star_sum_naive,
    starstar_exhaustive,
    starstar_sum_naive,
    to_dense_by_loops,
    wedge_triples,
    whole_matrix_rank,
)
from wittcoh import gfp, ordinary, restricted, verify, witt
from wittcoh.gfp import PrimeField
from wittcoh.ordinary import (
    Cochain1,
    Cochain3Ord,
    c2_from_dict,
    c2_zero,
    delta1_cl,
    delta2_cl,
    delta2_matrix,
    dual_basis,
    wedge_pairs,
)
from wittcoh.restricted import (
    Cochain2Res,
    Cochain3Res,
    NotACocycleError,
    c2_dim,
    c3_dim,
    cochain_complex,
    delta1_res,
    delta1_res_matrix,
    delta2_res,
    delta2_res_matrix,
    eval_beta,
    eval_omega,
    ind2,
    is_cocycle,
    is_cocycle_rows,
    omega_coordinate,
    omega_functional,
    omega_functional_rows,
    project_class_to_ordinary,
    restricted_h2,
    star_correction,
    starstar_correction,
    virasoro_cochain,
)
from wittcoh.witt import WittElement, basis_element, pth_power, random_element, zero

F5 = PrimeField(5)
F7 = PrimeField(7)


def e(i, field=F5):
    return basis_element(field, i)


def random_phi(field, rng):
    return c2_from_dict(field, {pr: rng.randrange(field.p) for pr in wedge_pairs(field.p)})


def random_kernel_cochain(field, rng, ker):
    vec = sum(rng.randrange(field.p) * v for v in ker) % field.p
    return Cochain2Res.from_vector(field, vec)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_coordinate_dimensions_match_closed_forms(p):
    assert c2_dim(p) == p * (p + 1) // 2
    assert c3_dim(p) == p * (p + 1) * (p + 2) // 6


def test_star_correction_worked_example():
    # Of the 8 sequences for (g, h) = (e0, e1) only one survives, with
    # weight 1/4 and value -1, giving 4^{-1} * (-1) = 1 mod 5.
    phi = delta1_cl(dual_basis(F5, 1))
    assert star_correction(phi, e(0), e(1)) == 1


def test_star_correction_zero_cases():
    g, h = e(0) + e(1), e(2)
    assert star_correction(c2_zero(F5), g, h) == 0
    phi = c2_from_dict(F5, {(-1, 1): 1})
    assert star_correction(phi, zero(F5), h) == 0
    assert star_correction(phi, g, zero(F5)) == 0


def test_star_correction_on_generator_vanishes_on_basis_pairs():
    from wittcoh.ordinary import virasoro_cocycle

    gen = virasoro_cocycle(F5)
    for i in range(-1, 4):
        for j in range(-1, 4):
            if i != j:
                assert star_correction(gen, e(i), e(j)) == 0


@pytest.mark.parametrize("p", [5, 7, 11])
def test_star_correction_matches_naive_enumeration(p):
    field = PrimeField(p)
    rng = random.Random(0)
    for _ in range(20):
        phi = random_phi(field, rng)
        g, h = random_element(field, rng, True), random_element(field, rng, True)
        assert star_correction(phi, g, h) == star_sum_naive(phi, g, h)


@pytest.mark.parametrize("p", [5, 7, 11, 17, 23])
def test_star_consistency_with_pth_power(p):
    # psi(pth(g+h)) - psi(pth(g)) - psi(pth(h)) equals the correction sum
    # paired against d1(psi); this pins both the sequence set and the
    # occurrence count convention in the weight.
    field = PrimeField(p)
    rng = random.Random(1)
    for _ in range(15):
        psi = Cochain1(field, tuple(rng.randrange(p) for _ in range(p)))
        g, h = random_element(field, rng, True), random_element(field, rng, True)
        lhs = (
            psi.value(pth_power(g + h)) - psi.value(pth_power(g)) - psi.value(pth_power(h))
        ) % p
        assert lhs == star_correction(delta1_cl(psi), g, h)


def test_eval_omega_coordinate_cochains():
    for i in range(-1, 4):
        c = omega_coordinate(F5, i)
        for j in range(-1, 4):
            assert eval_omega(c, e(j)) == (1 if i == j else 0)
        g = from_dict(F5, {-1: 2, 1: 3, 2: 4})
        assert eval_omega(c, g) == pow(g.coeff(i), 5, 5)


def test_eval_omega_virasoro_basics():
    c = virasoro_cochain(F5)
    for j in range(-1, 4):
        assert eval_omega(c, e(j)) == 0
    assert eval_omega(c, zero(F5)) == 0


def test_eval_omega_virasoro_three_term_value():
    # Frozen from the independent head-vs-rest enumeration oracle.
    c = virasoro_cochain(F5)
    g = e(-1) + e(0) + e(1)
    assert omega_by_enumeration(c, g) == 4
    assert eval_omega(c, g) == 4


@pytest.mark.parametrize("p", [5, 7])
def test_eval_omega_matches_enumeration_oracle(p):
    field = PrimeField(p)
    rng = random.Random(2)
    ker = field.kernel_basis(delta2_res_matrix(field))
    for _ in range(10):
        c = random_kernel_cochain(field, rng, ker)
        g = random_element(field, rng, True)
        assert eval_omega(c, g) == omega_by_enumeration(c, g)


@pytest.mark.parametrize("p", [5, 7])
def test_eval_omega_fold_order_invariant_on_cocycles(p):
    field = PrimeField(p)
    rng = random.Random(3)
    ker = field.kernel_basis(delta2_res_matrix(field))
    seen = 0
    while seen < 50:
        c = random_kernel_cochain(field, rng, ker)
        g = random_element(field, rng, True)
        if len(g.support()) < 2:
            continue
        base = eval_omega(c, g)
        order = g.support()
        rng.shuffle(order)
        assert eval_omega(c, g, fold_order=order) == base
        seen += 1


def test_omega_extension_requires_cocycle_phi():
    # Off the kernel of d2_cl the correction sum is not associative, so no
    # single omega satisfies the compatibility identity for all pairs: the
    # basis-value extension genuinely depends on the fold order.  This pins
    # the scope of the construction rather than a bug.
    phi = c2_from_dict(F5, {(0, 1): 1})  # not a cocycle (see test_ordinary)
    c = Cochain2Res(phi, (0,) * 5)
    g = e(-1) + e(0) + e(2)
    values = {eval_omega(c, g, fold_order=order) for order in ([-1, 0, 2], [2, 0, -1], [0, -1, 2])}
    assert len(values) > 1


@pytest.mark.parametrize("seed", range(6))
def test_stacked_fold_order_check_reports_the_non_cocycle(seed):
    # The 50 shuffled folds are one stacked call.  Over multiples of the
    # pinned non-cocycle above they must see a mismatch, stopping the
    # draws where the loop stops them; over the kernel, none.
    bad = Cochain2Res(c2_from_dict(F5, {(0, 1): 1}), (0,) * 5)
    for ker, passes in [((bad.to_vector(),), False), (cochain_complex(F5).ker_d2_res, True)]:
        rng, reference = random.Random(seed), random.Random(seed)
        stacked = verify._check("", lambda: verify._omega_fold_invariance(F5, rng, ker))
        loop = verify._check("", lambda: omega_fold_invariance_by_loop(F5, reference, ker))
        assert stacked == loop and stacked.passed == passes
        assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("p", [5, 7])
def test_omega_fold_check_keeps_one_one_row_reference(p, monkeypatch):
    # The ten ascending references are one omega_functional_rows call; the
    # one-row eval_omega runs on the first sample only.
    calls = []

    def counted(c, g, fold_order=None):
        calls.append(fold_order)
        return eval_omega(c, g, fold_order)

    monkeypatch.setattr(restricted, "eval_omega", counted)
    field = PrimeField(p)
    assert verify._omega_fold_invariance(field, random.Random(p), cochain_complex(field).ker_d2_res)
    assert calls == [None]


def test_omega_fold_check_stays_within_the_block_bound(monkeypatch):
    # The 50 shuffled folds go through witt.fold in blocks of real steps, at
    # most eleven per block here; one block of all their steps peaks near 30
    # times this bound.
    p = 13
    field = PrimeField(p)
    ker = cochain_complex(field).ker_d2_res
    monkeypatch.setattr(witt, "_SWEEP_BYTES", 64 * p**3)
    tracemalloc.start()
    try:
        assert verify._omega_fold_invariance(field, random.Random(p), ker) == "10 cocycles x 5 orders"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= witt._SWEEP_BYTES + 8 * 50 * (p * p + 6 * c2_dim(p))  # and the folds' steps and (50, c2_dim) arrays


def test_delta1_res_examples():
    c = delta1_res(dual_basis(F5, 0))
    assert c.phi == delta1_cl(dual_basis(F5, 0))
    assert c.omega_basis == (0, 1, 0, 0, 0)

    c = delta1_res(dual_basis(F5, 2))
    assert c.phi == delta1_cl(dual_basis(F5, 2))
    assert not any(c.omega_basis)

    c = delta1_res(Cochain1(F5, (0,) * 5))
    assert c.phi.is_zero() and not any(c.omega_basis)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_ind2_vanishes(p):
    field = PrimeField(p)
    rng = random.Random(4)
    for _ in range(6):
        c = Cochain2Res(random_phi(field, rng), tuple(rng.randrange(p) for _ in range(p)))
        assert not ind2(c).any()


@pytest.mark.parametrize("p", [5, 7])
def test_ind2_matches_generic_bracket_chain(p):
    # Reimplement the table through the generic left-nested bracket chain
    # on WittElements; the production scalar recurrence must agree.
    field = PrimeField(p)
    rng = random.Random(6)
    for _ in range(5):
        phi = random_phi(field, rng)
        c = Cochain2Res(phi, (0,) * p)
        table = ind2(c)
        for a in range(-1, p - 1):
            for b in range(-1, p - 1):
                first = phi.value(a, 0) if b == 0 else 0
                chain = bracket_chain(
                    basis_element(field, a), [basis_element(field, b)] * (p - 1)
                )
                second = sum(chain.coeff(m) * phi.value(m, b) for m in chain.support())
                assert table[a + 1, b + 1] == (first - second) % p


def test_ind2_spot_values():
    # phi(e_i ^ e_0) - phi([e_i, e_0, ..., e_0] ^ e_0): the chain returns to
    # e_i with coefficient (-i)^{p-1} = 1, so the two terms cancel.
    phi = c2_from_dict(F5, {(0, 1): 1})
    c = Cochain2Res(phi, (0,) * 5)
    table = ind2(c)
    for i in range(-1, 4):
        assert table[i + 1, 1] == 0  # pairs (e_i, e_0)
        assert table[i + 1, 3] == 0  # pairs (e_i, e_2): e_2^{[p]} = 0 and chain dies


@pytest.mark.parametrize("p", [5, 7])
def test_delta2_res_zero_on_cocycles(p):
    field = PrimeField(p)
    assert delta2_res(virasoro_cochain(field)).is_zero()
    for i in range(-1, p - 1):
        assert delta2_res(omega_coordinate(field, i)).is_zero()
    assert delta2_res(delta1_res(dual_basis(field, 1))).is_zero()
    assert is_cocycle(virasoro_cochain(field))


def cocycle_test_inputs(field, seed):
    """Random coordinate rows (d2_cl refuses them), kernel samples, and kernel samples with one phi coordinate moved."""
    p = field.p
    rng = np.random.default_rng(seed)
    ker = np.array(cochain_complex(field).ker_d2_res)
    kernel = rng.integers(0, p, (10, len(ker))) @ ker % p
    moved = kernel.copy()
    moved[:, 0] += 1
    return np.vstack([rng.integers(0, p, (10, c2_dim(p))), kernel, moved % p])


@pytest.mark.parametrize("p", [5, 7, 11])
def test_cocycle_test_matches_the_loop_matrix(p):
    # ind2 vanishes on W, so here only d2_cl refuses a row.
    field = PrimeField(p)
    vs = cocycle_test_inputs(field, p)
    expected = ~(delta2_res_matrix_by_loops(field) @ vs.T % p).any(axis=0)
    assert expected.tolist() == [False] * 10 + [True] * 10 + [False] * 10
    assert is_cocycle_rows(vs, p).tolist() == expected.tolist()
    assert (is_cocycle_rows(vs.reshape(5, 6, -1), p) == expected.reshape(5, 6)).all()
    assert [is_cocycle(Cochain2Res.from_vector(field, v)) for v in vs] == expected.tolist()


def test_cocycle_test_keeps_flags_not_values(monkeypatch):
    # Patched to seven rows' terms per block, the 100 rows run 15 blocks of
    # d2_cl's term table, each reduced to flags before the next.  The peak
    # holds one block's terms and values (a third of its terms) and a copy of
    # the rows, well below half of the (100, C(p,3)) values of every row.
    p = 31
    field = PrimeField(p)
    ker = np.array(cochain_complex(field).ker_d2_res)
    rng = np.random.default_rng(p)
    vs = np.vstack([rng.integers(0, p, (50, len(ker))) @ ker % p, rng.integers(0, p, (50, c2_dim(p)))])
    expected = is_cocycle_rows(vs, p)
    assert expected.tolist() == [True] * 50 + [False] * 50
    terms = ordinary._triple_terms(p)
    monkeypatch.setattr(witt, "_SWEEP_BYTES", 7 * 8 * terms[0].size)
    tracemalloc.start()
    try:
        flags = is_cocycle_rows(vs, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (flags == expected).all()
    assert peak <= 1.5 * witt._SWEEP_BYTES + 1.1 * vs.nbytes < 8 * len(vs) * terms[0].shape[1] / 2


@pytest.mark.parametrize("p", [5, 7])
def test_cocycle_test_reads_a_corrupted_ind2_table(p, monkeypatch):
    # With one more term in every beta row, ind2 refuses kernel rows that
    # d2_cl accepts; the test must read the same table as d2_res's matrix.
    field = PrimeField(p)
    vs = cocycle_test_inputs(field, p)  # the kernel of the true d2_res
    coefficient, column = restricted._ind2_terms(p)
    corrupted = (coefficient + np.array([[1], [0]]), column)
    monkeypatch.setattr(restricted, "_ind2_terms", lambda q: corrupted)
    d2 = delta2_res_matrix(field) @ vs.T % p
    n3 = len(wedge_triples(p))
    only_ind2 = ~d2[:n3].any(axis=0) & d2[n3:].any(axis=0)
    assert only_ind2.any()
    assert is_cocycle_rows(vs, p).tolist() == (~d2.any(axis=0)).tolist()
    assert [is_cocycle(Cochain2Res.from_vector(field, v)) for v in vs] == (~d2.any(axis=0)).tolist()


def test_restricted_arithmetic_and_row_calls_refuse_mixed_primes():
    # omega_coordinate(F5, 0) - omega_coordinate(F7, 0) once came out as a zero cochain over GF(5).
    a, b = omega_coordinate(F5, 0), omega_coordinate(F7, 0)
    for op in (lambda: a + b, lambda: a - b):
        with pytest.raises(ValueError, match="different fields"):
            op()
    rows = np.array([b.to_vector()])  # 28 coordinates where GF(5) has 15
    with pytest.raises(ValueError, match="^expected a vector of length 15$"):
        is_cocycle_rows(rows, 5)
    with pytest.raises(ValueError, match="^expected a vector of length 15$"):
        cochain_complex(F5).split_coboundary(rows)


@pytest.mark.parametrize("p", [5, 7])
def test_stacked_split_and_projection_match_one_row_calls(p):
    field = PrimeField(p)
    rng = np.random.default_rng(p)
    cx = cochain_complex(field)
    vs = rng.integers(0, p, (6, c2_dim(p)))
    psi, rest = cx.split_coboundary(vs)
    for v, x, r in zip(vs, psi, rest):
        one_psi, one_rest = cx.split_coboundary(v)
        assert (x == one_psi).all() and (r == one_rest).all()
    assert ((vs - psi @ cx.d1_res.T - rest) % p == 0).all()
    reps = restricted_h2(field).representatives
    zero, coeffs = restricted.ordinary_classes(field, np.array([c.phi.to_vector() for c in reps]))
    assert [(bool(z), int(k)) for z, k in zip(zero, coeffs)] == [
        (c.is_zero, c.virasoro_coefficient) for c in map(project_class_to_ordinary, reps)
    ]


def test_delta2_res_nonzero_off_kernel():
    phi = c2_from_dict(F5, {(0, 1): 1})
    c = Cochain2Res(phi, (0,) * 5)
    assert not delta2_res(c).is_zero()
    assert not is_cocycle(c)


def test_starstar_zero_cases():
    alpha = c3_zero(F5)
    g, h1, h2 = e(0), e(1), e(2)
    assert starstar_correction(alpha, g, h1, h2) == 0
    alpha = delta2_cl(c2_from_dict(F5, {(0, 1): 1}))
    assert starstar_correction(alpha, zero(F5), h1, h2) == 0


@pytest.mark.parametrize("p", [5, 7, 11])
def test_starstar_matches_naive_enumeration(p):
    field = PrimeField(p)
    rng = random.Random(5)
    for _ in range(10):
        alpha = delta2_cl(random_phi(field, rng))
        g, h1, h2 = (random_element(field, rng, True) for _ in range(3))
        assert starstar_correction(alpha, g, h1, h2) == starstar_sum_naive(alpha, g, h1, h2)


def random_starstar_samples(field, rng, count):
    """(alpha, g, h1, h2): alpha an arbitrary 3-form, not only a coboundary, and g, h1, h2 nonzero."""
    n = len(wedge_triples(field.p))
    samples = []
    for _ in range(count):
        alpha = Cochain3Ord(field, tuple(rng.randrange(field.p) for _ in range(n)))
        samples.append((alpha, *(random_element(field, rng, True) for _ in range(3))))
    return samples


@pytest.mark.parametrize("p", [5, 7, 11])
def test_to_dense_matches_value(p):
    field = PrimeField(p)
    alpha = random_starstar_samples(field, random.Random(p), 1)[0][0]
    dense = alpha.to_dense()
    for r in range(-1, p - 1):
        for s in range(-1, p - 1):
            for t in range(-1, p - 1):
                assert dense[r + 1, s + 1, t + 1] == alpha.value(r, s, t), (r, s, t)


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_to_dense_scatter_equals_the_triple_loop(p):
    field = PrimeField(p)
    rng = random.Random(p)
    for _ in range(3):
        alpha = Cochain3Ord(field, tuple(rng.randrange(p) for _ in wedge_triples(p)))
        assert (alpha.to_dense() == to_dense_by_loops(alpha)).all()


@pytest.mark.parametrize("p,count", [(5, 6), (7, 4), (11, 2)])
def test_starstar_exhaustive_equals_naive_enumeration(p, count):
    for sample in random_starstar_samples(PrimeField(p), random.Random(p), count):
        assert starstar_exhaustive(*sample) == starstar_sum_naive(*sample)


@pytest.mark.parametrize("p", [13, 17, 19])
def test_starstar_exhaustive_equals_correction(p):
    for sample in random_starstar_samples(PrimeField(p), random.Random(p), 4):
        assert starstar_exhaustive(*sample) == starstar_correction(*sample)


@pytest.mark.parametrize("p", [3, 7, 13])
def test_starstar_exhaustive_is_independent_of_blocks(p, monkeypatch):
    samples = random_starstar_samples(PrimeField(p), random.Random(p + 1), 3)
    values = [starstar_exhaustive(*sample) for sample in samples]
    for size in (32 * p * 4, 1):  # four rows per block, then one
        monkeypatch.setattr(witt, "_SWEEP_BYTES", size)
        assert [starstar_exhaustive(*sample) for sample in samples] == values


@pytest.mark.parametrize("p", [13, 17])
def test_starstar_exhaustive_stays_within_its_block_bound(p, monkeypatch):
    sample = random_starstar_samples(PrimeField(p), random.Random(p), 1)[0]
    monkeypatch.setattr(witt, "_SWEEP_BYTES", 32 * p * 256)  # 256 of the 2^(p-3) rows per block
    tracemalloc.start()
    try:
        starstar_exhaustive(*sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= witt._SWEEP_BYTES + 16 * p**3  # and alpha's dense p^3 tensor


def test_starstar_exhaustive_is_a_route_of_its_own(monkeypatch):
    """Neither the exhaustive oracle nor verify's evaluation route touches the correction weights.

    Both share with the library's ** sum only witt.right_bracket_matrix,
    witt._inverse_vector and the contraction t[i, j] = alpha(g ^ e_i ^ e_j).
    The evaluation route also rests on the identity that the lambda^k
    coefficient of [h1, h2, lambda*h1 + h2, ...] collects the chains with k
    free 1-labels; the exhaustive oracle, which sums every chain on its own,
    is the check of that identity.
    """

    def unused(*args):
        raise AssertionError("the route uses the correction weights")

    for module, name in [
        (witt, "lambda_rows"),
        (restricted, "_correction_weights"),
        (restricted, "_correction_sum"),
        (restricted, "starstar_correction"),
    ]:
        monkeypatch.setattr(module, name, unused)
    sample = random_starstar_samples(F7, random.Random(0), 1)[0]
    assert starstar_exhaustive(*sample) == starstar_sum_naive(*sample)
    assert verify._starstar_by_evaluation(*sample) == starstar_sum_naive(*sample)


@pytest.mark.parametrize(
    "p,reference,count",
    [
        (3, starstar_sum_naive, 6),
        (5, starstar_sum_naive, 6),
        (7, starstar_sum_naive, 4),
        (13, starstar_exhaustive, 4),
        (17, starstar_exhaustive, 4),
        (19, starstar_exhaustive, 4),
        (29, starstar_correction, 4),
        (31, starstar_correction, 4),
        (67, starstar_correction, 1),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_starstar_by_evaluation_equals_the_other_routes(p, reference, count):
    for sample in random_starstar_samples(PrimeField(p), random.Random(p), count):
        assert verify._starstar_by_evaluation(*sample) == reference(*sample)


def test_restricted_checks_skip_nothing_at_29():
    checks = verify._restricted_checks(PrimeField(29), random.Random(0))
    assert [(c.name, c.detail) for c in checks if c.skipped or not c.passed] == []


@pytest.mark.parametrize("p", [13, 17])
def test_run_prime_skips_no_check(p):
    report = verify.run_prime(p)
    assert report["all_pass"]
    assert [c["name"] for c in report["checks"] if c["skipped"]] == []


def test_starstar_not_identically_zero_on_coboundaries():
    # The correction sum against d2_cl(phi) does not vanish for general phi:
    # the vanishing argument needs the compatibility structure that only
    # exists over cocycles (where d2_cl(phi) = 0 makes it trivial).  Keep a
    # concrete witness so the scope stays documented.
    phi = c2_from_dict(F5, {(0, 1): 1})
    alpha = delta2_cl(phi)
    g = e(-1) + e(2)
    h1 = e(0) + e(1)
    h2 = e(1) + e(3)
    value = starstar_correction(alpha, g, h1, h2)
    assert value == starstar_sum_naive(alpha, g, h1, h2)
    assert value != 0


def test_eval_beta_examples():
    beta = [[0] * 5 for _ in range(5)]
    beta[1][2] = 1  # beta(e_0, e_1) = 1
    c = Cochain3Res(c3_zero(F5), tuple(tuple(row) for row in beta))
    assert eval_beta(c, e(0), e(1)) == 1
    assert eval_beta(c, e(0), e(2)) == 0
    for lam in range(5):
        assert eval_beta(c, e(0), lam * e(1)) == pow(lam, 5, 5)
    assert eval_beta(c, zero(F5), e(1)) == 0
    # linear in the first slot
    assert eval_beta(c, 3 * e(0) + e(2), e(1)) == 3


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_delta_squared_zero(p):
    field = PrimeField(p)
    prod = (delta2_res_matrix(field) @ delta1_res_matrix(field)) % p
    assert not prod.any()


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_beta_block_identically_zero(p):
    field = PrimeField(p)
    m = delta2_res_matrix(field)
    assert not m[len(wedge_triples(p)) :, :].any()


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_matrix_columns_match_coboundary(p):
    field = PrimeField(p)
    m = delta2_res_matrix(field)
    for k in range(c2_dim(p)):
        vec = np.zeros(c2_dim(p), dtype=np.int64)
        vec[k] = 1
        c = Cochain2Res.from_vector(field, vec)
        d = delta2_res(c)
        col = np.concatenate([d.alpha.to_vector(), np.array(d.beta_basis).ravel()])
        assert (col == m[:, k]).all()
        assert is_cocycle(c) == (not col.any())


@pytest.mark.parametrize("p", [23, 31])
def test_delta2_res_matrix_holds_no_second_matrix(p):
    # d2 and the beta rows are scattered straight into the one allocation;
    # building d2 apart and copying it in peaks near 1.8 times the matrix.
    tracemalloc.start()
    try:
        m = delta2_res_matrix(PrimeField(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * m.nbytes


def test_rank_of_a_read_only_matrix_copies_it_once():
    # The whole-matrix rank oracle makes one working copy and reduces it in
    # place; copying twice, or reducing each copy into another, peaked near
    # three times the matrix.
    field = PrimeField(23)
    m = delta2_res_matrix(field)
    m.setflags(write=False)
    tracemalloc.start()
    try:
        rank = whole_matrix_rank(field, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rank == cochain_complex(field).rank_d2_res
    assert peak <= 1.2 * m.nbytes


@pytest.mark.parametrize("p", [5, 7, 11])
def test_beta_rows_are_wired_to_the_ind2_terms(monkeypatch, fresh_complex, p):
    # On W the beta rows vanish, so the column test above compares zeros
    # there.  Without the b = 0 term, ind2 no longer vanishes on W; the
    # beta rows must follow the patched table.
    terms = restricted._ind2_terms(p)
    monkeypatch.setattr(restricted, "_ind2_terms", lambda q: tuple(t[:1] for t in terms))
    field = PrimeField(p)
    n2, n3 = len(wedge_pairs(p)), len(wedge_triples(p))
    beta = delta2_res_matrix(field)[n3:]
    assert beta[:, :n2].any() and not beta[:, n2:].any()
    for k in range(c2_dim(p)):
        vec = np.zeros(c2_dim(p), dtype=np.int64)
        vec[k] = 1
        assert (ind2(Cochain2Res.from_vector(field, vec)).ravel() == beta[:, k]).all()


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_omega_rows_equal_omega_functional(p):
    field = PrimeField(p)
    rows = sample_rows(field, random.Random(p + 2))
    ws = omega_functional_rows(rows, p)
    assert ws.shape == (len(rows), c2_dim(p))
    for g, w in zip(rows, ws):
        assert (w == omega_functional(WittElement(field, tuple(g)))).all()
    assert (omega_functional_rows(rows.reshape(2, -1, p), p).reshape(len(rows), -1) == ws).all()


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_kernel_structure(p):
    field = PrimeField(p)
    ker = c2_dim(p) - field.rank(delta2_res_matrix(field))
    ker_cl = len(wedge_pairs(p)) - field.rank(delta2_matrix(field))
    assert ker == ker_cl + p == 2 * p + 1
    assert field.rank(delta1_res_matrix(field)) == p


@pytest.mark.parametrize(
    "p,expected", [(3, (6, 3, 3)), (5, (11, 5, 6)), (7, (15, 7, 8)), (11, (23, 11, 12))]
)
def test_restricted_h2_dimensions(p, expected):
    h2 = restricted_h2(PrimeField(p))
    assert (h2.ker_dim, h2.im_dim, h2.h2_dim) == expected
    assert len(h2.representatives) == h2.h2_dim


def test_run_prime_assembles_d2_once_and_reduces_no_whole_matrix(monkeypatch):
    # Everything in run_prime reads one memoised complex, and block_full_agreement
    # checks its ranks by certificates: no matrix of d2's or d2_res's shape is
    # row-reduced, alone or in a stack.
    restricted.cochain_complex.cache_clear()
    shapes = []
    assembled = []
    rref, assemble = gfp.PrimeField.rref, restricted.delta2_res_matrix

    def counting_rref(self, m):
        shapes.append(np.shape(m))
        return rref(self, m)

    def counting_assemble(field, *out):
        assembled.append(field.p)
        return assemble(field, *out)

    monkeypatch.setattr(gfp.PrimeField, "rref", counting_rref)
    monkeypatch.setattr(restricted, "delta2_res_matrix", counting_assemble)
    assert verify.run_prime(7)["all_pass"]
    assert assembled == [7]
    assert shapes and not {shape[-2:] for shape in shapes} & {(35, 21), (84, 28)}


@pytest.fixture
def fresh_complex():
    # A test that patches the matrices or counts their reductions builds its own complex
    # and leaves none in the cache.
    restricted.cochain_complex.cache_clear()
    yield
    restricted.cochain_complex.cache_clear()


@pytest.mark.parametrize("p", [3, 5, 7, 13, 31])
def test_complex_stores_d2_res_in_one_byte_per_entry(fresh_complex, p):
    # Every entry is a residue below p, so one byte holds d2_res exactly.  The
    # builder without out stays int64, so products with it cannot wrap.
    field = PrimeField(p)
    d2_res, dense = cochain_complex(field).d2_res, delta2_res_matrix(field)
    assert d2_res.dtype == np.uint8 and not d2_res.flags.writeable
    assert dense.dtype == np.int64 and np.array_equal(d2_res, dense)


@pytest.mark.parametrize("p,k,corner_only", [(5, 2, False), (7, -1, False), (7, 0, False), (7, 0, True)])
def test_degree_one_is_read_off_the_zero_columns(monkeypatch, fresh_complex, p, k, corner_only):
    # W's d1 has no zero column, so zero the column of e^k: in d1_res, or only
    # in its ordinary corner d1 (e^0 keeps its omega row then).
    field = PrimeField(p)
    n2 = len(wedge_pairs(p))
    assemble = restricted.delta1_res_matrix

    def zeroed(field):
        m = assemble(field)
        m[: n2 if corner_only else None, k + 1] = 0
        return m

    monkeypatch.setattr(restricted, "delta1_res_matrix", zeroed)
    cx = cochain_complex(field)
    d1_res = zeroed(field)
    d1 = d1_res[:n2]
    assert cx.rank_d1 == field.rank(d1) == p - 1
    assert cx.rank_d1_res == field.rank(d1_res)
    assert (cx.h_ordinary[1], cx.h_restricted[1]) == (p - field.rank(d1), p - field.rank(d1_res))
    assert cx.graded_kernel_dims[1] == {
        g: len(field.kernel_basis(d1[graded_pair_positions(p, g)][:, [g + 1]])) for g in range(-1, p - 1)
    }


def _plant_a_leak(monkeypatch, matrix, row):
    """Patch the named matrix builder to plant a 1 at (row, 0); returns the patched builder."""
    assemble = getattr(restricted, matrix)

    def leaky(field, *out):
        m = assemble(field, *out)
        m[row, 0] = 1
        return m

    monkeypatch.setattr(restricted, matrix, leaky)
    return leaky


def _assert_the_report_names_the_leak(field, matrix, leaky, row):
    # The complex builds on a leaky matrix, and the report fails.  The grading
    # check reads d1_res, and names the grade of its column 0, -1.  It reads
    # d2's and ind2's term tables, not the assembled d2_res: a leak into an
    # alpha row leaves d2's grade blocks short of an entry, which the rank
    # certificates' completeness count names.  ind2 is read off its term
    # table, so a leak into a beta row leaves the restricted rank that of the
    # clean matrix, and the report's beta-block check names the planted entry.
    p = field.p
    n3 = len(wedge_triples(p))
    report = verify.run_prime(p)
    failed = {c["name"]: c["detail"] for c in report["checks"] if not c["pass"]}
    assert not report["all_pass"]
    if matrix == "delta1_res_matrix":
        assert failed["ordinary.grading_preserved"] == "d1 leaks out of grade -1"
        return
    assert "ordinary.grading_preserved" not in failed
    if row % c3_dim(p) < n3:
        assert failed["ordinary.block_full_agreement"] == "d2's grade blocks miss a nonzero entry"
        return
    clean = leaky(field)
    clean[row, 0] = 0
    assert restricted.CochainComplex(field).rank_d2_res == len(rref_by_pivots(field, clean)[1])
    assert failed["restricted.beta_block_zero"] == "induced degree-3 block is nonzero"


@pytest.mark.parametrize("matrix", ["delta1_res_matrix", "delta2_res_matrix"])
@pytest.mark.parametrize("part", ["ordinary", "restricted"])
def test_complex_refuses_a_grading_leak(monkeypatch, fresh_complex, matrix, part):
    # The complex builds on a leaky matrix, and its report refuses the leak.
    # Column 0 (e^-1 in d1_res, the pair (-1, 0) in d2_res) has grade -1; the
    # planted entry sits in a row of grade 0.
    p = 7
    n2, n3 = len(wedge_pairs(p)), len(wedge_triples(p))
    degree_one = matrix == "delta1_res_matrix"
    if part == "ordinary":
        row = (graded_pair_positions if degree_one else graded_triple_positions)(p, 0)[0]
    else:
        row = n2 + 1 if degree_one else n3 + p  # the row of omega_0; the beta row (0, -1)
    leaky = _plant_a_leak(monkeypatch, matrix, row)
    _assert_the_report_names_the_leak(PrimeField(p), matrix, leaky, row)


@pytest.mark.parametrize("row", [0, -1])
def test_complex_refuses_a_grading_leak_at_3(monkeypatch, fresh_complex, row):
    # At p = 3 only grade 0 has a triple, so the other blocks of d2 end in a
    # zero padding row; the padding must not count the leak as inside a block,
    # and the report must refuse it.
    # Row 0 is the triple (-1, 0, 1) of grade 0, row -1 the beta row (1, 1) of
    # grade 1; column 0 is the pair (-1, 0) of grade -1.
    leaky = _plant_a_leak(monkeypatch, "delta2_res_matrix", row)
    _assert_the_report_names_the_leak(PrimeField(3), "delta2_res_matrix", leaky, row)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_complex_row_reduces_only_the_degree_two_blocks(monkeypatch, fresh_complex, p):
    # One rref on the stack of d2's p grade blocks and one 2-D rref of ind2 on
    # ker d2 (p^2 beta rows, p + 1 kernel vectors); none on d1's one-column
    # blocks and none on d2_res's blocks.
    shapes = []
    rref = gfp.PrimeField.rref

    def counting_rref(self, m):
        shapes.append(np.shape(m))
        return rref(self, m)

    monkeypatch.setattr(gfp.PrimeField, "rref", counting_rref)
    cochain_complex(PrimeField(p))
    assert shapes == [(p, (p - 1) * (p - 2) // 6, (p - 1) // 2), (p * p, p + 1)]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_restricted_kernel_is_exact_when_ind2_does_not_vanish(monkeypatch, fresh_complex, p):
    # Without the b = 0 term of ind2 (as in the wiring test above), ind2 no
    # longer vanishes on ker d2; the kernel read through ind2 must still be
    # that of the whole patched d2_res.
    terms = restricted._ind2_terms(p)
    monkeypatch.setattr(restricted, "_ind2_terms", lambda q: tuple(t[:1] for t in terms))
    field = PrimeField(p)
    cx = cochain_complex(field)
    m = delta2_res_matrix(field)
    ker = np.array(cx.ker_d2_res)
    assert cx.rank_d2_res > cx.rank_d2  # ind2 meets ker d2
    assert cx.rank_d2_res == len(rref_by_pivots(field, m)[1])
    assert len(rref_by_pivots(field, ker)[1]) == len(ker) == c2_dim(p) - cx.rank_d2_res
    assert not (m @ ker.T % p).any()


@pytest.mark.parametrize("p", [5, 7])
def test_representatives_are_independent_mod_coboundaries(p):
    field = PrimeField(p)
    h2 = restricted_h2(field)
    d1 = delta1_res_matrix(field)
    stacked = np.vstack([d1.T] + [c.to_vector() for c in h2.representatives])
    assert field.rank(stacked) == p + len(h2.representatives)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_generic_quotient_extraction_matches_named_representatives(p):
    # im(d1) and the named representatives span ker(d2): by rank, they have
    # dim ker(d2) together and add nothing to a dense kernel basis.
    field = PrimeField(p)
    ker = field.kernel_basis(delta2_res_matrix(field))
    h2 = restricted_h2(field)
    spanning = np.vstack([delta1_res_matrix(field).T] + [c.to_vector() for c in h2.representatives])
    assert field.rank(spanning) == len(ker) == field.rank(np.vstack([spanning] + ker))


def test_project_class_to_ordinary():
    for i in range(-1, 4):
        assert project_class_to_ordinary(omega_coordinate(F5, i)).is_zero
    desc = project_class_to_ordinary(virasoro_cochain(F5))
    assert not desc.is_zero and desc.virasoro_coefficient == 1
    assert project_class_to_ordinary(delta1_res(dual_basis(F5, 0))).is_zero

    phi = c2_from_dict(F5, {(0, 1): 1})
    with pytest.raises(NotACocycleError):
        project_class_to_ordinary(Cochain2Res(phi, (0,) * 5))


def test_projection_respects_scaling():
    scaled = 3 * virasoro_cochain(F7) + delta1_res(dual_basis(F7, 0))
    desc = project_class_to_ordinary(scaled)
    assert not desc.is_zero and desc.virasoro_coefficient == 3


def test_eval_omega_zero_phi():
    # With phi = 0 there is no correction sum: omega(e0 + e1) = omega_0(e0) = 1.
    field = PrimeField(17)
    g = basis_element(field, 0) + basis_element(field, 1)
    assert eval_omega(omega_coordinate(field, 0), g) == 1


def omega_left_fold_naive(c, g, order):
    """omega(g) by the library's left-accumulating fold, each step's star sum enumerated."""
    field = c.field
    p = field.p
    total, acc = 0, zero(field)
    for i in order:
        a = g.coeff(i)
        term = basis_element(field, i, a)
        total += pow(a, p, p) * c.omega_value(i)
        if not acc.is_zero():
            total += star_sum_naive(c.phi, acc, term)
        acc = acc + term
    return total % p


@pytest.mark.parametrize("p, samples", [(5, 5), (7, 4), (11, 2)])
def test_omega_functional_matches_enumeration_off_the_kernel(p, samples):
    # omega(g) is linear in c, so one vector serves every cochain, cocycle
    # or not; with a random non-cocycle c each fold step must still match.
    field = PrimeField(p)
    rng = random.Random(7)
    for _ in range(samples):
        c = Cochain2Res.from_vector(field, [rng.randrange(p) for _ in range(c2_dim(p))])
        assert not is_cocycle(c)
        g = random_element(field, rng, True)
        order = g.support()
        rng.shuffle(order)
        expected = omega_left_fold_naive(c, g, order)
        assert int(c.to_vector() @ omega_functional(g, fold_order=order) % p) == expected
        assert eval_omega(c, g, fold_order=order) == expected


@pytest.mark.parametrize("p", [5, 7, 11])
def test_omega_functional_fold_order_invariant_on_cocycles(p):
    # Two fold orders give functionals whose difference vanishes on every
    # kernel vector of d2 but not identically: off the kernel the order
    # shows (test_omega_extension_requires_cocycle_phi).
    field = PrimeField(p)
    rng = random.Random(8)
    ker = np.array(cochain_complex(field).ker_d2_res)
    differs = False
    for _ in range(10):
        g = random_element(field, rng, True)
        order = g.support()
        rng.shuffle(order)
        diff = (omega_functional(g) - omega_functional(g, fold_order=order)) % p
        assert not (ker @ diff % p).any()
        differs = differs or diff.any()
    assert differs


def test_a_refused_restricted_h2_fails_the_checks_that_read_it(monkeypatch):
    # The refusal lands in the report as the failed detail of every check
    # that needs the representatives; every other check is as without it.
    passing = verify.run_prime(5)["checks"]

    def refused(field):
        raise ArithmeticError("representatives do not complete im d1 to ker d2")

    monkeypatch.setattr(restricted, "restricted_h2", refused)
    report = verify.run_prime(5)
    needing = {
        "restricted.h2_dimension",
        "extensions.splitting_independence",
        "extensions.axioms",
        "extensions.negative_control",
        "extensions.class_independence",
        "extensions.classification_counts",
    }
    detail = "ArithmeticError: representatives do not complete im d1 to ker d2"
    assert not report["all_pass"]
    assert [c["name"] for c in report["checks"]] == [c["name"] for c in passing]
    for check, unpatched in zip(report["checks"], passing):
        assert check == ({**unpatched, "pass": False, "detail": detail} if check["name"] in needing else unpatched)


def test_run_prime_computes_restricted_h2_once(monkeypatch):
    # The check restricted.h2_dimension and the extension checks share one result.
    calls = []
    original = restricted.restricted_h2

    def counted(field):
        calls.append(field.p)
        return original(field)

    monkeypatch.setattr(restricted, "restricted_h2", counted)
    assert verify.run_prime(7)["all_pass"]
    assert calls == [7]


@pytest.mark.parametrize("bad", [1.5, 2.0, np.float64(3.0), "1", None])
def test_restricted_coordinates_refuse_entries_that_are_not_integers(bad):
    # Cochain2Res used to keep floats, and c2_from_vector and the row readers truncated them.
    for case in (
        lambda: Cochain2Res(c2_zero(F5), (0, bad, 0, 0, 0)),
        lambda: Cochain3Res(Cochain3Ord(F5, (0,) * 10), ((0,) * 5,) * 4 + ((0, 0, bad, 0, 0),)),
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            case()
    vec = np.array([0] * (c2_dim(5) - 1) + [bad])
    for case in (
        lambda: Cochain2Res.from_vector(F5, vec),
        lambda: cochain_complex(F5).split_coboundary(vec),
        lambda: is_cocycle_rows([vec, vec], 5),
        lambda: is_cocycle_rows(vec, 5),
    ):
        with pytest.raises(ValueError, match="must be integers"):
            case()
    ints = np.arange(c2_dim(5), dtype=np.uint8)
    assert Cochain2Res.from_vector(F5, ints) == Cochain2Res.from_vector(F5, ints.tolist())
    assert is_cocycle_rows(ints, 5) == is_cocycle_rows(ints.tolist(), 5)
    assert is_cocycle_rows(np.zeros((0, c2_dim(5))), 5).shape == (0,)
