"""Per-prime verification suite and machine-readable report assembly.

Each report aggregates every invariant the library promises for one prime:
bracket axioms, agreement of the two p-th power algorithms, cochain
dimension counts, graded kernel dimensions, the degree-2 cohomology
dimensions with explicit representatives, vanishing of the induced
degree-3 block, and the full axiom verification of all p + 1 central
extensions, plus negative controls, each an extensions.CheckResult.

Every check runs at every supported prime (odd, at most 103: above that
the dense d2_res, one byte per entry, would exceed 1 GiB, and run_prime
refuses the prime before any work), except the few whose statement needs
p > 3; those are reported as skipped at p = 3 rather than passed silently,
so none is skipped from p = 5 to 103.  The ** correction sum is checked against
the values of its lambda-polynomial at every lambda in GF(p)
(_starstar_by_evaluation), a route that shares no recurrence with the
library's correction weights and scatters its own dense 3-form, so shares
no orientation with Cochain3Ord.to_dense either.  d2's ranks are proven
by certificates.
Every product with a coboundary evaluates its term table: the complex
identities apply d2's tables to d1's columns, and the certificates' upper
bound for d2_res applies them to ker d2_res.  The grading is checked
against ordinary.coordinate_grades on those term tables and on d1_res,
in O(p^3).  The dense d2 and d2_res are read whole only to check the
blocks' completeness and the zero induced block, which name an entry
planted in the assembled matrix; a leak lands in the report, not in an
error.
Randomized checks draw from a generator seeded per prime, so reports are
byte-identical across runs and across worker counts; each check draws in
bulk (witt.randbelow), the values a loop of randrange calls would draw,
and tests its samples in one call of each stacked kernel.  The loop it
replaces is its oracle in tests/oracles.py: at the first failing sample
(witt.first_failure), the check makes that loop's one-row calls, so its
draws, generator state and detail are the loop's, a raised error too.
"""

from __future__ import annotations

import functools
import random

import numpy as np

from . import extensions as ext
from . import ordinary as ordi
from . import restricted as res
from . import witt
from .gfp import PrimeField, is_prime


def _check(name: str, fn) -> ext.CheckResult:
    try:
        detail = fn()
        return ext.CheckResult(name, True, detail=detail or "")
    except AssertionError as e:
        return ext.CheckResult(name, False, detail=str(e) or "assertion failed")
    except Exception as e:  # noqa: BLE001 - any failure must land in the report
        return ext.CheckResult(name, False, detail=f"{type(e).__name__}: {e}")


def _skip(name: str, why: str) -> ext.CheckResult:
    return ext.CheckResult(name, True, skipped=True, detail=f"skipped: {why}")


def _antisymmetry_jacobi(field: PrimeField, rng: random.Random) -> str:
    """Antisymmetry and Jacobi of W on every basis triple and on 100 random triples.

    The basis triples are one scan of the structure constants
    (witt._bracket_tensor, through witt.jacobi_scan), and the formula route
    witt.bracket_rows meets them in one call on the p^2 basis pairs (with
    one one-row witt.bracket) and one on the 100 random pairs.  The failure
    reported is a loop's first: over basis triples antisymmetry, then Jacobi;
    basis pairs, row-major; per random triple antisymmetry, Jacobi, bracket.
    """
    p = field.p
    t = witt._bracket_tensor(p) % p
    eye = np.eye(p, dtype=np.int64)
    anti = np.argwhere(((t + t.transpose(1, 0, 2)) % p).any(axis=2))
    jacobi = witt.jacobi_scan(t, p)
    if anti.size and (jacobi is None or tuple(anti[0]) <= jacobi[:2]):
        raise AssertionError("antisymmetry fails")
    assert jacobi is None, "Jacobi fails on {!r}, {!r}, {!r}".format(*witt.elements(field, eye[list(jacobi)]))
    wrong = (witt.bracket_rows(eye[:, None], eye, p) != t).any(axis=2)
    wrong[0, 0] |= witt.bracket(*witt.elements(field, eye[[0, 0]])).coeffs != tuple(t[0, 0])
    pair = np.argwhere(wrong)[:1].ravel()
    assert not pair.size, "bracket disagrees with the table on {!r}, {!r}".format(*witt.elements(field, eye[pair]))

    drawn = witt.random_rows(rng, p, 300).reshape(100, 3, p)
    xs, ys, zs = drawn.transpose(1, 0, 2)
    br = lambda a, b: np.einsum("ks,kt,stm->km", a, b, t) % p  # noqa: E731
    xy = br(xs, ys)
    anti = ((xy + br(ys, xs)) % p).any(axis=1)
    jacobi = ((br(xy, zs) + br(br(ys, zs), xs) + br(br(zs, xs), ys)) % p).any(axis=1)
    wrong = (witt.bracket_rows(xs, ys, p) != xy).any(axis=1)
    for k in np.flatnonzero(anti | jacobi | wrong)[:1]:
        x, y, z = witt.elements(field, drawn[k])
        assert not anti[k], "antisymmetry fails"
        assert not jacobi[k], f"Jacobi fails on {x!r}, {y!r}, {z!r}"
        raise AssertionError(f"bracket disagrees with the table on {x!r}, {y!r}")
    return f"{p**3 + len(drawn)} triples"


def _witt_checks(field: PrimeField, rng: random.Random, oracle_trials: int) -> list[ext.CheckResult]:
    p = field.p
    checks = [_check("witt.antisymmetry_jacobi", lambda: _antisymmetry_jacobi(field, rng))]

    def oracle_equivalence():
        gs = np.vstack([np.eye(p, dtype=np.int64), witt.random_rows(rng, p, oracle_trials)])  # the basis, then randoms
        derived = witt.pth_power_via_derivation_rows(gs, p)
        bad = np.flatnonzero((witt.pth_power_rows(gs, p) != derived).any(axis=1))
        assert not bad.size, f"mismatch at {witt.elements(field, gs[bad[0]])[0]!r}"
        for g, power in zip(witt.elements(field, gs[:p]), derived):  # the one-row entry point on the basis
            assert witt.pth_power_via_derivation(g).coeffs == tuple(power), f"one-row mismatch at {g!r}"
        return f"{len(gs)} elements"

    checks.append(_check("witt.pth_power_oracle", oracle_equivalence))

    def restricted_axiom_on_w():
        # [h, g^{[p]}] = h @ B(g^{[p]}) and [h, g, ..., g] = h @ B(g)^p, B the right-bracket matrix:
        # a basis pair (b_u, b_v) gives row v of a matrix of b_u (witt.basis_chains); random pairs take vector chains.
        randoms = witt.random_rows(rng, p, 40, nonzero=True).reshape(20, 2, p)  # pairs (g, h)
        gs = np.vstack([np.eye(p, dtype=np.int64), randoms[:, 0]])
        bg, direct = (witt.right_bracket_matrix(v, p) for v in (randoms[:, 0], witt.pth_power_rows(gs, p)))
        c, m = witt.basis_chains(p, p)
        chains = c.T[..., None] * np.eye(p, dtype=np.int64)[m.T]  # chains[u, v]: row v of B(b_u)^p
        bad = np.argwhere((chains != direct[:p]).any(axis=2))  # (u, v) in the order of a loop over g, then h
        assert not bad.size, "fails at {!r}, {!r}".format(*witt.elements(field, gs[bad[0]]))
        hs = randoms[:, 1, None]
        chain = hs
        for _ in range(p):
            chain = chain @ bg % p
        bad = np.flatnonzero((chain != hs @ direct[p:] % p).any(axis=(1, 2)))
        assert not bad.size, "fails at {!r}, {!r}".format(*witt.elements(field, randoms[bad[0]]))
        return f"{p**2 + len(randoms)} pairs"

    checks.append(_check("witt.adjoint_power_on_w", restricted_axiom_on_w))

    def homogeneity_and_proportionality():
        def failing(samples):
            gs, lams = samples
            lam_p = np.array([pow(a, p, p) for a in range(p)])[lams]
            scaled, powers = witt.pth_power_rows(np.stack([lams * gs, gs]), p)
            rows, lead = np.arange(len(gs)), np.argmax(gs != 0, axis=1)  # witt.gamma's coefficient
            ratio = powers[rows, lead] * witt._inverse_vector(p)[gs[rows, lead]] % p
            return ((scaled - lam_p * powers) % p).any(axis=1) | ((powers - ratio[:, None] * gs) % p).any(axis=1)

        parts = [(p, True), (1, False)]  # a sample draws g != 0, then lambda
        samples, k = witt.first_failure(rng, lambda m: witt.random_records(rng, p, m, parts), 25, failing)
        if k is not None:  # the per-element route names the failure
            g, lam = witt.elements(field, samples[0][k])[0], int(samples[1][k, 0])
            assert witt.pth_power(lam * g) == pow(lam, p, p) * witt.pth_power(g), "homogeneity"
            witt.gamma(g)  # raises if the power is not proportional to g
            raise AssertionError(f"stacked and per-element p-th powers disagree at {g!r}")
        return "25 elements"

    checks.append(_check("witt.pth_power_homogeneity_gamma", homogeneity_and_proportionality))

    def fold_order_independence():
        def draw(m):  # each sample draws g != 0, then shuffles its support: gs is lazy, so they interleave
            gs = (witt.random_element(field, rng, True) for _ in range(m))
            return [(g, witt.shuffled_support(g, rng)) for g in gs]

        def failing(samples):  # shuffled then ascending folds, stacked; the one-row fold on the first sample
            gs, orders = zip(*samples)
            orders += tuple(g.support() for g in gs)  # the second copy folds in ascending order
            powers = witt.pth_power_rows(np.array([g.coeffs for g in gs + gs]), p, orders)
            shuffled, ascending = powers.reshape(2, -1, p)
            flags = (shuffled != ascending).any(axis=1)
            flags[0] |= witt.pth_power(gs[0], term_order=orders[0]).coeffs != tuple(shuffled[0])
            return flags

        _, k = witt.first_failure(rng, draw, 10, failing)
        assert k is None, "fold order"
        return "10 permutations"

    checks.append(_check("witt.pth_power_fold_order", fold_order_independence))
    return checks


def _ordinary_checks(field: PrimeField) -> list[ext.CheckResult]:
    p = field.p
    checks = []
    cx = res.cochain_complex(field)

    def complex_identity():
        # d2_cl's term table on d1's columns, the coordinates of the 2-forms d1(e^k).
        assert not ordi._terms_nonzero([ordi._triple_terms(p)], cx.d1.T, p).any(), "d2 . d1 != 0"
        return ""

    checks.append(_check("ordinary.complex_identity", complex_identity))

    def grading_preserved():
        # A term or entry leaks out of its column's grade when its row has another grade.  d2_res is scattered from
        # the term tables, d2's then ind2's, so its entries are their live terms, those with a coefficient nonzero
        # mod p; the zero ones, such as a pair's diagonal reading column 0, are not read.  An entry planted in the
        # assembled d2_res is left to block_full_agreement (alpha rows) and beta_block_zero (beta rows).
        c1, c2, c3 = (ordi.coordinate_grades(p, degree) for degree in (1, 2, 3))
        n3 = ordi.triple_index(p).shape[1]
        d2_leaks = set()
        for (coefficient, column), grades in ((ordi._triple_terms(p), c3[:n3]), (res._ind2_terms(p), c3[n3:])):
            d2_leaks.update(c2[column[(coefficient % p != 0) & (c2[column] != grades)]].tolist())
        r, c = np.nonzero(cx.d1_res)
        d1_leaks = set(c1[c[c2[r] != c1[c]]].tolist())
        for k in range(-1, p - 1):
            assert k not in d2_leaks, f"d2 leaks out of grade {k}"
            assert k not in d1_leaks, f"d1 leaks out of grade {k}"
        return ""

    checks.append(_check("ordinary.grading_preserved", grading_preserved))

    if p > 3:

        def graded_dims():
            pairs, triples = (np.count_nonzero(table >= 0, axis=1) for table in ordi.grade_tables(p))
            for k in range(-1, p - 1):
                assert pairs[k + 1] == (p - 1) // 2, f"pairs at grade {k}"
                assert triples[k + 1] == (p - 1) * (p - 2) // 6, f"triples at grade {k}"
            return ""

        checks.append(_check("ordinary.graded_dims", graded_dims))

        def graded_kernels():
            total = 0
            for k in range(-1, p - 1):
                dim2 = res.graded_component_kernel_dim(field, k, 2)
                expected = 2 if k == 0 else 1
                assert dim2 == expected, f"grade {k}: kernel dim {dim2} != {expected}"
                total += dim2
                assert res.graded_component_kernel_dim(field, k, 1) == 0, f"d1 kernel at grade {k}"
            assert total == p + 1, f"total graded kernel {total} != p+1"
            return ""

        checks.append(_check("ordinary.graded_kernel_dims", graded_kernels))
    else:
        checks.append(_skip("ordinary.graded_dims", "graded dimension formulas need p > 3"))
        checks.append(_skip("ordinary.graded_kernel_dims", "graded kernel pattern needs p > 3"))

    def block_full_agreement():
        # Rank certificates, products mod p only.  d2 is the corner of d2_res's alpha rows (a view of it).  When its
        # grade blocks hold every nonzero of those rows, none leaking out of its grade and none in an omega column
        # (d2 never reads omega), d2's rank is the sum of theirs.
        ker, d2, d2r = np.array(cx.ker_d2_res), cx.d2, cx.d2_res
        corner = d2r[: len(d2), : d2.shape[1]]
        assert d2.__array_interface__ == corner.__array_interface__, "d2 is not the corner of d2_res"
        blocks = ordi.delta2_block(d2, p, np.arange(-1, p - 1))
        assert np.count_nonzero(blocks) == np.count_nonzero(d2r[: len(d2)]), "d2's grade blocks miss a nonzero entry"
        rank = int(field.certified_ranks(blocks, *cx.block_kernels).sum())
        assert rank == cx.rank_d2, "per-grade ranks disagree with the full matrix"
        # So rank d2_res >= rank d2.  d2_res kills ker d2_res, whose vectors end at distinct columns, so are
        # independent: rank d2_res <= its columns - dim ker d2_res.  Their phi parts come from d2's blocks, and the
        # term tables d2_res is scattered from kill them.
        assert len({np.flatnonzero(v)[-1] for v in ker if v.any()}) == len(ker), "dependent kernel vectors"
        assert res.is_cocycle_rows(ker, p).all(), "d2_res does not kill ker d2_res"
        assert cx.rank_d2_res == rank == d2r.shape[1] - len(ker), "per-grade ranks disagree with the restricted matrix"
        return ""

    checks.append(_check("ordinary.block_full_agreement", block_full_agreement))

    def cohomology_dims():
        hc = res.ordinary_cohomology_dims(field)
        assert (hc.h0, hc.h1) == (1, 0), f"(H0, H1) = {(hc.h0, hc.h1)}"
        expected_h2 = 1 if p > 3 else 0
        assert hc.h2 == expected_h2, f"H2 = {hc.h2} != {expected_h2}"
        return ""

    checks.append(_check("ordinary.cohomology_dims", cohomology_dims))

    if p > 3:

        def explicit_cocycles():
            gen = ordi.virasoro_cocycle(field)
            assert ordi.delta2_cl(gen).is_zero(), "generator is not a cocycle"
            assert cx.split_coboundary(gen.to_vector(), restricted=False)[1].any(), "generator is a coboundary"
            scaled = ordi.c2_from_dict(
                field,
                {(n, witt.normalize_index(p - n, p)): -2 * n for n in range(1, (p - 1) // 2 + 1)},
            )
            assert scaled == ordi.delta1_cl(ordi.dual_basis(field, 0)), "-2n cochain != d1(e^0)"
            # Every grade-zero kernel vector (the complex's block kernels, grade 0 at index 1 of the stack) obeys
            # the three-term recursion n*a(n+2) = (n+3)*a(n+1) + (2n+3)*a(-1,1) on its coefficients.
            vectors, free = cx.block_kernels
            column, sign = ordi.wedge_signs(p, 2)
            for v in vectors[1][free[1]]:
                phi = np.zeros(len(ordi.upper_triangle(p)[0]), dtype=np.int64)
                phi[ordi.grade_tables(p)[0][1]] = v  # the block's columns are the grade-0 pairs
                form = sign * phi[column]  # form[i + 1, j + 1] = phi(e_i ^ e_j)
                # a(n) is the coefficient on the pair (n, p-n) for n >= 2;
                # the constant term reads the pair (-1, 1).
                def a(n):
                    return int(form[n + 1, witt.normalize_index(p - n, p) + 1])
                low = int(form[0, 2])
                for n in range(1, (p - 5) // 2 + 1):
                    lhs = (n * a(n + 2)) % p
                    rhs = ((n + 3) * a(n + 1) + (2 * n + 3) * low) % p
                    assert lhs == rhs, f"recursion fails at n={n}"
            return ""

        checks.append(_check("ordinary.explicit_cocycles", explicit_cocycles))
    else:
        checks.append(_skip("ordinary.explicit_cocycles", "needs p > 3"))
    return checks


def _starstar_by_evaluation(
    alpha: ordi.Cochain3Ord, g: witt.WittElement, h1: witt.WittElement, h2: witt.WittElement
) -> int:
    """The ** correction sum (restricted.starstar_correction) from the values of its lambda-polynomial.

    P(lambda) = [h1, h2, lambda*h1 + h2, ..., lambda*h1 + h2], with p - 3
    applications, has degree at most p - 3, and its lambda^k coefficient R_k
    sums the chains with k free 1-labels.  All p values of P are stacked
    rows, one batched product per application with the right-bracket
    matrices of the p rows lambda*h1 + h2.  Over GF(p), sum_lambda lambda^e
    is -1 when e > 0 and (p - 1) | e, and 0 otherwise, so
    R_k = -sum_lambda lambda^(p-1-k) P(lambda): no interpolation solve and
    no lambda recurrence (witt.lambda_rows).  With the last factor, a chain
    in R_k has k + 2 1-labels for l_p = 1 and k + 1 for l_p = 2; its weight
    is the inverse of that count against t[i, j] = alpha(g ^ e_i ^ e_j).
    t contracts alpha's dense tensor, scattered here from triple_index at
    the six signed permutations of each triple's positions, not read off
    Cochain3Ord.to_dense (ordinary.wedge_signs): the two sides of the check
    share no orientation.  Shared with the library: right_bracket_matrix
    and _inverse_vector.  Every int64 intermediate stays below p^3.
    """
    p = alpha.field.p
    gv, h1v, h2v = (np.array(x.coeffs, dtype=np.int64) for x in (g, h1, h2))
    i, j, k = ordi.triple_index(p) + 1
    v = alpha.to_vector()
    dense = np.zeros((p, p, p), dtype=np.int64)
    dense[i, j, k] = dense[j, k, i] = dense[k, i, j] = v
    dense[i, k, j] = dense[j, i, k] = dense[k, j, i] = -v % p
    t = np.einsum("m,mij->ij", gv, dense) % p
    lams = np.arange(p)
    b = witt.right_bracket_matrix((lams[:, None] * h1v + h2v) % p, p)  # b[lambda]: [., lambda*h1 + h2]
    values = np.broadcast_to(h1v @ b[0] % p, (p, p))  # row lambda: P(lambda), grown from [h1, h2]
    for _ in range(p - 3):
        values = (values[:, None, :] @ b)[:, 0] % p
    powers = np.ones((p, p), dtype=np.int64)  # powers[e, lambda] = lambda^e
    for e in range(1, p):
        powers[e] = powers[e - 1] * lams % p
    coefficients = -powers[p - 1 : 1 : -1] @ values % p  # row k: R_k, k = 0, ..., p - 3
    ends = coefficients @ t % p @ np.stack([h1v, h2v], axis=1) % p  # column l - 1: the contraction with h_l
    k = np.arange(p - 2)
    inv = witt._inverse_vector(p)
    return int((inv[k + 2] * ends[:, 0] + inv[k + 1] * ends[:, 1]).sum() % p)


def _omega_fold_invariance(field: PrimeField, rng: random.Random, ker: tuple[np.ndarray, ...]) -> str:
    """omega(g) of 10 random combinations c of ker, each folded in 5 shuffled orders, equals eval_omega(c, g).

    Fold-order independence is the executable form of omega being well
    defined off the basis.  It holds exactly over cocycles (the only
    cochains whose omega the library ever folds), and the suite also
    confirms it genuinely fails off the kernel.  The references, omega(g)
    in ascending order once per (c, g), are one omega_functional_rows call,
    with the one-row eval_omega on the first; the 50 shuffled folds are
    another, given their orders.  The draws and the failure are those of a
    loop testing each order as it is drawn.
    """
    p = field.p
    ker = np.array(ker)

    def draws():
        while True:  # a (cocycle, element) pair, then its 5 shuffled orders
            c = witt.randbelow(rng, p, len(ker)) @ ker % p
            g = witt.random_element(field, rng, True)
            yield from ((c, g, witt.shuffled_support(g, rng)) for _ in range(5))

    def failing(samples):
        cocycles, gs, orders = zip(*samples)
        cocycles, rows = np.array(cocycles), np.array([g.coeffs for g in gs])
        refs = res.omega_functional_rows(rows[::5], p) * cocycles[::5]
        base = np.repeat(refs.sum(axis=1) % p, 5)
        folds = res.omega_functional_rows(rows, p, orders)
        flags = (folds * cocycles).sum(axis=1) % p != base
        flags[0] |= res.eval_omega(res.Cochain2Res.from_vector(field, cocycles[0]), gs[0]) != base[0]
        return flags

    # 50 draws end on a pair boundary, so winding back redraws whole pairs from there.
    stream = draws()
    _, k = witt.first_failure(rng, lambda m: [next(stream) for _ in range(m)], 50, failing)
    assert k is None, "fold order changes omega"
    return "10 cocycles x 5 orders"


def _restricted_checks(field: PrimeField, rng: random.Random, h2=None) -> list[ext.CheckResult]:
    p = field.p
    checks = []
    cx = res.cochain_complex(field)
    d1r, d2r = cx.d1_res, cx.d2_res

    def dims_closed_form():
        assert res.c2_dim(p) == p * (p + 1) // 2, "degree-2 coordinate count"
        assert res.c3_dim(p) == p * (p + 1) * (p + 2) // 6, "degree-3 coordinate count"
        return ""

    checks.append(_check("restricted.dims_closed_form", dims_closed_form))

    def complex_identity():
        assert res.is_cocycle_rows(d1r.T, p).all(), "d2 . d1 != 0"  # the coboundaries, d1's columns, are cocycles
        return ""

    checks.append(_check("restricted.complex_identity", complex_identity))

    def beta_block_zero():
        n3 = ordi.triple_index(p).shape[1]
        assert not d2r[n3:, :].any(), "induced degree-3 block is nonzero"
        return ""

    checks.append(_check("restricted.beta_block_zero", beta_block_zero))

    def delta1_injective():
        assert cx.rank_d1_res == p, "restricted d1 is not injective"
        return ""

    checks.append(_check("restricted.delta1_injective", delta1_injective))

    def kernel_structure():
        ker = res.c2_dim(p) - cx.rank_d2_res
        ker_cl = len(ordi.wedge_pairs(p)) - cx.rank_d2
        assert ker == ker_cl + p, f"ker d2 = {ker} != ker d2_cl + p = {ker_cl + p}"
        if p > 3:
            assert ker == 2 * p + 1, f"ker d2 = {ker} != 2p+1"
        return ""

    checks.append(_check("restricted.kernel_structure", kernel_structure))

    def h2_dimension():
        found = (h2 or res.restricted_h2)(field)
        expected = p + 1 if p > 3 else 3
        assert found.h2_dim == expected, f"H2 = {found.h2_dim} != {expected}"
        assert found.im_dim == p, f"im d1 = {found.im_dim} != p"
        assert len(found.representatives) == found.h2_dim, "representative count"
        return ""

    checks.append(_check("restricted.h2_dimension", h2_dimension))

    def star_consistency():
        def failing(samples):  # a sample draws psi, then g != 0, then h != 0
            psis, gs, hs = samples
            powers = witt.pth_power_rows(np.stack([(gs + hs) % p, gs, hs]), p)
            lhs = np.einsum("km,km->k", psis, powers[0] - powers[1] - powers[2]) % p
            forms = np.einsum("stm,km->kst", witt._bracket_tensor(p), psis) % p  # d1(psi) = psi o bracket
            flags = lhs != res.correction_sums(forms, gs, hs, p)
            psi = ordi.delta1_cl(ordi.Cochain1(field, tuple(psis[0].tolist())))  # the one-row call on the first sample
            flags[0] |= res.star_correction(psi, *witt.elements(field, [gs[0], hs[0]])) != lhs[0]
            return flags

        parts = [(p, False), (p, True), (p, True)]
        _, k = witt.first_failure(rng, lambda m: witt.random_records(rng, p, m, parts), 10, failing)
        assert k is None, "summand sum mismatch"
        return "10 samples"

    checks.append(_check("restricted.star_consistency", star_consistency))

    checks.append(_check("restricted.omega_fold_invariance", lambda: _omega_fold_invariance(field, rng, cx.ker_d2_res)))

    def starstar_enumeration():
        for _ in range(4):
            phi = ordi.Cochain2Ord(field, tuple(witt.randbelow(rng, p, len(ordi.wedge_pairs(p))).tolist()))
            alpha = ordi.delta2_cl(phi)
            g, h1, h2 = witt.elements(field, witt.random_rows(rng, p, 3, True))
            assert res.starstar_correction(alpha, g, h1, h2) == _starstar_by_evaluation(alpha, g, h1, h2), "mismatch"
        return "4 samples"

    checks.append(_check("restricted.starstar_enumeration", starstar_enumeration))
    return checks


def _extension_checks(field: PrimeField, rng: random.Random, h2=None) -> list[ext.CheckResult]:
    """The extension checks: each calls every kernel once for all its samples, pairs or representatives, and names
    its first failure with the one-row calls a loop makes on that sample, so its draws and details are the loop's."""
    p = field.p
    checks = []
    cx = res.cochain_complex(field)

    def representatives():
        reps = list((h2 or res.restricted_h2)(field).representatives)
        return reps, np.array([c.to_vector() for c in reps])

    def roundtrip():
        ker = np.array(cx.ker_d2_res)

        def failing(vecs):  # each sample's extension is built (a non-cocycle refused), extracted and compared
            exts = [ext.build_extension(res.Cochain2Res.from_vector(field, v), check=False) for v in vecs]
            back = ext.extract_cocycles(exts, [ext.canonical_splitting(e) for e in exts])
            return ~res.is_cocycle_rows(vecs, p) | (back != vecs).any(axis=1)

        draw = lambda m: witt.randbelow(rng, p, m * len(ker)).reshape(m, -1) @ ker % p  # noqa: E731
        vecs, k = witt.first_failure(rng, draw, 10, failing)
        if k is not None:
            e = ext.build_extension(c := res.Cochain2Res.from_vector(field, vecs[k]))
            assert ext.extract_cocycle(e, ext.canonical_splitting(e)) == c, "extraction does not invert construction"
        assert k is None, "stacked and one-row extractions disagree"
        return "10 kernel samples"

    checks.append(_check("extensions.roundtrip", roundtrip))

    def splitting_shift():
        reps, vectors = representatives()
        cs = vectors[:4]
        built = res.is_cocycle_rows(cs, p)
        n = int(np.argmin(built)) if not built.all() else len(cs)  # a loop refuses a non-cocycle before its draw
        exts = [ext.build_extension(c, check=False) for c in reps[:n]]

        def sigma(psi):
            return [ext.ExtElement(witt.basis_element(field, i), int(a)) for i, a in zip(range(-1, p - 1), psi)]

        def failing(psis):  # each shifted extraction is compared with c - d1(psi), then tested for cohomology
            shifted = ext.extract_cocycles(exts[: len(psis)], [sigma(psi) for psi in psis])
            same, _ = ext.cohomologous_rows(field, shifted, cs[: len(psis)])
            same[0] &= ext.cohomologous(res.Cochain2Res.from_vector(field, shifted[0]), reps[0])[0]  # the one-row call
            return ((shifted - cs[: len(psis)] + psis @ cx.d1_res.T) % p).any(axis=1) | ~same

        psis, k = witt.first_failure(rng, lambda m: witt.randbelow(rng, p, m * p).reshape(m, p), n, failing)
        k = n if k is None and n < len(cs) else k
        if k is not None:
            e = ext.build_extension(c := reps[k])
            shifted, psi = ext.extract_cocycle(e, sigma(psis[k])), ordi.Cochain1(field, tuple(psis[k].tolist()))
            assert shifted == c - res.delta1_res(psi), "shifted extraction != c - d1(psi)"
            assert ext.cohomologous(shifted, c)[0], "shifted extraction not cohomologous to the source"
        assert k is None, "stacked and one-row splittings disagree"
        return f"{len(cs)} splittings"

    checks.append(_check("extensions.splitting_independence", splitting_shift))

    def axioms_all():
        reps, _ = representatives()
        extensions = [ext.build_extension(c) for c in reps]
        trials = 5 if p <= 13 else 3
        reports = []

        def failing(seeds):
            reports[:] = ext.verify_restricted_axioms_stacked(extensions, trials, seeds)
            return [not report.all_pass for report in reports]

        # One seed per extension, drawn as a loop checking each in turn draws them.
        _, k = witt.first_failure(rng, lambda m: witt.randbelow(rng, 2**31, m).tolist(), len(extensions), failing)
        assert k is None, f"axioms fail: {[c.name for c in reports[k].failed()]}"
        return f"{len(extensions)} extensions"

    checks.append(_check("extensions.axioms", axioms_all))

    def negative_control():
        reps, _ = representatives()
        e = ext.build_extension(reps[-1]).with_bracket_entry_zeroed(-1, 0)
        report = ext.verify_restricted_axioms(e, trials=2)
        assert not report.all_pass, "corrupted table passed verification"
        assert any(c.name == "jacobi" and not c.passed for c in report.checks), "Jacobi missed it"
        return ""

    checks.append(_check("extensions.negative_control", negative_control))

    def class_independence():
        reps, vectors = representatives()
        if p <= 7:
            a, b = np.triu_indices(len(reps), 1)  # the pairs in a loop's order; it draws nothing
            failing = lambda ks: ext.cohomologous_rows(field, vectors[a[ks]], vectors[b[ks]])[0]  # noqa: E731
            _, k = witt.first_failure(rng, np.arange, len(a), failing)
            if k is not None:
                same, _ = ext.cohomologous(reps[a[k]], reps[b[k]])
                assert not same, f"representatives {a[k]} and {b[k]} are cohomologous"
            assert k is None, "stacked and one-row cohomology tests disagree"
            return f"all {len(a)} pairs"
        assert field.rank(cx.split_coboundary(vectors)[1]) == len(reps), "classes dependent modulo coboundaries"
        return "rank-based"

    checks.append(_check("extensions.class_independence", class_independence))

    def classification_counts():
        reps, vectors = representatives()
        labels = ext.classify_rows(field, vectors)
        assert ext.classify_extension(reps[0]) is labels[0], "stacked and one-row classifications disagree"
        levi_only = sum(1 for l in labels if l is ext.Classification.ORDINARY_LEVI_ONLY)
        non_levi = sum(1 for l in labels if l is ext.Classification.NON_LEVI)
        assert not any(l is ext.Classification.SPLIT for l in labels), "a representative is split"
        assert levi_only == p, f"{levi_only} ordinary-split classes != p"
        expected_non_levi = 1 if p > 3 else 0
        assert non_levi == expected_non_levi, f"{non_levi} non-split classes"
        return ""

    checks.append(_check("extensions.classification_counts", classification_counts))
    return checks


def dims_summary(field: PrimeField) -> dict:
    """All reported dimensions for one prime, read off the blockwise ranks."""
    p = field.p
    cx = res.cochain_complex(field)
    h0_cl, h1_cl, h2_cl = cx.h_ordinary
    h0_res, h1_res, h2_res = cx.h_restricted
    return {
        "C1": p,
        "C2_cl": len(ordi.upper_triangle(p)[0]),
        "C2_res": res.c2_dim(p),
        "C3_cl": ordi.triple_index(p).shape[1],
        "C3_res": res.c3_dim(p),
        "H0_cl": h0_cl,
        "H1_cl": h1_cl,
        "H2_cl": h2_cl,
        "H0_res": h0_res,
        "H1_res": h1_res,
        "H2_res": h2_res,
        "ker_delta2_res": len(cx.ker_d2_res),
        "im_delta1_res": cx.rank_d1_res,
        "graded_kernel_dims_deg1": {str(k): d for k, d in cx.graded_kernel_dims[1].items()},
        "graded_kernel_dims_deg2": {str(k): d for k, d in cx.graded_kernel_dims[2].items()},
    }


def run_prime(p: int, seed: int = 0) -> dict:
    """The full verification report for one prime as a JSON-ready dict."""
    res.check_dense_d2_size(p)  # before primality and any work, so a p above the cap gets the size message
    if not is_prime(p) or p < 3:
        raise ValueError(f"{p} is not an odd prime")
    field = PrimeField(p)
    rng = random.Random(f"{seed}:{p}")
    oracle_trials = 100 if p <= 13 else 5
    checks: list[ext.CheckResult] = []
    checks.extend(_witt_checks(field, rng, oracle_trials))
    checks.extend(_ordinary_checks(field))
    h2 = functools.cache(res.restricted_h2)  # once; each check reading it calls it, so a refusal fails those checks
    checks.extend(_restricted_checks(field, rng, h2))
    checks.extend(_extension_checks(field, rng, h2))

    dims = dims_summary(field)

    def dims_closed_forms():
        assert dims["C2_res"] == p * (p + 1) // 2
        assert dims["C3_res"] == p * (p + 1) * (p + 2) // 6
        if p > 3:
            assert dims["H2_res"] == p + 1, f"H2 = {dims['H2_res']}"
            assert dims["ker_delta2_res"] == 2 * p + 1
        else:
            assert dims["H2_res"] == 3
        assert dims["im_delta1_res"] == p
        return ""

    checks.append(_check("report.dims_closed_forms", dims_closed_forms))

    return {
        "prime": p,
        "seed": seed,
        "dims": dims,
        "checks": [c.as_dict() for c in checks],
        "all_pass": all(c.passed for c in checks),
    }


def _run_prime_args(args: tuple[int, int]) -> dict:
    return run_prime(*args)
