"""Central extension construction, extraction, axiom checks, classification."""

import random

import numpy as np
import pytest

from tests.oracles import sample_rows
from wittcoh import extensions, witt
from wittcoh.extensions import (
    CentralExtension,
    Classification,
    ExtElement,
    NotASplittingError,
    build_extension,
    canonical_splitting,
    classify_extension,
    cohomologous,
    extract_cocycle,
    omega_extension,
    verify_restricted_axioms,
    virasoro_extension,
)
from wittcoh.gfp import PrimeField
from wittcoh.ordinary import c2_from_dict, dual_basis
from wittcoh.restricted import (
    Cochain2Res,
    NotACocycleError,
    c2_from_vector,
    c2res_zero,
    delta1_res,
    delta2_res_matrix,
    omega_coordinate,
    restricted_h2,
    virasoro_cochain,
)
from wittcoh.witt import WittElement, basis_element, from_dict, normalize_index, summands_total, zero

F5 = PrimeField(5)
F7 = PrimeField(7)


def e(i, field=F5):
    return basis_element(field, i)


def random_cocycle(field, rng, ker):
    vec = sum(rng.randrange(field.p) * v for v in ker) % field.p
    return c2_from_vector(field, vec)


def test_omega_extension_pmap_table():
    ext = omega_extension(F5, 2)
    # e_j^{[p]} = [j = 0] e_0 + [j = 2] c
    for j in range(-1, 4):
        power = ext.from_coeffs(ext.pmap_basis[j + 1])
        expected = ExtElement(
            basis_element(F5, 0) if j == 0 else zero(F5), 1 if j == 2 else 0
        )
        assert power == expected
    assert not ext.pmap_basis[5].any()  # c^{[p]} = 0


def test_virasoro_bracket_value():
    ext = virasoro_extension(F5)
    b = ext.bracket(ext.element(e(1)), ext.element(e(-1)))
    assert b == ExtElement(from_dict(F5, {0: 3}), 4)


@pytest.mark.parametrize("p", [5, 7])
def test_virasoro_bracket_closed_form(p):
    # [e_j, e_k] = (k - j) e_{j+k} + j(j^2-4)/3 [j+k = 0] c for all pairs.
    field = PrimeField(p)
    ext = virasoro_extension(field)
    inv3 = field.inv(3)
    for j in range(-1, p - 1):
        for k in range(-1, p - 1):
            got = ext.bracket(ext.element(e(j, field)), ext.element(e(k, field)))
            expected_witt = (k - j) * basis_element(field, normalize_index(j + k, p))
            expected_c = j * (j * j - 4) * inv3 if (j + k) % p == 0 else 0
            assert got == ExtElement(expected_witt, expected_c)


def test_zero_cocycle_gives_direct_product():
    ext = build_extension(c2res_zero(F5))
    for u in range(5):
        for v in range(5):
            assert ext.bracket_table[u, v, 5] == 0
    assert not ext.bracket_table[5].any() and not ext.bracket_table[:, 5].any()
    assert not ext.pmap_basis[:, 5].any()
    assert ext.pmap_basis[1, 1] == 1  # e_0 keeps its p-th power


def test_build_rejects_non_cocycle():
    phi = c2_from_dict(F5, {(0, 1): 1})
    with pytest.raises(NotACocycleError):
        build_extension(Cochain2Res(phi, (0,) * 5))


@pytest.mark.parametrize("p", [5, 7])
def test_extract_inverts_build(p):
    field = PrimeField(p)
    rng = random.Random(0)
    ker = field.kernel_basis(delta2_res_matrix(field))
    for _ in range(100):
        c = random_cocycle(field, rng, ker)
        ext = build_extension(c)
        assert extract_cocycle(ext, canonical_splitting(ext)) == c


def test_extract_from_direct_product_is_zero():
    ext = build_extension(c2res_zero(F5))
    assert extract_cocycle(ext, canonical_splitting(ext)) == c2res_zero(F5)


@pytest.mark.parametrize("p", [5, 7])
def test_splitting_shift_is_a_coboundary(p):
    # sigma'(g) = g + psi(g) c shifts the extracted cocycle by -d1(psi).
    field = PrimeField(p)
    rng = random.Random(1)
    ker = field.kernel_basis(delta2_res_matrix(field))
    for _ in range(10):
        c = random_cocycle(field, rng, ker)
        ext = build_extension(c)
        psi_vals = [rng.randrange(p) for _ in range(p)]
        sigma = [
            ExtElement(basis_element(field, i - 1), psi_vals[i]) for i in range(p)
        ]
        shifted = extract_cocycle(ext, sigma)
        from wittcoh.ordinary import Cochain1

        psi = Cochain1(field, tuple(psi_vals))
        assert shifted == c - delta1_res(psi)
        same, witness = cohomologous(shifted, c)
        assert same
        assert delta1_res(witness) == shifted - c


def test_extract_rejects_non_splitting():
    ext = build_extension(c2res_zero(F5))
    sigma = canonical_splitting(ext)
    sigma[0] = ExtElement(e(0), 0)  # no longer projects to e_{-1}
    with pytest.raises(NotASplittingError):
        extract_cocycle(ext, sigma)
    with pytest.raises(NotASplittingError):
        extract_cocycle(ext, sigma[:3])


@pytest.mark.parametrize("p", [5, 7])
def test_two_random_splittings_give_cohomologous_cocycles(p):
    field = PrimeField(p)
    rng = random.Random(2)
    ker = field.kernel_basis(delta2_res_matrix(field))
    for _ in range(5):
        c = random_cocycle(field, rng, ker)
        ext = build_extension(c)
        extracts = []
        for _ in range(2):
            sigma = [
                ExtElement(basis_element(field, i - 1), rng.randrange(p)) for i in range(p)
            ]
            extracts.append(extract_cocycle(ext, sigma))
        same, _ = cohomologous(extracts[0], extracts[1])
        assert same


@pytest.mark.parametrize("p", [5, 7])
def test_all_extensions_pass_restricted_axioms(p):
    field = PrimeField(p)
    for i in range(-1, p - 1):
        report = verify_restricted_axioms(omega_extension(field, i), trials=5)
        assert report.all_pass, report.failed()
    report = verify_restricted_axioms(virasoro_extension(field), trials=5)
    assert report.all_pass, report.failed()


def test_virasoro_axioms_run_unskipped_at_p17():
    # Random p-th powers of a source with phi != 0 fold omega through the
    # correction sums, which the scalar and sum axioms must run, not skip.
    report = verify_restricted_axioms(virasoro_extension(PrimeField(17)))
    assert report.all_pass, report.failed()
    details = {c.name: c.detail for c in report.checks}
    assert "skipped" not in details["scalar_power"]
    assert "skipped" not in details["sum_expansion"]


def test_sweep_blocks_leave_the_axiom_report_unchanged(monkeypatch):
    # One bound, witt._SWEEP_BYTES, governs the sum sweep: patched to 1 it
    # splits the sweep into one block per u, and the report is the same.
    ext = virasoro_extension(F7)
    expected = verify_restricted_axioms(ext, trials=3, seed=1)
    calls = []

    def counted(*args):
        calls.append(args)
        return summands_total(*args)

    monkeypatch.setattr(extensions, "summands_total", counted)
    monkeypatch.setattr(witt, "_SWEEP_BYTES", 1)
    assert verify_restricted_axioms(ext, trials=3, seed=1) == expected
    assert len(calls) == F7.p + 2  # p + 1 blocks of the sweep and the random trials


def test_corrupted_bracket_fails_jacobi():
    # Zeroing [e_1, e_2] breaks the Jacobi identity and the scan finds it.
    ext = omega_extension(F5, 0).with_bracket_entry_zeroed(1, 2)
    report = verify_restricted_axioms(ext, trials=2)
    assert not report.all_pass
    assert any(c.name == "jacobi" and not c.passed for c in report.checks)


def test_extension_of_non_cocycle_fails_jacobi():
    # Forcing construction past the cocycle check yields a bracket table
    # that is not a Lie algebra; the Jacobi scan must catch it.
    phi = c2_from_dict(F5, {(0, 1): 1})
    ext = build_extension(Cochain2Res(phi, (0,) * 5), check=False)
    report = verify_restricted_axioms(ext, trials=2)
    assert any(c.name == "jacobi" and not c.passed for c in report.checks)


def test_corrupted_pmap_detected():
    ext = omega_extension(F5, 1)
    pmap = ext.pmap_basis.copy()
    pmap[1, 1] = 0  # claim e_0^{[p]} = 0
    from wittcoh.extensions import CentralExtension

    bad = CentralExtension(ext.source, ext.bracket_table.copy(), pmap)
    report = verify_restricted_axioms(bad, trials=2)
    assert any(c.name == "adjoint_power" and not c.passed for c in report.checks)


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("make", [lambda field: omega_extension(field, 1), virasoro_extension])
def test_corrupted_central_pmap_fails_only_sum_expansion(p, make):
    # A wrong omega(e_2) in the table's p-map row leaves brackets, the
    # adjoint axiom (c is central) and the scalar axiom (read off the
    # source) intact; the basis sweep must report its first pair, row-major.
    ext = make(PrimeField(p))
    pmap = ext.pmap_basis.copy()
    pmap[3, p] += 1
    report = verify_restricted_axioms(CentralExtension(ext.source, ext.bracket_table.copy(), pmap), trials=5)
    assert [c.name for c in report.failed()] == ["sum_expansion"]
    assert report.failed()[0].detail == "fails for x=e-1, y=e2"


def test_fold_on_basis_sums_is_shared_by_all_extensions(monkeypatch):
    # The W-level p-th powers and omega functionals of the basis sums
    # b_u + b_v come from one pth_power_rows call and one
    # omega_functional_rows call on the stacked pairs u <= v, shared by all
    # p + 1 extensions of the prime, and equal the per-element fold.
    from wittcoh.restricted import omega_functional
    from wittcoh.witt import pth_power

    p = 7
    n = p + 1
    field = PrimeField(p)
    sums = np.array([[(w == u) + (w == v) for w in range(p)] for u in range(n) for v in range(u, n)])
    inputs = {"pth_power_rows": [], "omega_functional_rows": []}

    def counted(name):
        kernel = getattr(extensions, name)

        def wrapper(gs, q):
            inputs[name].append(np.array(gs))
            return kernel(gs, q)

        return wrapper

    for name in inputs:
        monkeypatch.setattr(extensions, name, counted(name))
    extensions._basis_sum_powers.cache_clear()
    reps = restricted_h2(field).representatives
    assert len(reps) == p + 1
    for c in reps:
        assert verify_restricted_axioms(build_extension(c), trials=5, seed=1).all_pass
    for name, calls in inputs.items():
        assert [a.shape == sums.shape and (a == sums).all() for a in calls].count(True) == 1, name
    assert len(inputs["pth_power_rows"]) == 1  # CentralExtension's p-map takes the derivation route

    powers, functionals = extensions._basis_sum_powers(field)
    for u in range(n):
        for v in range(n):
            g = WittElement(field, tuple((w == u) + (w == v) for w in range(p)))
            assert tuple(powers[u, v]) == pth_power(g).coeffs
            assert (functionals[u, v] == omega_functional(g)).all()
    extensions._basis_sum_powers.cache_clear()


def test_cohomologous_examples():
    c = delta1_res(dual_basis(F5, 0))
    same, witness = cohomologous(c, c2res_zero(F5))
    assert same and witness == dual_basis(F5, 0)

    for i in range(-1, 4):
        for j in range(i + 1, 4):
            same, _ = cohomologous(omega_coordinate(F5, i), omega_coordinate(F5, j))
            assert not same
    same, _ = cohomologous(virasoro_cochain(F5), omega_coordinate(F5, 0))
    assert not same


def test_cohomologous_rejects_non_cocycles():
    phi = c2_from_dict(F5, {(0, 1): 1})
    with pytest.raises(NotACocycleError):
        cohomologous(Cochain2Res(phi, (0,) * 5), c2res_zero(F5))


@pytest.mark.parametrize("p", [5, 7])
def test_representatives_pairwise_non_cohomologous(p):
    field = PrimeField(p)
    reps = restricted_h2(field).representatives
    assert len(reps) == p + 1
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            same, _ = cohomologous(reps[a], reps[b])
            assert not same


def test_classification_examples():
    assert classify_extension(omega_coordinate(F5, 2)) is Classification.ORDINARY_LEVI_ONLY
    assert classify_extension(delta1_res(dual_basis(F5, 1))) is Classification.SPLIT
    assert classify_extension(virasoro_cochain(F5)) is Classification.NON_LEVI


@pytest.mark.parametrize("p", [5, 7])
def test_classification_counts(p):
    field = PrimeField(p)
    labels = [classify_extension(c) for c in restricted_h2(field).representatives]
    assert labels.count(Classification.ORDINARY_LEVI_ONLY) == p
    assert labels.count(Classification.NON_LEVI) == 1
    assert Classification.SPLIT not in labels


def test_general_pth_power_uses_source_omega():
    ext = virasoro_extension(F5)
    g = e(-1) + e(0) + e(1)
    power = ext.pth_power(ext.element(g, 3))  # central part must drop out
    from wittcoh.restricted import eval_omega
    from wittcoh.witt import pth_power as w_pth

    assert power == ExtElement(w_pth(g), eval_omega(ext.source, g))
    assert power.central == 4  # the frozen enumeration value


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_pmap_rows_equal_single_element_powers(p):
    field = PrimeField(p)
    rng = random.Random(p + 3)
    ext = virasoro_extension(field) if p > 3 else omega_extension(field, 0)
    ws = sample_rows(field, rng)
    xs = np.concatenate([ws, [[rng.randrange(p)] for _ in ws]], axis=1)
    powers = ext.pth_power_rows(xs)
    assert powers.shape == xs.shape
    for x, power in zip(xs, powers):
        assert (power == ext.pth_power(ext.from_coeffs(x)).coeffs()).all()
    assert (ext.pth_power_rows(xs.reshape(2, -1, p + 1)).reshape(xs.shape) == powers).all()


def corrupt_pmap_rows(monkeypatch, rows_by_call):
    """On call i of CentralExtension.pth_power_rows, add e_0 to the first stacked power at row rows_by_call[i].

    verify_restricted_axioms makes call 0 for the scalar axiom (its first
    stack is (lambda*x)^{[p]}), call 1 for the adjoint axiom's random
    pairs and call 2 for the sum axiom's (its first stack is x^{[p]}).
    """
    original = CentralExtension.pth_power_rows
    calls = []

    def corrupted(self, xs):
        out = original(self, xs).copy()
        if len(calls) in rows_by_call:
            out.reshape(-1, xs.shape[-2], xs.shape[-1])[0, rows_by_call[len(calls)], 1] += 1
        calls.append(xs)
        return out

    monkeypatch.setattr(CentralExtension, "pth_power_rows", corrupted)


def axiom_draws(ext, seed, scalar_trials, adjoint_trials, sum_trials):
    """The random draws of verify_restricted_axioms as per-element loops make them, stopping after a failure."""
    p = ext.p
    rng = random.Random(seed)

    def random_ext(nonzero=False):
        while True:
            x = ext.from_coeffs([rng.randrange(p) for _ in range(p + 1)])
            if not nonzero or not x.is_zero():
                return x

    scalar = [(rng.randrange(p), random_ext()) for _ in range(scalar_trials)]
    adjoint = [(random_ext(True), random_ext(True)) for _ in range(adjoint_trials)]
    return scalar, adjoint, [(random_ext(True), random_ext(True)) for _ in range(sum_trials)]


@pytest.mark.parametrize("k", [0, 2, 4])
def test_scalar_axiom_names_its_first_failing_draw(monkeypatch, k):
    # The sum axiom's pairs come after the scalar axiom's draws, which a
    # per-element loop stops at its first failure.
    ext = virasoro_extension(F7)
    corrupt_pmap_rows(monkeypatch, {0: k, 2: 1})
    report = verify_restricted_axioms(ext, trials=5, seed=11)
    scalar, _, sums = axiom_draws(ext, 11, k + 1, 5, 5)
    details = {c.name: c.detail for c in report.failed()}
    assert details == {
        "scalar_power": "fails for lambda={}, x={!r}".format(*scalar[k]),
        "sum_expansion": "fails for x={!r}, y={!r}".format(*sums[1]),
    }


@pytest.mark.parametrize("k", [0, 3, 4])
def test_adjoint_axiom_names_its_first_failing_draw(monkeypatch, k):
    ext = omega_extension(F7, 2)
    corrupt_pmap_rows(monkeypatch, {1: k, 2: 0})
    report = verify_restricted_axioms(ext, trials=5, seed=12)
    _, adjoint, sums = axiom_draws(ext, 12, 5, k + 1, 5)
    details = {c.name: c.detail for c in report.failed()}
    assert details == {
        "adjoint_power": "fails for x={!r}, y={!r}".format(*adjoint[k]),
        "sum_expansion": "fails for x={!r}, y={!r}".format(*sums[0]),
    }


@pytest.mark.parametrize("k", [0, 2, 4])
def test_sum_axiom_names_its_first_failing_draw(monkeypatch, k):
    ext = virasoro_extension(F5)
    corrupt_pmap_rows(monkeypatch, {2: k})
    report = verify_restricted_axioms(ext, trials=5, seed=13)
    *_, sums = axiom_draws(ext, 13, 5, 5, 5)
    assert [(c.name, c.detail) for c in report.failed()] == [
        ("sum_expansion", "fails for x={!r}, y={!r}".format(*sums[k]))
    ]


def _corrupted_pmap(ext, u, w, delta):
    pmap = ext.pmap_basis.copy()
    pmap[u, w] = (pmap[u, w] + delta) % ext.p
    return CentralExtension(ext.source, ext.bracket_table.copy(), pmap)


# (name, passed, detail) of every check, as the per-element axiom loops reported them.
CONTROLS = {
    "bracket": (
        lambda: omega_extension(F5, 0).with_bracket_entry_zeroed(1, 2),
        [
            ("antisymmetry", True, ""),
            ("jacobi", False, "Jacobi fails on basis triple positions (0, 2, 3)"),
            ("central_element", True, ""),
            ("scalar_power", True, ""),
            ("adjoint_power", False, "fails for x=2*e-1 + e0 + 4*e2 + 2*e3 + 4*c, y=4*e-1 + e0 + 2*e1 + 2*c"),
            ("sum_expansion", False, "fails for x=e-1, y=e2"),
        ],
    ),
    "bracket-p7": (
        lambda: virasoro_extension(F7).with_bracket_entry_zeroed(-1, 0),
        [
            ("antisymmetry", True, ""),
            ("jacobi", False, "Jacobi fails on basis triple positions (0, 1, 2)"),
            ("central_element", True, ""),
            ("scalar_power", True, ""),
            (
                "adjoint_power",
                False,
                "fails for x=2*e-1 + e0 + 6*e1 + 4*e3 + 6*e4 + 2*e5 + 4*c, y=5*e-1 + 6*e0 + 4*e1 + e2 + 2*e3 + 5*e5",
            ),
            ("sum_expansion", False, "fails for x=e-1, y=e0"),
        ],
    ),
    "pmap": (
        lambda: _corrupted_pmap(omega_extension(F5, 1), 1, 1, -1),
        [
            ("antisymmetry", True, ""),
            ("jacobi", True, ""),
            ("central_element", True, ""),
            ("scalar_power", True, ""),
            ("adjoint_power", False, "fails on basis positions (0, 1)"),
            ("sum_expansion", False, "fails for x=e-1, y=e0"),
        ],
    ),
    "non-cocycle": (
        lambda: build_extension(Cochain2Res(c2_from_dict(F5, {(0, 1): 1}), (0,) * 5), check=False),
        [
            ("antisymmetry", True, ""),
            ("jacobi", False, "Jacobi fails on basis triple positions (0, 1, 3)"),
            ("central_element", True, ""),
            ("scalar_power", True, ""),
            ("adjoint_power", True, ""),
            ("sum_expansion", False, "fails for x=2*e-1 + 4*e1 + 3*c, y=4*e0 + 3*e1 + 2*e2 + e3 + 2*c"),
        ],
    ),
}


@pytest.mark.parametrize("p", [5, 7])
def test_adjoint_basis_scan_names_the_pair_a_loop_meets_first(p):
    # The stacked matrix power must report the basis pair that a loop over
    # u, testing [b_v, b_u^{[p]}] = [b_v, b_u, ..., b_u] for every v, meets first.
    def loop_detail(ext):
        t = ext.bracket_table
        for u in range(p + 1):
            chain = np.eye(p + 1, dtype=np.int64)
            for _ in range(p):
                chain = chain @ t[:, u, :] % p
            direct = np.einsum("svm,v->sm", t, ext.pmap_basis[u]) % p
            rows = np.flatnonzero((chain != direct).any(axis=1))
            if rows.size:
                return f"fails on basis positions ({rows[0]}, {u})"
        return ""

    rng = random.Random(p)
    ext = virasoro_extension(PrimeField(p))
    seen = 0
    for _ in range(10):
        bad = ext
        for _ in range(rng.randrange(1, 3)):
            bad = _corrupted_pmap(bad, rng.randrange(p), rng.randrange(p), rng.randrange(1, p))
        expected = loop_detail(bad)
        adjoint = next(c for c in verify_restricted_axioms(bad, trials=2).checks if c.name == "adjoint_power")
        if expected:
            assert (adjoint.passed, adjoint.detail) == (False, expected)
            seen += 1
        else:
            assert not adjoint.detail.startswith("fails on basis")
    assert seen >= 5


@pytest.mark.parametrize("name", sorted(CONTROLS))
def test_negative_control_reports_are_pinned(name):
    make, expected = CONTROLS[name]
    report = verify_restricted_axioms(make(), trials=2)
    assert [(c.name, c.passed, c.detail) for c in report.checks] == expected
