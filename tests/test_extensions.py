"""Central extension construction, extraction, axiom checks, classification."""

import random
import tracemalloc

import numpy as np
import pytest

from tests.oracles import adjoint_chain_powers, c2res_zero, from_dict, is_graded_table, sample_rows
from wittcoh import extensions, verify, witt
from wittcoh.extensions import (
    CentralExtension,
    Classification,
    ExtElement,
    NotASplittingError,
    build_extension,
    canonical_splitting,
    classify_extension,
    classify_rows,
    cohomologous,
    cohomologous_rows,
    extract_cocycle,
    extract_cocycles,
    omega_extension,
    verify_restricted_axioms,
    virasoro_extension,
)
from wittcoh.gfp import PrimeField
from wittcoh.ordinary import Cochain1, Cochain3Ord, c2_from_dict, c2_zero, dual_basis
from wittcoh.restricted import (
    Cochain2Res,
    Cochain3Res,
    NotACocycleError,
    cochain_complex,
    delta1_res,
    delta2_res_matrix,
    eval_omega,
    omega_coordinate,
    omega_functional_rows,
    restricted_h2,
    virasoro_cochain,
)
from wittcoh.witt import (
    WittElement,
    basis_element,
    normalize_index,
    pth_power_via_derivation,
    summands_total,
    zero,
)

F5 = PrimeField(5)
F7 = PrimeField(7)


def e(i, field=F5):
    return basis_element(field, i)


def random_cocycle(field, rng, ker):
    vec = sum(rng.randrange(field.p) * v for v in ker) % field.p
    return Cochain2Res.from_vector(field, vec)


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
    # One bound, witt._SWEEP_BYTES, governs the basis-pair sweep: patched to
    # 1 it splits the sweep into one block per u, and the report is the same.
    ext = virasoro_extension(F7)
    expected = verify_restricted_axioms(ext, trials=3, seed=1)
    calls = []
    lambda_rows = witt.lambda_rows

    def counted(*args):
        calls.append(args)
        return lambda_rows(*args)

    monkeypatch.setattr(witt, "lambda_rows", counted)
    monkeypatch.setattr(witt, "_SWEEP_BYTES", 1)
    assert verify_restricted_axioms(ext, trials=3, seed=1) == expected
    assert len(calls) == F7.p + 2  # p + 1 blocks of the sweep and the random trials


def test_axiom_scans_build_no_array_over_all_extensions(monkeypatch):
    # At p = 37 one int64 array of shape (extensions, n, n, n) is 15.9 MiB.
    # The adjoint scan and the sum sweep once held about 4.3 of them.  With
    # the block bound patched to one such array, the whole check peaks
    # within two: the left sides of the sweep are half of one, and each
    # extension compares its own (n, n, n) sides.
    p = 37
    exts = [build_extension(c) for c in restricted_h2(PrimeField(p)).representatives]
    array = 8 * len(exts) * (p + 1) ** 4
    monkeypatch.setattr(witt, "_SWEEP_BYTES", array)
    tracemalloc.start()
    try:
        reports = extensions.verify_restricted_axioms_stacked(exts, 0, list(range(len(exts))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.all_pass for r in reports)
    assert peak <= 2 * array


def test_basis_pair_sweep_stays_within_its_block_bound(monkeypatch):
    # The bound admits four arrays of a block's lambda rows; patched to three
    # u per block, the sweep of the two distinct tables of p = 17 runs six
    # blocks, and holds about three such arrays besides its two outputs.
    # Sizing the blocks for three arrays passes this bound.
    p = 17
    field = PrimeField(p)
    tables = np.stack([omega_extension(field, 0).bracket_table, virasoro_extension(field).bracket_table])
    n = p + 1
    monkeypatch.setattr(witt, "_SWEEP_BYTES", 3 * 4 * 8 * len(tables) * n * p * n)
    calls = []
    lambda_rows = witt.lambda_rows

    def counted(*args):
        calls.append(args)
        return lambda_rows(*args)

    monkeypatch.setattr(witt, "lambda_rows", counted)
    tracemalloc.start()
    try:
        extensions._basis_pair_sweep(tables, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(calls) == 6
    assert peak <= witt._SWEEP_BYTES + 2 * tables.nbytes  # and the two (d, n, n, n) outputs


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
        # The reference shares no code with pmap_rows: the one-row derivation
        # route and the whole omega functional of the source cocycle.
        g = ext.from_coeffs(x).witt
        expected = ExtElement(pth_power_via_derivation(g), eval_omega(ext.source, g))
        assert ext.from_coeffs(power) == expected
        assert ext.pth_power(ext.from_coeffs(x)) == expected
    assert (ext.pth_power_rows(xs.reshape(2, -1, p + 1)).reshape(xs.shape) == powers).all()


def test_sum_sweep_folds_each_basis_sum_once(monkeypatch):
    # The basis sums b_u + b_v, u <= v, are shared by every extension, and
    # only the Virasoro cocycle has phi != 0, so the sweep (the only p-map
    # call when there are no random trials) folds each sum once.
    p = F7.p
    exts = [build_extension(c) for c in restricted_h2(F7).representatives]
    received = []

    def counted(gs, p):
        received.append(len(gs.reshape(-1, p)))
        return omega_functional_rows(gs, p)

    monkeypatch.setattr(extensions, "omega_functional_rows", counted)
    reports = extensions.verify_restricted_axioms_stacked(exts, 0, list(range(len(exts))))
    assert all(r.all_pass for r in reports)
    assert received == [(p + 1) * (p + 2) // 2]


def test_pmap_rows_power_shared_rows_against_each_cocycle():
    # Rows without the cocycles' leading axis are powered for every
    # extension at once, as each extension's own p-map powers them.
    rng = random.Random(4)
    exts = [build_extension(c) for c in restricted_h2(F7).representatives]
    cocycles = np.stack([x.source.to_vector() for x in exts])
    xs = np.array([[rng.randrange(7) for _ in range(8)] for _ in range(12)])
    powers = extensions.pmap_rows(xs, cocycles[:, None], 7)
    assert powers.shape == (len(exts), len(xs), 8)
    for x, got in zip(exts, powers):
        assert (got == x.pth_power_rows(xs)).all()


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_pmap_rows_contract_the_whole_omega_functional(p):
    # Only rows that meet a cocycle with phi != 0 take the fold; the central
    # coordinate must still be the whole omega functional against the
    # cocycle, for stacks that mix phi = 0 and phi != 0, on rows every
    # cocycle shares and on rows of each cocycle's own, unreduced entries too.
    field = PrimeField(p)
    rng = random.Random(p + 5)
    draw = np.random.default_rng(p)
    ker = cochain_complex(field).ker_d2_res
    sources = list(restricted_h2(field).representatives)
    sources[1:1] = [random_cocycle(field, rng, ker)]
    sources.append(random_cocycle(field, rng, ker))
    cocycles = np.stack([c.to_vector() for c in sources])
    with_phi = [not c.phi.is_zero() for c in sources]
    assert any(with_phi) and not all(with_phi)

    def rows():
        xs = np.concatenate([sample_rows(field, rng), draw.integers(0, p, size=(12, 1))], axis=1)
        return xs + p * draw.integers(-p, p, size=xs.shape)

    shared = rows()
    got = extensions.pmap_rows(shared, cocycles[:, None], p)
    want = np.einsum("mc,ec->em", omega_functional_rows(shared[:, :p], p), cocycles) % p
    assert got.shape == (len(sources), len(shared), p + 1)
    assert (got[..., p] == want).all()
    own = np.stack([rows() for _ in sources])
    for xs in (own, np.stack([own, 2 * own])):
        got = extensions.pmap_rows(xs, cocycles[:, None], p)
        want = np.einsum("...emc,ec->...em", omega_functional_rows(xs[..., :p], p), cocycles) % p
        assert (got[..., p] == want).all()


def _central_corrupted(clean: CentralExtension, part: str) -> CentralExtension:
    """clean with [c, e_-1] (part "row") or [e_-1, c] (part "column") gaining e_0."""
    table = clean.bracket_table.copy()
    if part == "row":
        table[clean.p, 0, 1] = 1
    else:
        table[0, clean.p, 1] = 1
    return CentralExtension(clean.source, table, clean.pmap_basis.copy())


@pytest.mark.parametrize("part", ["row", "column"])
def test_a_table_differing_only_in_the_central_row_or_column_gets_its_own_verdict(part):
    # Tables are grouped by every entry: c's own row and column lie outside
    # the W + phi block table[:p, :p], which the two tables here share.
    clean = virasoro_extension(F5)
    dirty = _central_corrupted(clean, part)
    for exts in ([clean, dirty], [dirty, clean]):
        stacked = extensions.verify_restricted_axioms_stacked(exts, 3, [1, 2])
        assert stacked == [verify_restricted_axioms(x, 3, s) for x, s in zip(exts, [1, 2])]
        assert [r.all_pass for r in stacked] == [x is clean for x in exts]
    assert ("central_element", False) in [(c.name, c.passed) for c in verify_restricted_axioms(dirty, 3, 2).checks]


@pytest.mark.parametrize("p", [5, 7, 13, 31])
def test_every_table_run_prime_builds_is_graded(p, monkeypatch):
    # W + Kc, the Virasoro extension and the negative control (W + Kc with [e_-1, e_0] zeroed) are all graded.
    field, built = PrimeField(p), {}
    init = CentralExtension.__init__

    def recorded(self, *args):
        init(self, *args)
        built.setdefault(self.bracket_table.tobytes(), self.bracket_table)

    monkeypatch.setattr(CentralExtension, "__init__", recorded)
    assert verify.run_prime(p)["all_pass"]
    monkeypatch.undo()
    split = omega_extension(field, 0)
    expected = [split, virasoro_extension(field), split.with_bracket_entry_zeroed(-1, 0)]
    assert {e.bracket_table.tobytes() for e in expected} <= built.keys()
    assert all(is_graded_table(t, p) for t in built.values())


def test_tables_corrupted_off_the_grading_are_not_graded():
    clean = virasoro_extension(F5)
    assert is_graded_table(clean.bracket_table, 5)
    assert not any(is_graded_table(_central_corrupted(clean, part).bracket_table, 5) for part in ("row", "column"))
    table = clean.bracket_table.copy()
    table[1, 2, 0] = 1  # [e_0, e_1] gains e_-1, off grade 1
    assert not is_graded_table(table, 5)


def corrupt_pmap_rows(monkeypatch, rows_by_call):
    """On call i of extensions.pmap_rows, add e_0 to the first stacked power at row rows_by_call[i].

    verify_restricted_axioms makes call 0 for the scalar axiom (its first
    stack is (lambda*x)^{[p]}), call 1 for the adjoint axiom's random
    pairs, call 2 for the sum axiom's basis sums b_u + b_v (u <= v, in
    np.triu_indices order) and call 3 for its random pairs (its first stack
    is x^{[p]}).
    """
    original = extensions.pmap_rows
    calls = []

    def corrupted(xs, cocycles, p):
        out = original(xs, cocycles, p).copy()
        if len(calls) in rows_by_call:
            out.reshape(-1, xs.shape[-2], xs.shape[-1])[0, rows_by_call[len(calls)], 1] += 1
        calls.append(xs)
        return out

    monkeypatch.setattr(extensions, "pmap_rows", corrupted)


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
    corrupt_pmap_rows(monkeypatch, {0: k, 3: 1})
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
    corrupt_pmap_rows(monkeypatch, {1: k, 3: 0})
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
    corrupt_pmap_rows(monkeypatch, {3: k})
    report = verify_restricted_axioms(ext, trials=5, seed=13)
    *_, sums = axiom_draws(ext, 13, 5, 5, 5)
    assert [(c.name, c.detail) for c in report.failed()] == [
        ("sum_expansion", "fails for x={!r}, y={!r}".format(*sums[k]))
    ]


@pytest.mark.parametrize("row", [0, 7, 20])
def test_sum_sweep_powers_the_basis_sums_through_pmap_rows(monkeypatch, row):
    # Call 2 powers the 21 basis sums b_u + b_v, u <= v, of an extension at
    # p = 5; a wrong power of one fails the sweep at that pair, the first in
    # row-major order (its mirror (v, u) comes later).  Row 20 is c + c.
    ext = omega_extension(F5, 1)
    corrupt_pmap_rows(monkeypatch, {2: row})
    report = verify_restricted_axioms(ext, trials=5, seed=3)
    u, v = (int(i[row]) for i in np.triu_indices(F5.p + 1))
    assert [(c.name, c.detail) for c in report.failed()] == [
        ("sum_expansion", f"fails for x={ext.basis(u)!r}, y={ext.basis(v)!r}")
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


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_sweep_chains_equal_the_dense_chain_powers(p):
    # The basis-pair sweep reads the adjoint chain power R(b_u)^p of every
    # basis element off its lambda recurrence; the dense matrix powers of
    # tests/oracles.py must agree on every table the verifier meets: W + Kc,
    # Virasoro, the negative controls and the corrupted central row and column.
    field = PrimeField(p)
    clean = virasoro_extension(field) if p > 3 else omega_extension(field, 0)
    exts = [omega_extension(field, 0), clean, _central_corrupted(clean, "row"), _central_corrupted(clean, "column")]
    exts += [make() for make, _ in CONTROLS.values() if make().p == p]
    tables = np.stack([e.bracket_table for e in exts])
    summands, chains = extensions._basis_pair_sweep(tables, p)
    for t, got in zip(tables, chains):
        assert (got == adjoint_chain_powers(t, p)).all()
    right, eye = tables.transpose(0, 2, 1, 3), np.eye(p + 1, dtype=np.int64)
    assert (summands == summands_total(eye[:, None], right[:, :, None], right[:, None], p)).all()


@pytest.mark.parametrize("name", sorted(CONTROLS))
def test_negative_control_reports_are_pinned(name):
    make, expected = CONTROLS[name]
    report = verify_restricted_axioms(make(), trials=2)
    assert [(c.name, c.passed, c.detail) for c in report.checks] == expected


@pytest.mark.parametrize("p", [5, 7, 11])
def test_stacked_reports_equal_one_extension_at_a_time(p):
    # All p + 1 extensions checked together, with the corrupted controls of
    # the prime in the middle, report what each reports checked alone; the
    # controls, at seed 0 and 2 trials, keep their pinned reports.
    field = PrimeField(p)
    exts = [build_extension(c) for c in restricted_h2(field).representatives]
    controls = [(make(), expected) for make, expected in CONTROLS.values() if make().p == p]
    if p == 11:  # no pinned control at this prime
        controls = [(virasoro_extension(field).with_bracket_entry_zeroed(-1, 0), None)]
    middle = len(exts) // 2
    exts[middle:middle] = [control for control, _ in controls]
    rng = random.Random(p)
    seeds = [rng.randrange(2**31) for _ in exts]
    seeds[middle : middle + len(controls)] = [0] * len(controls)
    for trials in (2, 5):
        stacked = extensions.verify_restricted_axioms_stacked(exts, trials, seeds)
        assert stacked == [verify_restricted_axioms(x, trials, s) for x, s in zip(exts, seeds)]
        assert [r.all_pass for r in stacked].count(False) == len(controls)
    stacked = extensions.verify_restricted_axioms_stacked(exts, 2, seeds)
    for report, (_, expected) in zip(stacked[middle:], controls):
        assert not report.all_pass
        if expected is not None:
            assert [(c.name, c.passed, c.detail) for c in report.checks] == expected


@pytest.mark.parametrize("p", [5, 7])
def test_table_work_runs_once_per_distinct_table(monkeypatch, p):
    # The p coordinate cocycles (0, omega_i) share one bracket table, W + Kc,
    # and the Virasoro class has another: the Jacobi scan and the basis sweep
    # run on these two only.  The sweep is one lambda_rows call, its tables
    # stacked, and the summands of the random pairs add one more.
    field = PrimeField(p)
    exts = [build_extension(c) for c in restricted_h2(field).representatives]
    scanned, summed = [], []
    jacobi_scan, lambda_rows = witt.jacobi_scan, witt.lambda_rows

    def scan(t, q):
        scanned.append(t.copy())
        return jacobi_scan(t, q)

    def summands(*args):
        summed.append(args)
        return lambda_rows(*args)

    monkeypatch.setattr(witt, "jacobi_scan", scan)
    monkeypatch.setattr(witt, "lambda_rows", summands)
    reports = extensions.verify_restricted_axioms_stacked(exts, 5, list(range(len(exts))))
    assert all(r.all_pass for r in reports)
    assert len(exts) == p + 1
    assert {t.tobytes() for t in scanned} == {x.bracket_table.tobytes() for x in exts}
    assert len(scanned) == 2
    assert len(summed) == 2
    sweep_tables = summed[0][2][:, 0].transpose(0, 2, 1, 3)  # bh: the right-bracket matrices of every basis element
    assert sorted(t.tobytes() for t in sweep_tables) == sorted({x.bracket_table.tobytes() for x in exts})


@pytest.mark.parametrize("name", sorted(CONTROLS))
def test_two_copies_of_a_corrupted_table_report_as_each_alone(name):
    # Two extensions with one corrupted table, between the p + 1 good ones,
    # share its table work but keep their own draws and reports.
    make, _ = CONTROLS[name]
    exts = [build_extension(c) for c in restricted_h2(make().field).representatives]
    middle = len(exts) // 2
    exts[middle:middle] = [make(), make()]
    seeds = [0, *range(2, len(exts) + 1)]
    stacked = extensions.verify_restricted_axioms_stacked(exts, 3, seeds)
    assert stacked == [verify_restricted_axioms(x, 3, s) for x, s in zip(exts, seeds)]
    assert [r.all_pass for r in stacked].count(False) == 2


def test_stacked_trials_name_each_extensions_first_failing_draw(monkeypatch):
    # Row k of the scalar axiom's first stack belongs to the first
    # extension; the second, checked in the same call, keeps passing.
    first, second = virasoro_extension(F7), omega_extension(F7, 2)
    corrupt_pmap_rows(monkeypatch, {0: 3})
    reports = extensions.verify_restricted_axioms_stacked([first, second], 5, [11, 12])
    scalar, _, _ = axiom_draws(first, 11, 4, 5, 5)
    assert [(c.name, c.detail) for c in reports[0].failed()] == [
        ("scalar_power", "fails for lambda={}, x={!r}".format(*scalar[3]))
    ]
    assert reports[1].all_pass


def test_stacked_axioms_refuse_mixed_primes():
    with pytest.raises(ValueError):
        extensions.verify_restricted_axioms_stacked([virasoro_extension(F5), virasoro_extension(F7)], 2, [0, 0])
    with pytest.raises(ValueError):
        extensions.verify_restricted_axioms_stacked([virasoro_extension(F5)], 2, [0, 1])


def test_stacked_axioms_refuse_an_empty_stack():
    with pytest.raises(ValueError, match="at least one extension"):
        extensions.verify_restricted_axioms_stacked([], 3, [])


def test_extract_cocycles_refuses_an_empty_stack():
    with pytest.raises(ValueError, match="at least one extension"):
        extract_cocycles([], [])


def test_extract_names_a_pmap_defect_left_in_w(monkeypatch):
    # The p defects come from one stacked p-map call; a W part left in any
    # of them is refused.
    ext = virasoro_extension(F5)
    original = extensions.pmap_rows
    calls = []

    def shifted(xs, cocycles, p):
        calls.append(xs.shape)
        out = original(xs, cocycles, p).copy()
        out[0, 3, 0] += 1
        return out

    monkeypatch.setattr(extensions, "pmap_rows", shifted)
    with pytest.raises(NotASplittingError, match="p-map defect left W"):
        extract_cocycle(ext, canonical_splitting(ext))
    assert calls == [(1, 5, 6)]


def test_axioms_check_names_the_first_failing_extension(monkeypatch):
    # verify's extensions.axioms draws one seed per extension from the
    # prime's generator, as a loop over the extensions would, reports the
    # first failing extension, and leaves the generator where that loop stops.
    from wittcoh import verify

    states = []  # the generator's state before each seed it draws

    class Recorded(random.Random):
        def randrange(self, *args):
            if args == (2**31,):
                states.append(self.getstate())
            return super().randrange(*args)

    field = PrimeField(5)
    reps = restricted_h2(field).representatives
    broken = {reps[2]: (1, 2), reps[4]: (-1, 0)}

    def corrupted(c, check=True):
        e = build_extension(c, check)
        return e.with_bracket_entry_zeroed(*broken[c]) if c in broken else e

    monkeypatch.setattr(verify.ext, "build_extension", corrupted)
    rng = Recorded(3)
    check = next(c for c in verify._extension_checks(field, rng) if c.name == "extensions.axioms")
    assert len(states) == len(reps) + 3  # all seeds, then the first three again to wind back
    replay = random.Random()
    replay.setstate(states[0])
    for c in reps:
        report = verify_restricted_axioms(corrupted(c), 5, replay.randrange(2**31))
        if not report.all_pass:
            break
    assert c is reps[2]
    assert (check.passed, check.detail) == (False, f"axioms fail: {[x.name for x in report.failed()]}")
    assert rng.getstate() == states[3]


def extract_one_by_one(exts, sigmas):
    """extract_cocycle on each extension in turn: the coordinate rows, or the first refusal's message and position."""
    rows = []
    for k, (ext, sigma) in enumerate(zip(exts, sigmas)):
        try:
            rows.append(extract_cocycle(ext, sigma).to_vector())
        except NotASplittingError as err:
            return str(err), k
    return np.array(rows)


def extract_stacked(exts, sigmas):
    try:
        return extract_cocycles(exts, sigmas)
    except NotASplittingError as err:
        return str(err), err.index


def shifted_splitting(ext, psi):
    return [ExtElement(basis_element(ext.field, i), psi[i + 1]) for i in range(-1, ext.p - 1)]


@pytest.mark.parametrize("p", [5, 7])
def test_stacked_extraction_matches_one_at_a_time(p):
    # W's own coordinate extensions, the Virasoro algebra and a direct
    # product, under canonical and shifted splittings.
    field = PrimeField(p)
    rng = random.Random(p)
    exts = [omega_extension(field, i) for i in range(-1, p - 1)]
    exts += [virasoro_extension(field), build_extension(c2res_zero(field))]
    sigmas = [shifted_splitting(x, [rng.randrange(p) for _ in range(p)]) for x in exts]
    sigmas[1::2] = [canonical_splitting(x) for x in exts[1::2]]
    rows = extract_stacked(exts, sigmas)
    assert (rows == extract_one_by_one(exts, sigmas)).all()
    assert (rows[1::2] == [x.source.to_vector() for x in exts[1::2]]).all()


def defective(kind, field):
    """An extension and splitting a loop refuses: a moved image, a short splitting, a table off W or a p-map defect."""
    ext = virasoro_extension(field)
    sigma = canonical_splitting(ext)
    if kind == "moved":
        sigma[2] = ExtElement(e(0, field) + e(2, field), 1)
    elif kind == "short":
        sigma = sigma[:-1]
    elif kind == "bracket":
        table = ext.bracket_table.copy()
        table[0, 2, 1] += 1
        ext = CentralExtension(ext.source, table, ext.pmap_basis)
    else:  # "pmap": its source is the marked cocycle of corrupt_pmap_of
        ext = build_extension(PMAP_DEFECT[field.p])
        sigma = canonical_splitting(ext)
    return ext, sigma


PMAP_DEFECT = {p: 2 * omega_coordinate(PrimeField(p), 1) for p in (5, 7)}


@pytest.mark.parametrize("kinds", [
    ("moved",), ("short",), ("bracket",), ("pmap",),
    ("ok", "ok", "bracket", "moved", "ok"),
    ("ok", "short", "pmap"),
    ("ok", "pmap", "short", "bracket"),
    ("moved", "short"),
    ("ok", "ok", "ok", "short"),
])
def test_stacked_extraction_refuses_what_a_loop_refuses_first(monkeypatch, kinds):
    # The p-map defect is a W part left in the p-th powers of the rows of
    # one source cocycle, by content, so it hits a stacked call and a
    # one-row call alike.
    field = F7
    original = extensions.pmap_rows
    marked = PMAP_DEFECT[7].to_vector()

    def pmap_rows(xs, cocycles, p):
        out = original(xs, cocycles, p).copy()
        hit = np.broadcast_to((cocycles == marked).all(axis=-1), out.shape[:-1])
        out[..., 0] += hit
        return out

    monkeypatch.setattr(extensions, "pmap_rows", pmap_rows)
    rng = random.Random(len(kinds))
    cases = [defective(kind, field) if kind != "ok" else (virasoro_extension(field), shifted_splitting(
        virasoro_extension(field), [rng.randrange(7) for _ in range(7)])) for kind in kinds]
    exts, sigmas = zip(*cases)
    expected = extract_one_by_one(exts, sigmas)
    assert isinstance(expected, tuple)
    assert extract_stacked(list(exts), list(sigmas)) == expected


def test_stacked_calls_refuse_mixed_primes():
    v5, v7 = virasoro_extension(F5), virasoro_extension(F7)
    for exts, sigmas in [([v5, v7], [canonical_splitting(x) for x in (v5, v7)]), ([v5], [canonical_splitting(v7)])]:
        with pytest.raises(ValueError, match="same prime"):
            extract_cocycles(exts, sigmas)
    rows = [virasoro_cochain(F7).to_vector()]  # 28 coordinates where GF(5) has 15
    with pytest.raises(ValueError, match="^expected a vector of length 15$"):
        cohomologous_rows(F5, rows, rows)
    with pytest.raises(ValueError, match="^expected a vector of length 15$"):
        classify_rows(F5, rows)


def test_cohomologous_refuses_mixed_primes():
    with pytest.raises(ValueError, match="different fields"):
        cohomologous(omega_coordinate(F5, 0), omega_coordinate(F7, 0))


@pytest.mark.parametrize("p", [5, 7])
def test_stacked_cohomology_test_matches_one_pair_at_a_time(p):
    # Representatives against each other and against themselves shifted by
    # a coboundary; a pair with a non-cocycle is refused at its position.
    field = PrimeField(p)
    rng = random.Random(p)
    reps = restricted_h2(field).representatives
    shifts = [delta1_res(Cochain1(field, tuple(rng.randrange(p) for _ in range(p)))) for _ in reps]
    pairs = [(a, b) for a in reps for b in reps] + [(c + d, c) for c, d in zip(reps, shifts)]
    same, psi = cohomologous_rows(field, *(np.array([x[i].to_vector() for x in pairs]) for i in (0, 1)))
    for (a, b), s, w in zip(pairs, same, psi):
        one_same, witness = cohomologous(a, b)
        assert s == one_same
        if s:
            assert Cochain1(field, tuple(w.tolist())) == witness and delta1_res(witness) == a - b
    assert same.sum() == len(reps) * 2
    bad = Cochain2Res(c2_from_dict(field, {(0, 1): 1}), (0,) * p)
    rows = np.array([c.to_vector() for c in (reps[0], reps[1], bad, reps[2])])
    with pytest.raises(NotACocycleError) as refused:
        cohomologous_rows(field, rows, rows[::-1])
    assert refused.value.index == 1


def classify_by_ranks(field, v):
    """The class of a cocycle row from ranks of d1 with and without it, d1_res built one basis form at a time."""
    p = field.p
    d1_res = np.array([delta1_res(dual_basis(field, k)).to_vector() for k in range(-1, p - 1)]).T
    if field.rank(np.column_stack([d1_res, v])) == field.rank(d1_res):
        return Classification.SPLIT
    d1 = d1_res[:-p]
    if field.rank(np.column_stack([d1, v[:-p]])) == field.rank(d1):
        return Classification.ORDINARY_LEVI_ONLY
    return Classification.NON_LEVI


@pytest.mark.parametrize("p", [5, 7])
def test_stacked_classification_matches_ranks_and_one_row_calls(p):
    # Representatives, their multiples, and both shifted by coboundaries
    # d1(psi); the coboundaries alone are the split inputs.
    field = PrimeField(p)
    rng = random.Random(p)
    reps = [c.to_vector() for c in restricted_h2(field).representatives]
    cobs = [delta1_res(Cochain1(field, tuple(rng.randrange(p) for _ in range(p)))).to_vector() for _ in range(4)]
    rows = np.array(reps + [2 * r for r in reps] + [r + cobs[k % 4] for k, r in enumerate(reps)] + cobs) % p
    labels = classify_rows(field, rows)
    assert labels == [classify_extension(Cochain2Res.from_vector(field, v)) for v in rows]
    assert labels == [classify_by_ranks(field, v) for v in rows]
    assert labels[-4:] == [Classification.SPLIT] * 4
    bad = Cochain2Res(c2_from_dict(field, {(0, 1): 1}), (0,) * p).to_vector()
    with pytest.raises(NotACocycleError, match="classification") as refused:
        classify_rows(field, np.array([rows[0], rows[-1], bad, rows[1]]))
    assert refused.value.index == 2


@pytest.mark.parametrize("bad", [1.5, 2.0, np.float64(3.0), "1", None])
def test_extension_elements_refuse_coefficients_that_are_not_integers(bad):
    # ExtElement used to keep a float central part, and from_coeffs truncated its row.
    with pytest.raises(ValueError, match="must be an integer"):
        ExtElement(zero(F5), bad)
    with pytest.raises(ValueError, match="must be integers"):
        omega_extension(F5, 0).from_coeffs(np.array([0, 0, 0, 0, 0, bad]))
    kept = omega_extension(F5, 0).from_coeffs(np.arange(6, dtype=np.int32))
    assert kept == ExtElement(from_dict(F5, {0: 1, 1: 2, 2: 3, 3: 4}), 0)


def test_extension_rows_of_another_width_are_refused():
    # At p = 5 from_coeffs used to drop the seventh entry of a row, and to fail with a bare IndexError on five.
    ext = omega_extension(F5, 0)
    for n in (5, 7):
        for build in (ext.from_coeffs, lambda row: ExtElement.from_vector(F5, row)):
            with pytest.raises(ValueError, match="^expected a vector of length 6$"):
                build(np.arange(n))


def test_malformed_composite_values_are_refused_when_built():
    # The first used to build a cochain of 10 coordinates where c2_dim(5) is 15, the second failed later with
    # AttributeError, and the last two raised TypeError from len().
    cases = [
        (lambda: Cochain2Res(WittElement(F5, (0,) * 5), (0,) * 5), "^phi must be a Cochain2Ord, got WittElement$"),
        (lambda: ExtElement(c2_zero(F5), 1), "^witt must be a WittElement, got Cochain2Ord$"),
        (lambda: Cochain3Res(Cochain3Ord(F5, (0,) * 10), (1, 2, 3, 4, 5)), "^beta table must be 5 x 5$"),
        (lambda: Cochain2Res(c2_zero(F5), 5), "^need 5 omega values, got 5$"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError, match=message):
            build()
