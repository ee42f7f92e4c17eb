"""Negative controls: each mutation corrupts one kernel, and the set of checks it fails is pinned.

A route that shares a bug with its oracle passes vacuously; each row of
the table names the checks that catch its mutation at p = 7 and 13.  The
rows cover the kernels behind the report's routes: the lambda recurrence,
the fold and its steps, the correction weights, the derivation route, the
basis chains, W's bracket on the basis and its basis powers, the
orientation of 2-forms and 3-forms (ordinary.wedge_signs), the
extensions' basis-pair sweep and p-map, W's bracket rows and
right-bracket matrices, the composite values read off rows
(gfp.CoordinatePair.from_vector); the complex's rank certificates (d2's
grade blocks, their kernels, the inverse X of the lower bound, ker
d2_res); and the coboundaries, as d2's and ind2's term tables and as the
assembled d2_res and d1_res.  A kernel's patch adds 1 mod p to the first
nonzero entry of every output (bumped) in every loaded wittcoh module
that holds it by name (replace_kernel finds them, so a new import of a
kernel is patched too), and the cached tables built from its output are
rebuilt around each row.  The term tables are also moved off the
grading, their first live term reading a pair of the next grade
(moved_off_its_grade).  A check that stops failing under its mutation is
a regression.

A corruption shared by both sides of one comparison cannot be caught by
that comparison: witt.pth_power_fold_order folds both orders through
pth_power_rows, for one.  So the table pins which checks catch each kernel,
and test_every_check_fails_under_some_mutation that every check but the
few on UNREACHED catches at least one.
"""

import sys

import numpy as np
import pytest

from tests import oracles
from wittcoh import extensions, gfp, ordinary, restricted, verify, witt

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
    # The complex reduces d2's grade blocks with one nonzero entry changed to another nonzero; verify gathers
    # the blocks from d2 itself.
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


def bumped(out, p, mask=True):
    """A copy of out with 1 added mod p to its first nonzero entry inside mask: a change that matters."""
    out = np.array(out)
    found = np.argwhere((out % p != 0) & mask)
    if len(found):
        out[tuple(found[0])] = (out[tuple(found[0])] + 1) % p
    return out


def replace_kernel(monkeypatch, kernel, replacement):
    """Put replacement in place of kernel in every loaded wittcoh module that holds it by name; refuse one none holds."""
    modules = [module for name, module in sorted(sys.modules.items()) if name.split(".")[0] == "wittcoh"]
    found = [(module, name) for module in modules for name, value in list(vars(module).items()) if value is kernel]
    if not found:
        raise LookupError(f"no wittcoh module holds {kernel!r}")
    for module, name in found:
        monkeypatch.setattr(module, name, replacement)


def corrupt_kernel(monkeypatch, kernel, corrupt):
    """Replace kernel, in every module that holds it, by corrupt(its output, *its arguments)."""
    replace_kernel(monkeypatch, kernel, lambda *args: corrupt(kernel(*args), *args))


def corrupted_lambda_rows(monkeypatch):
    corrupt_kernel(monkeypatch, witt.lambda_rows, lambda rows, *args: bumped(rows, args[-1]))


def corrupted_fold_power(monkeypatch):
    corrupt_kernel(monkeypatch, witt.pth_power_rows, lambda power, gs, p, *orders: bumped(power, p))


def corrupted_fold_steps(monkeypatch):
    # The step values of every block of the one fold, before they are summed per row.
    fold = witt.fold

    def corrupted(step, gs, p, *orders):
        return fold(lambda g, h: bumped(step(g, h), p), gs, p, *orders)

    replace_kernel(monkeypatch, fold, corrupted)


def corrupted_correction_weights(monkeypatch):
    # Off the diagonal: every form the weights meet is antisymmetric, so a diagonal entry changes no sum.
    def off_diagonal(q, g, h, p):
        return bumped(q, p, ~np.eye(p, dtype=bool))

    corrupt_kernel(monkeypatch, restricted._correction_weights, off_diagonal)


def corrupted_derivation_rows(monkeypatch):
    corrupt_kernel(monkeypatch, witt.pth_power_via_derivation_rows, lambda q, gs, p: bumped(q, p))


def corrupted_basis_chains(monkeypatch):
    # The coefficient c of the first chain c * e_m that is not zero; ind2's term table is built from the chains.
    def coefficient(chains, p, steps):
        return bumped(chains[0], p), chains[1]

    corrupt_kernel(monkeypatch, witt.basis_chains, coefficient)


def corrupted_basis_powers(monkeypatch):
    # W's restricted structure on the basis, e_0^{[p]} = 2 e_0: the fold, the extension tables, the splitting
    # defects, d1_res and ind2's term table read the table; the derivation route does not.
    corrupt_kernel(monkeypatch, witt.basis_powers, lambda powers, p: bumped(powers, p))


def corrupted_basis_brackets(monkeypatch):
    # W's bracket on the basis, [e_{-1}, e_0] = 2 e_{-1}: the structure tensor, the basis chains, d1, d2's term table
    # and the splitting defects read the table; the formula route (right_bracket_matrix) and the grading do not.
    corrupt_kernel(monkeypatch, witt.basis_brackets, lambda table, p: (bumped(table[0], p), table[1]))


def misoriented_pairs(monkeypatch):
    # 2-forms read as symmetric, the positions below the diagonal of wedge_signs(p, 2) taking +1: the value methods,
    # to_matrix, c2_from_dict and d2's and ind2's term tables read the table.
    def symmetric(table, p, degree):
        column, sign = table
        return (column, np.where(np.tri(p, k=-1, dtype=bool), 1, sign).astype(np.int8)) if degree == 2 else table

    corrupt_kernel(monkeypatch, ordinary.wedge_signs, symmetric)


def misoriented_triples(monkeypatch):
    # The orientation class s < r < t of wedge_signs(p, 3) negated: Cochain3Ord.to_dense, the library's side of the
    # ** check, reads it; the check's evaluation route scatters its own dense tensor.
    def negated(table, p, degree):
        column, sign = table
        r, s, t = np.ogrid[:p, :p, :p]
        return (column, np.where((s < r) & (r < t), -sign, sign).astype(np.int8)) if degree == 3 else table

    corrupt_kernel(monkeypatch, ordinary.wedge_signs, negated)


def corrupted_basis_pair_sums(monkeypatch):
    def summands(sweep, tables, p):
        return bumped(sweep[0], p), sweep[1]

    corrupt_kernel(monkeypatch, extensions._basis_pair_sweep, summands)


def corrupted_pmap_rows(monkeypatch):
    corrupt_kernel(monkeypatch, extensions.pmap_rows, lambda powers, xs, cocycles, p: bumped(powers, p))


def corrupted_bracket_rows(monkeypatch):
    corrupt_kernel(monkeypatch, witt.bracket_rows, lambda brackets, xs, ys, p: bumped(brackets, p))


def corrupted_right_bracket_matrix(monkeypatch):
    # The index route behind bracket_rows, the fold's steps and the correction weights; W's structure constants
    # (witt._bracket_tensor) do not read it.  Every matrix of a stack is bumped, as a loop of one-row calls would
    # be: with only a stack's first, the one changed fold step leaves witt.pth_power_oracle's powers whole at p = 13.
    def each_bumped(matrices, v, p):
        return np.array([bumped(m, p) for m in np.reshape(matrices, (-1, p, p))]).reshape(np.shape(matrices))

    corrupt_kernel(monkeypatch, witt.right_bracket_matrix, each_bumped)


def bumped_coefficient(terms, p):
    """A term table (coefficient, column) with its first nonzero signed coefficient bumped, not a column it reads."""
    return (bumped(terms[0], p),) + terms[1:]


def corrupted_triple_terms(monkeypatch):
    # The first term of the first triple: d2_cl, the assembled d2 and is_cocycle_rows all change.
    corrupt_kernel(monkeypatch, ordinary._triple_terms, bumped_coefficient)


def corrupted_ind2_terms(monkeypatch):
    # The first term of the beta row (-1, 0), which the second term cancelled: ind2, the beta rows of d2_res and
    # is_cocycle_rows all change.
    corrupt_kernel(monkeypatch, restricted._ind2_terms, bumped_coefficient)


def moved_off_its_grade(terms, p):
    """A term table (coefficient, column) with its first live term moved to the first pair column of the next grade."""
    coefficient, column = terms[0], np.array(terms[1])
    t, n = np.argwhere(coefficient % p != 0)[0]
    grade = oracles.pair_grade(p, ordinary.wedge_pairs(p)[column[t, n]])
    column[t, n] = oracles.graded_pair_positions(p, witt.normalize_index(grade + 1, p))[0]
    return coefficient, column


def misgraded_triple_terms(monkeypatch):
    # The first term of the first triple reads a pair of another grade: d2_cl and the assembled d2 leak.
    corrupt_kernel(monkeypatch, ordinary._triple_terms, moved_off_its_grade)


def misgraded_ind2_terms(monkeypatch):
    # The first live term of ind2, on the beta row (-1, 0), which the second term cancelled, reads a pair of another
    # grade: ind2 and the beta rows of d2_res leak.
    corrupt_kernel(monkeypatch, restricted._ind2_terms, moved_off_its_grade)


def assembled_d2_res_with(monkeypatch, position):
    """Patch the assembled d2_res to add 1 mod p at (row, column) = position(p)."""

    def entry(m, field, *out):
        row, column = position(field.p)
        m[row, column] = (m[row, column] + 1) % field.p
        return m

    corrupt_kernel(monkeypatch, restricted.delta2_res_matrix, entry)


def corrupted_d2_entry_in_block(monkeypatch):
    # The first triple of grade 0 and the pair (-1, 1), where the grade-0 kernel vectors of d2 are nonzero: the
    # block kills a smaller kernel.  Every vector it kills is still killed by the term table (no unit vector of a
    # block's rows lies in its image, at p = 7 and 13), so the certificates hold and the dimensions fail.
    assembled_d2_res_with(
        monkeypatch, lambda p: (oracles.graded_triple_positions(p, 0)[0], oracles.pair_position(p)[(-1, 1)])
    )


def planted_beta_entry(monkeypatch):
    # The beta row (-1, -1), of grade -1, in the column of the first pair of grade -1: inside its grade.
    assembled_d2_res_with(
        monkeypatch, lambda p: (len(oracles.wedge_triples(p)), oracles.graded_pair_positions(p, -1)[0])
    )


def planted_omega_column_entry(monkeypatch):
    # The first triple of grade 0, in the column of omega_0, of grade 0: d2 never reads omega.
    assembled_d2_res_with(
        monkeypatch, lambda p: (oracles.graded_triple_positions(p, 0)[0], len(ordinary.wedge_pairs(p)) + 1)
    )


def planted_grading_leak(monkeypatch):
    # The first triple of grade 0, in the column of the first pair of grade -1: the complex builds on d2's blocks,
    # which miss the entry, and the completeness count names it.  The grading check reads the term tables, which
    # the patch of the assembled matrix leaves whole.
    assembled_d2_res_with(
        monkeypatch, lambda p: (oracles.graded_triple_positions(p, 0)[0], oracles.graded_pair_positions(p, -1)[0])
    )


def zeroed_d1_column(monkeypatch):
    # The column of e^1 in d1_res: d1 is no longer injective, and H^1 and H^2 move.
    def zeroed(m, field):
        m[:, 2] = 0
        return m

    corrupt_kernel(monkeypatch, restricted.delta1_res_matrix, zeroed)


def corrupted_composite_rows(monkeypatch):
    # The restricted cochains and extension elements read off coordinate rows: verify's one-row calls build the
    # cochains they compare from stacked rows.
    from_vector = gfp.CoordinatePair.from_vector.__func__

    def corrupted(cls, field, row):
        return from_vector(cls, field, bumped(row, field.p))

    monkeypatch.setattr(gfp.CoordinatePair, "from_vector", classmethod(corrupted))


# The checks that read W's p-th powers, through the fold or the derivation route.
FOLD = {
    "witt.pth_power_oracle",
    "witt.adjoint_power_on_w",
    "witt.pth_power_homogeneity_gamma",
    "witt.pth_power_fold_order",
    "restricted.star_consistency",
}
# The extension checks that build on a wrong complex.
WRONG_EXTENSIONS = {
    "extensions.splitting_independence",
    "extensions.axioms",
    "extensions.negative_control",
    "extensions.class_independence",
    "extensions.classification_counts",
}


TABLE = [
    (corrupted_block_entry, WRONG_KERNEL),
    (dropped_kernel_vector, WRONG_KERNEL),
    (wrong_inverse, {"ordinary.block_full_agreement"}),
    (rank_d2_off_by_one, {"ordinary.block_full_agreement", "restricted.kernel_structure"}),
    (
        corrupted_restricted_kernel_vector,
        {"ordinary.block_full_agreement", "restricted.omega_fold_invariance", "extensions.roundtrip"},
    ),
    (
        corrupted_lambda_rows,
        FOLD | {"restricted.omega_fold_invariance", "restricted.starstar_enumeration", "extensions.axioms"},
    ),
    (corrupted_fold_power, FOLD),
    (corrupted_fold_steps, FOLD | {"restricted.omega_fold_invariance"}),
    (
        corrupted_correction_weights,
        {"restricted.star_consistency", "restricted.omega_fold_invariance", "restricted.starstar_enumeration"},
    ),
    (
        corrupted_derivation_rows,
        {"witt.pth_power_oracle", "extensions.roundtrip", "extensions.splitting_independence", "extensions.axioms"},
    ),
    (
        corrupted_basis_chains,
        WRONG_EXTENSIONS
        | {
            "witt.adjoint_power_on_w",
            "ordinary.block_full_agreement",
            "restricted.complex_identity",
            "restricted.beta_block_zero",
            "restricted.kernel_structure",
            "restricted.h2_dimension",
            "report.dims_closed_forms",
        },
    ),
    (
        corrupted_basis_powers,
        WRONG_EXTENSIONS
        | {
            "extensions.roundtrip",
            "witt.pth_power_oracle",
            "witt.adjoint_power_on_w",
            "witt.pth_power_homogeneity_gamma",
            "ordinary.block_full_agreement",
            "restricted.complex_identity",
            "restricted.beta_block_zero",
            "restricted.kernel_structure",
            "restricted.h2_dimension",
            "report.dims_closed_forms",
        },
    ),
    (
        corrupted_basis_brackets,
        WRONG_EXTENSIONS
        | {
            "ordinary.cohomology_dims",
            "ordinary.complex_identity",
            "ordinary.explicit_cocycles",
            "ordinary.graded_kernel_dims",
            "report.dims_closed_forms",
            "restricted.complex_identity",
            "restricted.h2_dimension",
            "restricted.kernel_structure",
            "restricted.star_consistency",
            "witt.adjoint_power_on_w",
            "witt.antisymmetry_jacobi",
        },
    ),
    (
        misoriented_pairs,
        WRONG_EXTENSIONS
        | {
            "ordinary.cohomology_dims",
            "ordinary.complex_identity",
            "ordinary.explicit_cocycles",
            "ordinary.graded_kernel_dims",
            "report.dims_closed_forms",
            "restricted.complex_identity",
            "restricted.h2_dimension",
            "restricted.kernel_structure",
            "restricted.star_consistency",
        },
    ),
    (misoriented_triples, {"restricted.starstar_enumeration"}),
    (corrupted_basis_pair_sums, {"extensions.axioms"}),
    (corrupted_pmap_rows, {"extensions.roundtrip", "extensions.splitting_independence", "extensions.axioms"}),
    (
        corrupted_composite_rows,
        {"restricted.omega_fold_invariance", "extensions.roundtrip", "extensions.splitting_independence"},
    ),
    (corrupted_bracket_rows, {"witt.antisymmetry_jacobi"}),
    (
        corrupted_right_bracket_matrix,
        FOLD
        | {
            "witt.antisymmetry_jacobi",
            "restricted.omega_fold_invariance",
            "restricted.starstar_enumeration",
            "extensions.axioms",
        },
    ),
    (
        corrupted_triple_terms,
        WRONG_EXTENSIONS
        | {
            "ordinary.complex_identity",
            "ordinary.graded_kernel_dims",
            "ordinary.cohomology_dims",
            "ordinary.explicit_cocycles",
            "restricted.complex_identity",
            "restricted.kernel_structure",
            "restricted.h2_dimension",
            "report.dims_closed_forms",
        },
    ),
    (
        corrupted_ind2_terms,
        WRONG_EXTENSIONS
        | {
            "ordinary.block_full_agreement",
            "restricted.complex_identity",
            "restricted.beta_block_zero",
            "restricted.kernel_structure",
            "restricted.h2_dimension",
            "report.dims_closed_forms",
        },
    ),
    (corrupted_d2_entry_in_block, WRONG_KERNEL - {"ordinary.block_full_agreement"}),
    (planted_beta_entry, {"restricted.beta_block_zero"}),
    (planted_omega_column_entry, {"ordinary.block_full_agreement"}),
    (planted_grading_leak, {"ordinary.block_full_agreement"}),
    (
        misgraded_triple_terms,
        WRONG_EXTENSIONS
        | {
            "extensions.roundtrip",
            "ordinary.complex_identity",
            "ordinary.grading_preserved",
            "ordinary.block_full_agreement",
            "ordinary.graded_kernel_dims",
            "ordinary.cohomology_dims",
            "ordinary.explicit_cocycles",
            "restricted.complex_identity",
            "restricted.kernel_structure",
            "restricted.h2_dimension",
            "report.dims_closed_forms",
        },
    ),
    (
        misgraded_ind2_terms,
        WRONG_EXTENSIONS
        | {
            "ordinary.grading_preserved",
            "ordinary.block_full_agreement",
            "restricted.complex_identity",
            "restricted.beta_block_zero",
            "restricted.kernel_structure",
            "restricted.h2_dimension",
            "report.dims_closed_forms",
        },
    ),
    (
        zeroed_d1_column,
        WRONG_EXTENSIONS
        | {
            "ordinary.graded_kernel_dims",
            "ordinary.cohomology_dims",
            "restricted.delta1_injective",
            "restricted.h2_dimension",
            "report.dims_closed_forms",
        },
    ),
]

# The checks no mutation fails, each with the reason none reaches it.
UNREACHED = {
    "ordinary.graded_dims": "counts each grade's pairs and triples against closed forms; it runs no kernel",
    "restricted.dims_closed_form": "compares c2_dim and c3_dim with closed forms; it runs no kernel",
}


@pytest.fixture
def fresh_complex():
    # The complex, the term tables and W's structure tensor are cached from the kernels' outputs, so each row
    # rebuilds them, and a corrupted one does not outlive its row.
    caches = (restricted.cochain_complex, restricted._ind2_terms, ordinary._triple_terms, witt._bracket_tensor)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.mark.parametrize("p", [7, 13])
@pytest.mark.parametrize("mutate,failing", TABLE, ids=lambda x: getattr(x, "__name__", ""))
def test_mutation_fails_its_pinned_checks(monkeypatch, fresh_complex, mutate, failing, p):
    mutate(monkeypatch)
    report = verify.run_prime(p)
    assert {c["name"] for c in report["checks"] if not c["pass"]} == failing
    assert not report["all_pass"]


def test_corrupt_kernel_refuses_a_kernel_no_module_holds(monkeypatch):
    # A kernel found nowhere would patch nothing, and its row would pass or fail for another reason.
    with pytest.raises(LookupError, match="no wittcoh module holds"):
        corrupt_kernel(monkeypatch, lambda *args: None, lambda out, *args: out)


def test_every_check_fails_under_some_mutation(fresh_complex):
    report = verify.run_prime(7)
    assert report["all_pass"]
    names = {c["name"] for c in report["checks"]}
    caught = set().union(*(failing for _, failing in TABLE))
    assert caught | set(UNREACHED) == names and not caught & set(UNREACHED)
