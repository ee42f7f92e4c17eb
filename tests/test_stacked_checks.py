"""verify's stacked checks against their loops in tests/oracles.py.

Each test breaks the library at one sample with a monkeypatch that goes by
content (a bracketed pair, a cocycle, a difference of two cocycles, a folded
element), so the stacked check and its loop oracle meet the same defect at
the same sample.
The check must report what the loop reports, a raised error included, and
leave the generator where the loop leaves it: a check that does not wind
its generator back after a failure draws more than the loop.
"""

import itertools
import random

import numpy as np
import pytest

from tests import oracles
from wittcoh import extensions, restricted, verify, witt
from wittcoh.gfp import PrimeField
from wittcoh.ordinary import Cochain1
from wittcoh.restricted import CochainComplex, cochain_complex, restricted_h2
from wittcoh.witt import random_element, random_rows

F5, F7 = PrimeField(5), PrimeField(7)
SEED = 1


def run_check(monkeypatch, checks, field, name):
    """verify's check `name` among checks(field, rng): the generator state before it, its result, the state after."""
    rng = random.Random(SEED)
    original = verify._check
    seen = {}

    def recorded(check_name, fn):
        before = rng.getstate()
        result = original(check_name, fn)
        seen[check_name] = (before, result, rng.getstate())
        return result

    with monkeypatch.context() as m:
        m.setattr(verify, "_check", recorded)
        checks(field, rng)
    return seen[name]


def assert_fails_like_loop(monkeypatch, checks, field, name, loop):
    """The check fails, with the loop's detail, and leaves the generator in the loop's state."""
    before, result, after = run_check(monkeypatch, checks, field, name)
    reference = random.Random()
    reference.setstate(before)
    expected = verify._check(name, lambda: loop(reference))
    assert not expected.passed
    assert (result.passed, result.detail) == (expected.passed, expected.detail)
    assert after == reference.getstate()


def frozen_representatives(monkeypatch, field):
    """restricted_h2 as computed before any corruption, so only the check under test meets the defect."""
    h2 = restricted_h2(field)
    monkeypatch.setattr(restricted, "restricted_h2", lambda f: h2)
    return h2.representatives


def corrupt_extension(monkeypatch, target, kind):
    """build_extension of the cocycle with coordinates target gains c ("central") or e_{-1} ("bracket") in [e_{-1}, e_0]."""
    original = extensions.build_extension

    def build(c, check=True):
        e = original(c, check)
        if not (c.to_vector() == target).all():
            return e
        table = e.bracket_table.copy()
        table[0, 1, -1 if kind == "central" else 0] += 1
        return extensions.CentralExtension(e.source, table, e.pmap_basis)

    monkeypatch.setattr(extensions, "build_extension", build)


def corrupt_split(monkeypatch, target, rest):
    """split_coboundary gives the rest `rest` (a constant) on every row equal to target mod p."""
    original = CochainComplex.split_coboundary

    def split(self, v, restricted=True):
        psi, r = original(self, v, restricted)
        if np.shape(v)[-1] != len(target):
            return psi, r
        hit = (np.asarray(v) % self.field.p == target).all(axis=-1)
        return psi, np.where(np.expand_dims(hit, -1), rest, r)

    monkeypatch.setattr(CochainComplex, "split_coboundary", split)


def corrupt_cocycle_test(monkeypatch, phi):
    """The term tables of d2 are nonzero on the 2-form phi (a cochain): the cocycle test refuses every cochain with
    that phi."""
    original = restricted._terms_nonzero
    target = phi.to_vector()

    def nonzero(tables, phis, p):
        return original(tables, phis, p) | (phis == target).all(axis=-1)

    monkeypatch.setattr(restricted, "_terms_nonzero", nonzero)


def corrupt_bracket(monkeypatch, x, y, name="bracket_rows"):
    """witt's bracket_rows (or the one-row bracket) gives [x, y] + e_{-1} for the rows x, y, wherever they meet."""
    original = getattr(witt, name)

    def rows(xs, ys, p):
        hit = (np.mod(xs, p) == x).all(axis=-1) & (np.mod(ys, p) == y).all(axis=-1)
        return (original(xs, ys, p) + np.expand_dims(hit, -1) * np.eye(p, dtype=np.int64)[0]) % p

    def one(a, b):
        hit = (a.coeffs, b.coeffs) == (tuple(x), tuple(y))
        return original(a, b) + witt.basis_element(a.field, -1) if hit else original(a, b)

    monkeypatch.setattr(witt, name, rows if name == "bracket_rows" else one)


def witt_checks(field, rng):
    return verify._witt_checks(field, rng, 5)


@pytest.mark.parametrize("where, j", [("basis", 0), ("basis", 24), ("basis", 48),
                                      ("random", 0), ("random", 3), ("random", 99)])
def test_antisymmetry_jacobi_fails_like_its_loop(monkeypatch, where, j):
    # The bracket of basis pair j (row-major) or of random triple j's (x, y) is off by e_{-1}.
    field, name = F7, "witt.antisymmetry_jacobi"
    if where == "basis":
        x, y = np.eye(7, dtype=np.int64)[list(divmod(j, 7))]
    else:
        x, y, _ = random_rows(random.Random(SEED), 7, 300).reshape(100, 3, 7)[j]
    corrupt_bracket(monkeypatch, x, y)
    assert_fails_like_loop(monkeypatch, witt_checks, field, name,
                           lambda rng: oracles.antisymmetry_jacobi_by_loop(field, rng))
    _, result, _ = run_check(monkeypatch, witt_checks, field, name)
    assert result.detail == "bracket disagrees with the table on {!r}, {!r}".format(*witt.elements(field, [x, y]))


def test_antisymmetry_jacobi_keeps_one_one_row_bracket(monkeypatch):
    # The one-row witt.bracket is called on the first basis pair, (e_{-1}, e_{-1}), alone.
    field = F7
    e = np.eye(7, dtype=np.int64)
    corrupt_bracket(monkeypatch, e[0], e[0], name="bracket")
    assert_fails_like_loop(monkeypatch, witt_checks, field, "witt.antisymmetry_jacobi",
                           lambda rng: oracles.antisymmetry_jacobi_by_loop(field, rng))


def kernel_samples(rng, field, count):
    """The cocycles roundtrip draws, as its loop draws them."""
    ker = cochain_complex(field).ker_d2_res
    return [sum(rng.randrange(field.p) * v for v in ker) % field.p for _ in range(count)]


@pytest.mark.parametrize("kind", ["central", "bracket"])
@pytest.mark.parametrize("j", [0, 3, 9])
def test_roundtrip_fails_like_its_loop(monkeypatch, kind, j):
    # "central" breaks the inversion (an assertion), "bracket" makes the
    # extraction raise NotASplittingError: the loop stops at sample j either way.
    field, name = F5, "extensions.roundtrip"
    before, result, _ = run_check(monkeypatch, verify._extension_checks, field, name)
    assert result.passed
    replay = random.Random()
    replay.setstate(before)
    corrupt_extension(monkeypatch, kernel_samples(replay, field, j + 1)[j], kind)
    ker = cochain_complex(field).ker_d2_res
    assert_fails_like_loop(monkeypatch, verify._extension_checks, field, name,
                           lambda rng: oracles.roundtrip_by_loop(field, rng, ker))


@pytest.mark.parametrize("kind, j", [(kind, j) for kind in ("central", "bracket", "cohomologous") for j in (0, 3)]
                         + [("cocycle", 0)])
def test_splitting_shift_fails_like_its_loop(monkeypatch, kind, j):
    # Representative j breaks in its extension, in the cohomology test of
    # its shifted cocycle, or as a cocycle (then the loop stops before it
    # draws its psi; only the Virasoro representative 0 has its own phi).
    field, name = F5, "extensions.splitting_independence"
    reps = frozen_representatives(monkeypatch, field)
    before, result, _ = run_check(monkeypatch, verify._extension_checks, field, name)
    assert result.passed
    if kind == "cohomologous":
        replay = random.Random()
        replay.setstate(before)
        p = field.p
        psi = [Cochain1(field, tuple(replay.randrange(p) for _ in range(p))) for _ in range(j + 1)][j]
        corrupt_split(monkeypatch, -restricted.delta1_res(psi).to_vector() % p, 1)
    elif kind == "cocycle":
        corrupt_cocycle_test(monkeypatch, reps[j].phi)
    else:
        corrupt_extension(monkeypatch, reps[j].to_vector(), kind)
    assert_fails_like_loop(monkeypatch, verify._extension_checks, field, name,
                           lambda rng: oracles.splitting_shift_by_loop(field, rng, reps))


@pytest.mark.parametrize("field, j", [(F7, 0), (F7, 3), (F7, 27), (PrimeField(11), 5)])
def test_class_independence_fails_like_its_loop(monkeypatch, field, j):
    # Up to p = 7 pair j is made cohomologous; above, representative j's
    # class is made a coboundary, which drops the rank.
    name = "extensions.class_independence"
    reps = frozen_representatives(monkeypatch, field)
    vectors = [c.to_vector() for c in reps]
    if field.p <= 7:
        a, b = list(itertools.combinations(range(len(reps)), 2))[j]
        corrupt_split(monkeypatch, (vectors[a] - vectors[b]) % field.p, 0)
    else:
        corrupt_split(monkeypatch, vectors[j], 0)
    assert_fails_like_loop(monkeypatch, verify._extension_checks, field, name,
                           lambda rng: oracles.class_independence_by_loop(field, reps))


def test_class_independence_refuses_a_non_cocycle_like_its_loop(monkeypatch):
    reps = frozen_representatives(monkeypatch, F7)
    corrupt_cocycle_test(monkeypatch, reps[0].phi)
    assert_fails_like_loop(monkeypatch, verify._extension_checks, F7, "extensions.class_independence",
                           lambda rng: oracles.class_independence_by_loop(F7, reps))


@pytest.mark.parametrize("kind, j", [("split", 0), ("split", 3), ("split", 7), ("levi", 0), ("cocycle", 0)])
def test_classification_fails_like_its_loop(monkeypatch, kind, j):
    # Representative j is made split, its phi an ordinary coboundary, or a non-cocycle.
    field, name = F7, "extensions.classification_counts"
    reps = frozen_representatives(monkeypatch, field)
    if kind == "split":
        corrupt_split(monkeypatch, reps[j].to_vector(), 0)
    elif kind == "levi":
        corrupt_split(monkeypatch, reps[j].phi.to_vector(), 0)
    else:
        corrupt_cocycle_test(monkeypatch, reps[j].phi)
    assert_fails_like_loop(monkeypatch, verify._extension_checks, field, name,
                           lambda rng: oracles.classification_counts_by_loop(field, reps))


@pytest.mark.parametrize("kind, j", [(None, 0), ("cocycle", 0), ("split", 0), ("split", 3), ("split", 7)])
def test_restricted_h2_matches_its_loop(monkeypatch, kind, j):
    # Representative j is made a non-cocycle or a coboundary; restricted_h2
    # then raises what the loop raises, and otherwise returns what it returns.
    field = F7
    reps = restricted_h2(field).representatives
    if kind == "cocycle":
        corrupt_cocycle_test(monkeypatch, reps[j].phi)
    elif kind == "split":
        corrupt_split(monkeypatch, reps[j].to_vector(), 0)
    stacked = verify._check("", lambda: restricted_h2(field))
    loop = verify._check("", lambda: oracles.restricted_h2_by_loop(field))
    assert stacked == loop and stacked.passed == (kind is None)  # a passing detail is the RestrictedH2 itself


def fold_samples(rng, field, ker, count):
    """The (cocycle, element) pairs omega_fold_invariance draws, as its loop draws them."""
    pairs = []
    for _ in range(count):
        c = sum(rng.randrange(field.p) * v for v in ker) % field.p
        g = random_element(field, rng, True)
        for _ in range(5):
            rng.shuffle(g.support())
        pairs.append((c, g))
    return pairs


@pytest.mark.parametrize("j", [0, 3, 9])
def test_omega_fold_fails_like_its_loop(monkeypatch, j):
    # Pair j's folds that start with another term than its lowest are off by
    # one in a coordinate its cocycle reads; the ascending reference is not.
    field, seed = F7, 4
    ker = cochain_complex(field).ker_d2_res
    c, g = fold_samples(random.Random(seed), field, ker, j + 1)[j]
    coordinate = np.flatnonzero(c)[0]
    original = restricted.omega_functional_rows

    def functionals(gs, p, orders=None):
        out = original(gs, p, orders)
        rows = out.reshape(-1, out.shape[-1])
        for k, row in enumerate(np.reshape(gs, (-1, p)) % p):
            if orders is not None and (row == g.coeffs).all() and orders[k][0] != g.support()[0]:
                rows[k, coordinate] = (rows[k, coordinate] + 1) % p
        return out

    monkeypatch.setattr(restricted, "omega_functional_rows", functionals)
    rng, reference = random.Random(seed), random.Random(seed)
    result = verify._check("", lambda: verify._omega_fold_invariance(field, rng, ker))
    expected = verify._check("", lambda: oracles.omega_fold_invariance_by_loop(field, reference, ker))
    assert not expected.passed
    assert result == expected
    assert rng.getstate() == reference.getstate()
