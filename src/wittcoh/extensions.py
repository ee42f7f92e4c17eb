"""One-dimensional restricted central extensions E = W + K*c of the Witt algebra.

A restricted 2-cocycle (phi, omega) twists the bracket and the p-th power:

    [g + a*c, h + b*c] = [g, h] + phi(g, h) c
    (g + a*c)^{[p]}    = g^{[p]} + omega(g) c

with c central and c^{[p]} = 0.  Conversely a splitting sigma: W -> E
recovers a cocycle through the defect

    phi(g, h) = [sigma(g), sigma(h)] - sigma([g, h])
    omega(g)  = sigma(g)^{[p]} - sigma(g^{[p]})

and changing the splitting shifts the cocycle by a coboundary, so only the
cohomology class matters.

The extension stores explicit structure-constant and p-map tables over the
basis e_{-1}, ..., e_{p-2}, c.  The bracket table is W's structure tensor
(witt._bracket_tensor) with one central column, phi's dense matrix
(phi.to_matrix()); the p-map table holds e_0^{[p]} = e_0 and the
values omega(e_i) in the central column.  All bracket arithmetic inside E
goes through the tables (never back through the source cocycle), so the axiom
verifier genuinely exercises the built object, and a corrupted table is
caught by the Jacobi scan.  The p-th power of a general element g + a*c
needs g^{[p]}, taken by the derivation route, and omega(g) off the basis,
which is the source cocycle's coordinates against restricted.omega_functional;
that the result satisfies the p-th power sum axiom inside E is then a
theorem the verifier confirms rather than an assumption.  The p-map is a
row kernel on stacked coefficient rows (CentralExtension.pth_power_rows,
built on witt's derivation rows and restricted's omega rows), and the
verifier takes all powers of one axiom's random trials in one call;
CentralExtension.pth_power takes one element through the one-row entry
points of the same kernels.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import witt
from .gfp import PrimeField
from .ordinary import Cochain1, Cochain2Ord
from .restricted import (
    Cochain2Res,
    NotACocycleError,
    c2_dim,
    c2_to_vector,
    cochain_complex,
    eval_omega,
    is_cocycle,
    omega_functional_rows,
    project_class_to_ordinary,
    omega_coordinate,
    virasoro_cochain,
)
from .witt import (
    WittElement,
    basis_element,
    first_failure,
    pth_power,  # unused here; perfbench/selftest.py checks that its tracer wraps this imported name
    pth_power_rows,
    pth_power_via_derivation,
    pth_power_via_derivation_rows,
    summands_total,
    zero,
)


class NotASplittingError(ValueError):
    """A claimed splitting map does not project back to the identity on W."""


@dataclass(frozen=True)
class ExtElement:
    """Element g + a*c of the extension."""

    witt: WittElement
    central: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "central", self.central % self.witt.field.p)

    @property
    def field(self) -> PrimeField:
        return self.witt.field

    def is_zero(self) -> bool:
        return self.witt.is_zero() and self.central == 0

    def __add__(self, other: "ExtElement") -> "ExtElement":
        return ExtElement(self.witt + other.witt, self.central + other.central)

    def __sub__(self, other: "ExtElement") -> "ExtElement":
        return ExtElement(self.witt - other.witt, self.central - other.central)

    def __rmul__(self, scalar: int) -> "ExtElement":
        return ExtElement(scalar * self.witt, scalar * self.central)

    def coeffs(self) -> np.ndarray:
        """Coefficient vector over the extension basis (e_{-1}, ..., e_{p-2}, c)."""
        return np.array(list(self.witt.coeffs) + [self.central], dtype=np.int64)

    def __repr__(self) -> str:
        parts = []
        if not self.witt.is_zero():
            parts.append(repr(self.witt))
        if self.central:
            parts.append("c" if self.central == 1 else f"{self.central}*c")
        return " + ".join(parts) if parts else "0"


class CentralExtension:
    """W + K*c with bracket and p-map tables built from a restricted 2-cocycle.

    Basis positions 0..p-1 hold e_{-1}..e_{p-2}, position p holds c.
    bracket_table[u, v, w] is the coefficient of basis w in [b_u, b_v];
    pmap_basis[u] is the coefficient vector of b_u^{[p]}.
    """

    def __init__(self, source: Cochain2Res, bracket_table: np.ndarray, pmap_basis: np.ndarray):
        self.source = source
        self.field = source.field
        n = self.field.p + 1
        if bracket_table.shape != (n, n, n) or pmap_basis.shape != (n, n):
            raise ValueError("table shapes do not match the extension dimension")
        self.bracket_table = bracket_table % self.field.p
        self.pmap_basis = pmap_basis % self.field.p
        self.bracket_table.setflags(write=False)
        self.pmap_basis.setflags(write=False)

    @property
    def p(self) -> int:
        return self.field.p

    def element(self, witt: WittElement, central: int = 0) -> ExtElement:
        return ExtElement(witt, central)

    def from_coeffs(self, vec) -> ExtElement:
        vec = np.asarray(vec, dtype=np.int64) % self.p
        return ExtElement(WittElement(self.field, tuple(int(v) for v in vec[: self.p])), int(vec[self.p]))

    def basis(self, u: int) -> ExtElement:
        """Basis element by table position: 0..p-1 are e_{-1}..e_{p-2}, p is c."""
        vec = np.zeros(self.p + 1, dtype=np.int64)
        vec[u] = 1
        return self.from_coeffs(vec)

    def bracket(self, x: ExtElement, y: ExtElement) -> ExtElement:
        """Table-driven bracket."""
        res = np.einsum("u,v,uvw->w", x.coeffs(), y.coeffs(), self.bracket_table) % self.p
        return self.from_coeffs(res)

    def pth_power(self, x: ExtElement) -> ExtElement:
        """(g + a*c)^{[p]} = g^{[p]} + omega(g) c; the central part of x drops out.

        g^{[p]} takes the O(p^2) derivation route; the fold is its oracle.
        """
        g = x.witt
        return ExtElement(pth_power_via_derivation(g), eval_omega(self.source, g))

    def pth_power_rows(self, xs: np.ndarray) -> np.ndarray:
        """p-th powers of stacked coefficient rows (..., p + 1) of E, as rows (see pth_power)."""
        p = self.p
        ws = xs[..., :p]
        central = omega_functional_rows(ws, p) @ c2_to_vector(self.source) % p
        return np.concatenate([pth_power_via_derivation_rows(ws, p), central[..., None]], axis=-1)

    def with_bracket_entry_zeroed(self, i: int, j: int) -> "CentralExtension":
        """Copy with [e_i, e_j] (and its antisymmetric mirror) forced to zero.

        Negative control for the axiom verifier; the result is not a Lie
        algebra whenever the original entry was nonzero.
        """
        table = self.bracket_table.copy()
        table[i + 1, j + 1, :] = 0
        table[j + 1, i + 1, :] = 0
        return CentralExtension(self.source, table, self.pmap_basis.copy())


def build_extension(c: Cochain2Res, check: bool = True) -> CentralExtension:
    """Populate the bracket and p-map tables of W + K*c from the cocycle c."""
    if check and not is_cocycle(c):
        raise NotACocycleError("extension construction requires a restricted 2-cocycle")
    p = c.field.p
    n = p + 1
    table = np.zeros((n, n, n), dtype=np.int64)
    table[:p, :p, :p] = witt._bracket_tensor(p)  # W's structure constants
    table[:p, :p, p] = c.phi.to_matrix()  # the central column phi(e_i, e_j)
    pmap = np.zeros((n, n), dtype=np.int64)
    pmap[1, 1] = 1  # e_0^{[p]} = e_0
    pmap[:p, p] = c.omega_basis
    return CentralExtension(c, table, pmap)


def canonical_splitting(ext: CentralExtension) -> list[ExtElement]:
    """sigma(e_i) = e_i with no central component."""
    return [ext.element(basis_element(ext.field, i)) for i in range(-1, ext.p - 1)]


def extract_cocycle(ext: CentralExtension, sigma: list[ExtElement]) -> Cochain2Res:
    """Cocycle of the extension under the splitting sigma (given on the basis).

    sigma must be a linear section of the projection, i.e. the W part of
    sigma(e_i) must be e_i; with the canonical splitting this inverts
    build_extension coordinatewise.
    """
    field = ext.field
    p = ext.p
    if len(sigma) != p:
        raise NotASplittingError(f"need {p} basis images, got {len(sigma)}")
    for i, s in enumerate(sigma):
        if s.witt != basis_element(field, i - 1):
            raise NotASplittingError(f"sigma does not project to the identity at e_{i - 1}")

    # Every bracket defect [sigma(e_i), sigma(e_j)] - (j - i) sigma(e_{i+j}) at once,
    # by table positions u = i + 1 < v = j + 1 (the order of wedge_pairs).
    images = np.array([s.coeffs() for s in sigma])
    left = np.tensordot(images, ext.bracket_table, axes=1)  # left[u, v] = [sigma(e_{u-1}), b_v]
    brackets = np.einsum("vx,uxw->uvw", images, left) % p
    u, v = np.triu_indices(p, 1)
    defects = (brackets[u, v] - (v - u)[:, None] * images[(u + v - 1) % p]) % p
    if defects[:, :p].any():
        raise NotASplittingError("bracket defect left W, the table is not an extension of W")
    phi_vals = defects[:, p].tolist()
    omega_vals = []
    for i in range(-1, p - 1):
        power = ext.pth_power(sigma[i + 1])
        target = sigma[1] if i == 0 else ExtElement(zero(field), 0)  # sigma(e_i^{[p]})
        diff = power - target
        if not diff.witt.is_zero():
            raise NotASplittingError("p-map defect left W")
        omega_vals.append(diff.central)
    return Cochain2Res(Cochain2Ord(field, tuple(phi_vals)), tuple(omega_vals))


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]


def _jacobi_scan(ext: CentralExtension) -> str:
    """Empty string when every basis triple satisfies Jacobi, else the first witness."""
    bad = witt.jacobi_scan(ext.bracket_table, ext.p)
    return "" if bad is None else "Jacobi fails on basis triple positions ({}, {}, {})".format(*bad)


@lru_cache(maxsize=1)
def _basis_sum_powers(field: PrimeField) -> tuple[np.ndarray, np.ndarray]:
    """W-level p-th powers and omega functionals of every basis sum b_u + b_v of E.

    Indexed [u, v] by table position (position p, the central c, adds
    nothing to the W part).  They depend on W alone, so the p + 1
    extensions of a prime share them; only the latest prime is kept.
    The sums of the pairs u <= v are stacked into one fold call and one
    omega functional call, then mirrored; the powers take the fold, the
    oracle of the derivation route that CentralExtension.pth_power uses.
    """
    p = field.p
    n = p + 1
    u, v = np.triu_indices(n)
    eye = np.eye(n, dtype=np.int64)
    sums = (eye[u] + eye[v])[:, :p]
    powers = np.zeros((n, n, p), dtype=np.int64)
    functionals = np.zeros((n, n, c2_dim(p)), dtype=np.int64)
    powers[u, v] = powers[v, u] = pth_power_rows(sums, p)
    functionals[u, v] = functionals[v, u] = omega_functional_rows(sums, p)
    powers.setflags(write=False)
    functionals.setflags(write=False)
    return powers, functionals


def verify_restricted_axioms(ext: CentralExtension, trials: int = 10, seed: int = 0) -> AxiomReport:
    """Check antisymmetry, Jacobi, centrality of c and the three p-map axioms.

    Antisymmetry, Jacobi, centrality and the adjoint axiom run exhaustively
    over the table basis, the adjoint axiom also on `trials` seeded random
    pairs; the scalar axiom runs on `trials` random elements and the sum
    axiom on every basis pair plus `trials` random pairs.

    The sum axiom sweeps all (p+1)^2 basis pairs at once: the summands come
    from this extension's own table in one stacked call, the basis powers
    from its p-map rows, and the left side from a per-prime sweep shared by
    every extension, the fold p-th power and omega functional of each basis
    sum b_u + b_v, paired with this extension's source cocycle.  The first
    failing pair is reported in row-major order.

    The random trials of each axiom take all their p-th powers in one
    pth_power_rows call and are tested together.  The draws are the same
    as those of a loop testing each trial as it is drawn, and so is the
    reported failure, the first failing trial: after a failure the
    generator is wound back to where such a loop stops drawing, so later
    axioms draw the same elements too (witt.first_failure).
    """
    p = ext.p
    rng = random.Random(seed)
    checks: list[AxiomCheck] = []
    table = ext.bracket_table

    # Entries are reduced and p is odd, so 2 [b_u, b_u] = 0 forces [b_u, b_u] = 0.
    anti = ((table + table.transpose(1, 0, 2)) % p).any()
    checks.append(AxiomCheck("antisymmetry", not anti))

    witness = _jacobi_scan(ext)
    checks.append(AxiomCheck("jacobi", witness == "", witness))

    central_ok = not table[:, p, :].any() and not table[p, :, :].any() and not ext.pmap_basis[p].any()
    checks.append(AxiomCheck("central_element", central_ok))

    def random_ext(nonzero: bool = False) -> ExtElement:
        while True:
            x = ext.from_coeffs([rng.randrange(p) for _ in range(p + 1)])
            if not nonzero or not x.is_zero():
                return x

    def stacked(elements) -> np.ndarray:
        return np.array([x.coeffs() for x in elements])

    # Scalar axiom: (l*x)^{[p]} = l^p x^{[p]}.
    def scalar_failing(samples):
        lams = np.array([lam for lam, _ in samples])
        lam_p = np.array([pow(lam, p, p) for lam, _ in samples])
        xs = stacked(x for _, x in samples)
        scaled, powers = ext.pth_power_rows(np.stack([lams[:, None] * xs, xs]))
        return ((scaled - lam_p[:, None] * powers) % p).any(axis=1)

    samples, k = first_failure(rng, lambda: (rng.randrange(p), random_ext()), trials, scalar_failing)
    detail = "" if k is None else "fails for lambda={}, x={!r}".format(*samples[k])
    checks.append(AxiomCheck("scalar_power", k is None, detail))

    # Right-bracket matrices: (v @ right_of(x)) is [v, x] on coefficient vectors; x may be stacked.
    def right_of(xv: np.ndarray) -> np.ndarray:
        return np.einsum("svm,...v->...sm", table, xv) % p

    right = table.transpose(1, 0, 2)  # right[u] = right_of(b_u)

    # Adjoint axiom: [y, x^{[p]}] = [y, x, ..., x] with p factors of x.
    # For basis x = b_u the chain over every y at once is the p-th power of
    # the right-bracket matrix, so the exhaustive scan raises all of them to
    # the p-th power in one stacked product per factor; the random pairs run
    # stacked too.  The first mismatch is taken row-major in (u, v).
    chains = right
    for _ in range(p - 1):
        chains = chains @ right % p
    bad = np.argwhere((chains != right_of(ext.pmap_basis)).any(axis=-1))
    ok = not bad.size
    detail = "" if ok else "fails on basis positions ({1}, {0})".format(*bad[0])
    if ok:

        def adjoint_failing(pairs):
            xs, ys = stacked(x for x, _ in pairs), stacked(y for _, y in pairs)
            bx = right_of(xs)
            chain = ys[:, None]
            for _ in range(p):
                chain = (chain @ bx) % p
            direct = ys[:, None] @ right_of(ext.pth_power_rows(xs)) % p
            return (chain != direct)[:, 0].any(axis=1)

        pairs, k = first_failure(rng, lambda: (random_ext(True), random_ext(True)), trials, adjoint_failing)
        if k is not None:
            ok, detail = False, "fails for x={!r}, y={!r}".format(*pairs[k])
    checks.append(AxiomCheck("adjoint_power", ok, detail))

    # Sum axiom: (x+y)^{[p]} = x^{[p]} + y^{[p]} + sum_i s_i(x, y), the s_i
    # extracted from the lambda-expansion of the iterated bracket inside E.
    # The basis pairs (u, v) are stacked in blocks of u, one block unless
    # p is large, to bound the memory of the lambda rows.
    n = p + 1
    randoms = [(random_ext(True), random_ext(True)) for _ in range(trials)]
    block = max(1, witt._SWEEP_BYTES // (8 * n * n * p))
    summands = np.concatenate([
        summands_total(np.eye(n, dtype=np.int64)[lo : lo + block, None], right[lo : lo + block, None], right, p)
        for lo in range(0, n, block)
    ])
    powers, functionals = _basis_sum_powers(ext.field)
    lhs = np.concatenate([powers, (functionals @ c2_to_vector(ext.source))[..., None]], axis=-1)
    rhs = ext.pmap_basis[:, None] + ext.pmap_basis[None] + summands
    bad = np.argwhere(((lhs - rhs) % p).any(axis=-1))  # row-major
    ok, detail = not bad.size, ""
    if not ok:
        x, y = (ext.basis(int(w)) for w in bad[0])
        detail = f"fails for x={x!r}, y={y!r}"
    elif randoms:
        xs, ys = stacked(x for x, _ in randoms), stacked(y for _, y in randoms)
        x_pow, y_pow, sum_pow = ext.pth_power_rows(np.stack([xs, ys, xs + ys]))
        rhs = x_pow + y_pow + summands_total(xs, right_of(xs), right_of(ys), p)
        bad = np.flatnonzero(((sum_pow - rhs) % p).any(axis=1))
        if bad.size:
            ok, detail = False, "fails for x={!r}, y={!r}".format(*randoms[bad[0]])
    checks.append(AxiomCheck("sum_expansion", ok, detail))

    return AxiomReport(tuple(checks))


def cohomologous(a: Cochain2Res, b: Cochain2Res) -> tuple[bool, Cochain1 | None]:
    """Whether a - b is a restricted coboundary; the witness psi has d1(psi) = a - b."""
    if not is_cocycle(a) or not is_cocycle(b):
        raise NotACocycleError("cohomology comparison is defined on cocycles only")
    field = a.field
    psi, rest = cochain_complex(field).split_coboundary(c2_to_vector(a) - c2_to_vector(b))
    if rest.any():
        return False, None
    return True, Cochain1(field, tuple(int(x) for x in psi))


class Classification(enum.Enum):
    SPLIT = "split"
    ORDINARY_LEVI_ONLY = "ordinary-levi-only"
    NON_LEVI = "non-levi"


def classify_extension(c: Cochain2Res) -> Classification:
    """Split if the class vanishes; otherwise sorted by whether the phi part is
    an ordinary coboundary (then the extension splits as an ordinary Lie
    algebra but not as a restricted one) or not (no Levi complement either way)."""
    if not is_cocycle(c):
        raise NotACocycleError("classification is defined on cocycles only")
    if not cochain_complex(c.field).split_coboundary(c2_to_vector(c))[1].any():
        return Classification.SPLIT
    if project_class_to_ordinary(c).is_zero:
        return Classification.ORDINARY_LEVI_ONLY
    return Classification.NON_LEVI


def omega_extension(field: PrimeField, i: int) -> CentralExtension:
    """The extension of the coordinate cocycle (0, omega_i)."""
    return build_extension(omega_coordinate(field, i))


def virasoro_extension(field: PrimeField) -> CentralExtension:
    """The modular Virasoro algebra: the extension of the cubic-coefficient cocycle."""
    return build_extension(virasoro_cochain(field))
