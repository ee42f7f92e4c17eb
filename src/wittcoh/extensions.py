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

An element g + a*c (ExtElement) is a gfp.CoordinatePair, its coordinate
row g's p coefficients, then a.  The extension stores explicit
structure-constant and p-map tables over the basis e_{-1}, ..., e_{p-2},
c.  The bracket table is W's structure tensor
(witt._bracket_tensor) with one central column, phi's dense matrix
(phi.to_matrix()); the p-map table holds W's basis powers
(witt.basis_powers) and the values omega(e_i) in the central column.
All bracket arithmetic inside E goes through the tables (never back
through the source cocycle), so the axiom verifier genuinely exercises
the built object, and a corrupted table is caught by the Jacobi scan.
The p-th power of a general element g + a*c
needs g^{[p]}, taken by the derivation route, and omega(g) off the basis,
which is the source cocycle's coordinates against g's omega functional;
that the result satisfies the p-th power sum axiom inside E is then a
theorem the verifier confirms rather than an assumption.  E's one p-map
is pmap_rows, a row kernel on stacked coefficient rows built on witt's
derivation rows and restricted's omega rows: it pairs each row with its
own source cocycle, so rows of many extensions share one call, and it
folds omega's phi part only for rows whose cocycle has phi != 0.
CentralExtension.pth_power_rows is its call for one extension, and
CentralExtension.pth_power its call for one element.  The verifier
checks the extensions of a prime together: the work that needs only a
bracket table runs once per distinct table and draws nothing (its one
lambda recurrence over the basis pairs gives both the sum axiom's
summands and the adjoint chain powers), each extension's random
trials of one axiom are one bulk draw (witt.random_rows or
witt.random_records), the powers of one axiom's random trials of every
extension take one call, and so do the powers of the basis sums its sum
sweep compares, so the sweep tests the p-map the extension uses.

The per-cocycle operations are row kernels too, each with its one-object
call: extract_cocycles takes the bracket defects of many extensions in one
contraction and their p-map defects in one pmap_rows call
(extract_cocycle is one extension), cohomologous_rows tests many pairs
with one coboundary split (cohomologous is one pair), and classify_rows
classifies many cocycle rows with one split and one projection to
ordinary H^2 (classify_extension is one row).  Each refuses what a loop
over its rows would refuse first, with that loop's message; the error's
index (witt.RowError) names the row, so a caller testing samples in bulk
knows where the loop would have stopped.

CheckResult is the package's one verdict of a named check: the axiom
reports hold one per axiom, and verify's reports one per check.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

import numpy as np

from . import witt
from .gfp import CoordinatePair, PrimeField, as_int_array, check_same_field
from .ordinary import Cochain1, upper_triangle
from .restricted import (
    Cochain2Res,
    NotACocycleError,
    c2_dim,
    cochain_complex,
    is_cocycle,
    is_cocycle_rows,
    omega_functional_rows,
    ordinary_classes,
    omega_coordinate,
    virasoro_cochain,
)
from .witt import (
    RowError,
    WittElement,
    basis_element,
    first_failures,
    pth_power,  # unused here; perfbench/selftest.py checks that its tracer wraps this imported name
    pth_power_via_derivation_rows,
    random_records,
    random_rows,
    summands_total,
)


class NotASplittingError(RowError):
    """A claimed splitting map does not project back to the identity on W; index names the extension of a stacked call."""


@dataclass(frozen=True)
class ExtElement(CoordinatePair):
    """Element g + a*c of the extension; its coordinate row is g's p coefficients, then a."""

    witt: WittElement
    central: int
    head_type = WittElement
    tail_axes = 0
    wrong_shape = not_integer = "the central coefficient must be an integer, got {tail!r}"

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
    pmap_basis[u] is the coefficient vector of b_u^{[p]}.  Both tables are
    read through gfp.as_int_array, rows of width p + 1, and reduced mod p.
    """

    def __init__(self, source: Cochain2Res, bracket_table, pmap_basis):
        self.source = source
        self.field = source.field
        n = self.field.p + 1
        bracket_table, pmap_basis = as_int_array(bracket_table, n), as_int_array(pmap_basis, n)
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
        return ExtElement.from_vector(self.field, vec)

    def basis(self, u: int) -> ExtElement:
        """Basis element by table position: 0..p-1 are e_{-1}..e_{p-2}, p is c; any other position raises ValueError."""
        if not 0 <= u <= self.p:
            raise ValueError(f"basis position {u} out of range for p={self.p}")
        return self.from_coeffs(np.eye(self.p + 1, dtype=np.int64)[u])

    def bracket(self, x: ExtElement, y: ExtElement) -> ExtElement:
        """Table-driven bracket."""
        check_same_field(self, x)
        check_same_field(self, y)
        res = np.einsum("u,v,uvw->w", x.to_vector(), y.to_vector(), self.bracket_table) % self.p
        return self.from_coeffs(res)

    def pth_power(self, x: ExtElement) -> ExtElement:
        """(g + a*c)^{[p]} = g^{[p]} + omega(g) c, the central part of x dropping out: the one-row call of pth_power_rows."""
        check_same_field(self, x)
        return self.from_coeffs(self.pth_power_rows(x.to_vector()))

    def pth_power_rows(self, xs: np.ndarray) -> np.ndarray:
        """p-th powers of stacked coefficient rows (..., p + 1) of E, as rows: pmap_rows against this source cocycle."""
        return pmap_rows(xs, self.source.to_vector(), self.p)

    def with_bracket_entry_zeroed(self, i: int, j: int) -> "CentralExtension":
        """Copy with [e_i, e_j] (and its antisymmetric mirror) forced to zero.

        Negative control for the axiom verifier; the result is not a Lie
        algebra whenever the original entry was nonzero.
        """
        witt._check_index(i, self.p)
        witt._check_index(j, self.p)
        table = self.bracket_table.copy()
        table[i + 1, j + 1, :] = 0
        table[j + 1, i + 1, :] = 0
        return CentralExtension(self.source, table, self.pmap_basis.copy())


def pmap_rows(xs: np.ndarray, cocycles: np.ndarray, p: int) -> np.ndarray:
    """p-th powers of stacked coefficient rows (..., p + 1) of extensions, as rows; E's one p-map.

    Row g + a*c goes to g^{[p]} + omega(g) c: the W parts take the
    derivation route in one call, and omega(g) is the row's own source
    cocycle, cocycles (..., c2_dim(p)) broadcast against the rows' leading
    axes, against g's omega functional.  The omega coordinates of that
    functional are g itself (a^p = a in GF(p)), so only its phi part needs
    the fold: the cocycles' phi != 0 mask is broadcast to the rows' shape,
    and the rows it marks are folded in one omega_functional_rows call.
    The coordinate cocycles (0, omega_i) fold nothing, so rows shared by
    every extension of a prime fold once, for its one cocycle with
    phi != 0.  Rows of many extensions thus share one call: the W parts
    are broadcast, and the contraction builds no (..., c2_dim(p)) product.
    """
    xs, cocycles = as_int_array(xs, p + 1), as_int_array(cocycles, c2_dim(p))
    ws = xs[..., :p]
    phis, omegas = cocycles[..., :-p], cocycles[..., -p:]
    central = np.array(np.einsum("...c,...c->...", ws, omegas))  # an array also for one row
    folded = np.broadcast_to(phis.any(axis=-1), central.shape)
    if folded.any():
        rows = np.broadcast_to(ws, folded.shape + (p,))[folded]
        phi_rows = np.broadcast_to(phis, folded.shape + phis.shape[-1:])[folded]
        central[folded] += np.einsum("mc,mc->m", omega_functional_rows(rows, p)[:, :-p], phi_rows)
    central %= p
    powers = np.broadcast_to(pth_power_via_derivation_rows(ws, p), central.shape + (p,))
    return np.concatenate([powers, central[..., None]], axis=-1)


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
    pmap[:p, :p] = witt.basis_powers(p)
    pmap[:p, p] = c.omega_basis
    return CentralExtension(c, table, pmap)


def canonical_splitting(ext: CentralExtension) -> list[ExtElement]:
    """sigma(e_i) = e_i with no central component."""
    return [ext.element(basis_element(ext.field, i)) for i in range(-1, ext.p - 1)]


def extract_cocycle(ext: CentralExtension, sigma: list[ExtElement]) -> Cochain2Res:
    """Cocycle of the extension under the splitting sigma (given on the basis): the one-row call of extract_cocycles."""
    return Cochain2Res.from_vector(ext.field, extract_cocycles([ext], [sigma])[0])


def extract_cocycles(exts: list[CentralExtension], sigmas: list[list[ExtElement]]) -> np.ndarray:
    """Coordinate rows (len(exts), c2_dim(p)) of each extension's cocycle under its splitting, given on the basis.

    Each sigma must be a linear section of the projection, i.e. the W part
    of sigma(e_i) must be e_i; with the canonical splitting this inverts
    build_extension coordinatewise.  The extensions, all over one prime,
    are taken together: every bracket defect of every extension in one
    contraction, every p-map defect in one pmap_rows call.  The first
    extension a loop over them would refuse is refused with that loop's
    message, and NotASplittingError.index is its position.
    """
    if not exts:
        raise ValueError("need at least one extension")
    p = exts[0].p
    primes = {e.p for e in exts} | {s.field.p for sigma in sigmas for s in sigma}
    if len(sigmas) != len(exts) or primes != {p}:
        raise ValueError("need one splitting per extension, all over the same prime")
    sizes = [len(sigma) for sigma in sigmas]
    short = next((k for k, size in enumerate(sizes) if size != p), len(sigmas))  # a loop stops at the first wrong count
    images = np.array([[s.to_vector() for s in sigma] for sigma in sigmas[:short]], dtype=np.int64)
    images = images.reshape(short, p, p + 1)
    moved = (images[..., :p] != np.eye(p, dtype=np.int64)).any(axis=-1)

    # Every bracket defect [sigma(e_i), sigma(e_j)] - (j - i) sigma(e_{i+j}) at once, by table positions
    # u = i + 1 < v = j + 1 (the order of wedge_pairs), j - i and e_{i+j} read off witt.basis_brackets.  Both
    # products run in float64, which is exact (as in witt.jacobi_scan): every entry stays below n^2 (p - 1)^3 < 2^53.
    tables = np.array([e.bracket_table for e in exts[:short]], dtype=np.float64).reshape(short, p + 1, (p + 1) ** 2)
    left = (images @ tables).reshape(short, p, p + 1, p + 1)  # left[k, u, v] = [sigma(e_{u-1}), b_v]
    brackets = (images[:, None] @ left).astype(np.int64) % p
    u, v = upper_triangle(p)
    coefficient, target = witt.basis_brackets(p)
    defects = (brackets[:, u, v] - coefficient[u, v, None] * images[:, target[u, v]]) % p
    # Every p-map defect sigma(e_i)^{[p]} - sigma(e_i^{[p]}), sigma(e_i^{[p]}) read off witt.basis_powers.  Where the
    # W parts pass, sigma(e_i) = e_i + a_i c, and c drops out of a p-th power: the basis rows' powers serve all.
    targets = witt.basis_powers(p) @ images
    cocycles = np.array([e.source.to_vector() for e in exts[:short]], dtype=np.int64).reshape(short, 1, c2_dim(p))
    powers = (pmap_rows(np.eye(p, p + 1, dtype=np.int64)[None], cocycles, p) - targets) % p
    bad = np.stack([moved.any(axis=-1), defects[..., :p].any(axis=(1, 2)), powers[..., :p].any(axis=(1, 2))], axis=1)
    refused = np.flatnonzero(bad.any(axis=1))
    if refused.size:
        k = int(refused[0])
        reasons = (
            f"sigma does not project to the identity at e_{np.argmax(moved[k]) - 1}",
            "bracket defect left W, the table is not an extension of W",
            "p-map defect left W",
        )
        raise NotASplittingError(reasons[np.argmax(bad[k])], k)
    if short < len(sigmas):
        raise NotASplittingError(f"need {p} basis images, got {sizes[short]}", short)
    return np.concatenate([defects[..., p], powers[..., p]], axis=-1)


@dataclass(frozen=True)
class CheckResult:
    """The verdict of one named check: passed, or skipped with passed True; detail says what was found or why."""

    name: str
    passed: bool
    skipped: bool = False
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "pass": self.passed, "skipped": self.skipped, "detail": self.detail}


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def _jacobi_scan(table: np.ndarray, p: int) -> str:
    """Empty string when every basis triple of the bracket table satisfies Jacobi, else the first witness."""
    bad = witt.jacobi_scan(table, p)
    return "" if bad is None else "Jacobi fails on basis triple positions ({}, {}, {})".format(*bad)


def _basis_pair_sweep(tables: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(summands, chains) of stacked tables (d, n, n, n): sum_i s_i(b_u, b_v) at [d, u, v], R(b_u)^p at [d, u].

    One witt.lambda_rows call per block of u, over every table and v: its
    weighted rows are the summands, and its lambda^0 row, row u of
    R(b_v)^(p-1) (R the right-bracket matrix), times R(b_v) is row u of
    R(b_v)^p.  Blocks are sized for four arrays of their lambda rows
    (tables, block, n, p, n) within _SWEEP_BYTES (witt.sweep_blocks), each
    freed before the next.  A block holds about 3.05; sizing for three
    passes the bound and is no faster (tracemalloc, two tables: 49.4
    against 66.7 MiB at p = 37; 49.9 MiB in 7.7 s against 71.3 MiB in
    8.1 s at p = 53).
    """
    n = tables.shape[1]
    right = tables.transpose(0, 2, 1, 3)  # right[d, u]: (v @ right[d, u]) is [v, b_u]
    eye = np.eye(n, dtype=np.int64)
    summands, chains = np.empty(tables.shape, dtype=np.int64), np.empty(tables.shape, dtype=np.int64)
    for us in witt.sweep_blocks(n, 4 * 8 * len(tables) * n * p * n):
        rows = witt.lambda_rows(eye[us, None], right[:, us, None], right[:, None], p - 1, p)
        summands[:, us] = witt.summands_from_rows(rows, p)
        chains[:, :, us] = rows[..., 0, :].swapaxes(1, 2) @ right % p
        del rows
    return summands, chains


def verify_restricted_axioms(ext: CentralExtension, trials: int = 10, seed: int = 0) -> AxiomReport:
    """Check antisymmetry, Jacobi, centrality of c and the three p-map axioms.

    The one-extension call of verify_restricted_axioms_stacked, which
    describes the checks.
    """
    return verify_restricted_axioms_stacked([ext], trials, [seed])[0]


def verify_restricted_axioms_stacked(
    exts: list[CentralExtension], trials: int, seeds: list[int]
) -> list[AxiomReport]:
    """The axiom report of each extension of one prime, extension k drawing from random.Random(seeds[k]).

    Antisymmetry, Jacobi, centrality and the adjoint axiom run exhaustively
    over the table basis, the adjoint axiom also on `trials` seeded random
    pairs; the scalar axiom runs on `trials` random elements and the sum
    axiom on every basis pair plus `trials` random pairs.

    What depends on the bracket table alone runs once per distinct table
    (tables equal byte for byte are one), draws nothing, and its results
    are indexed back to each extension: antisymmetry, the bracket part of
    centrality, the Jacobi witness, and the basis-pair sweep, the summands
    of every basis pair and the adjoint chain power of every basis element
    (_basis_pair_sweep).  The p extensions of the coordinate cocycles
    (0, omega_i) share one table, W + Kc, so a prime's p + 1 extensions
    make two.  Each extension's p-map rows, draws, verdicts and details
    stay its own.

    The sum axiom's basis pairs take the sweep's summands, the basis powers
    of the extension's p-map rows, and left sides (b_u + b_v)^{[p]} from one
    pmap_rows call on the basis sums u <= v (mirrored) against every
    extension's source cocycle, so the sweep tests the p-map the extension
    uses (the fold checks it in turn, verify's witt.pth_power_oracle).  Each
    extension compares its own pairs, in the adjoint scan too, so neither
    builds an array over every extension's basis pairs.  The first failing
    pair is reported in row-major order.

    The extensions are checked axiom by axiom, all together: the random
    trials of one axiom, of every extension, take their p-th powers in one
    pmap_rows call, each row with its own source cocycle, and are tested
    together.  Each extension's draws are the same as those of a loop
    testing its trials one by one, and so is the reported failure, its
    first failing trial: after a failure its generator is wound back to
    where such a loop stops drawing, so later axioms draw the same elements
    too (witt.first_failures).
    """
    if not exts:
        raise ValueError("need at least one extension")
    p = exts[0].p
    n = p + 1
    if any(e.p != p for e in exts) or len(seeds) != len(exts):
        raise ValueError("need one seed per extension, all over the same prime")
    rngs = [random.Random(seed) for seed in seeds]
    # tables holds the distinct bracket tables in order of first use; table_of[k] is extension k's.
    distinct: dict[bytes, int] = {}
    table_of = np.array([distinct.setdefault(e.bracket_table.tobytes(), len(distinct)) for e in exts])
    tables = np.stack([exts[k].bracket_table for k in np.unique(table_of, return_index=True)[1]])
    pmaps = np.stack([e.pmap_basis for e in exts])
    cocycles = np.stack([e.source.to_vector() for e in exts])
    checks: list[list[CheckResult]] = [[] for _ in exts]

    def add(name: str, passed, details) -> None:
        for found, ok, detail in zip(checks, passed, details):
            found.append(CheckResult(name, bool(ok), detail=detail))

    # Entries are reduced and p is odd, so 2 [b_u, b_u] = 0 forces [b_u, b_u] = 0.
    anti = ((tables + tables.transpose(0, 2, 1, 3)) % p).any(axis=(1, 2, 3))
    add("antisymmetry", ~anti[table_of], [""] * len(exts))
    witnesses = [_jacobi_scan(t, p) for t in tables]
    jacobi = [witnesses[d] for d in table_of]
    add("jacobi", [not w for w in jacobi], jacobi)
    central = (tables[:, :, p].any(axis=(1, 2)) | tables[:, p].any(axis=(1, 2)))[table_of] | pmaps[:, p].any(axis=1)
    add("central_element", ~central, [""] * len(exts))
    summands, chains = _basis_pair_sweep(tables, p)

    def random_pairs(rng: random.Random, m: int) -> np.ndarray:
        """m pairs (x, y) of nonzero rows, (m, 2, n)."""
        return random_rows(rng, p, 2 * m, True, n).reshape(m, 2, n)

    def failure(k: int, x, y) -> str:  # extension k's failing pair, as the loops reported it
        return f"fails for x={exts[k].from_coeffs(x)!r}, y={exts[k].from_coeffs(y)!r}"

    # right_rows[d, u] is the flattened right-bracket matrix of b_u in table d: (v @ it) is [v, b_u].
    right_rows = tables.transpose(0, 2, 1, 3).reshape(len(tables), n, n * n)

    def right_of(xs: np.ndarray, part) -> np.ndarray:
        """Right-bracket matrices of rows xs (k, m, n), xs[k] in table part[k]."""
        return (xs @ right_rows[part]).reshape(xs.shape + (n,)) % p

    # Scalar axiom: (l*x)^{[p]} = l^p x^{[p]}.  A trial draws l, then x.
    def scalar_failing(samples):
        lams, xs = (np.array([drawn[part] for drawn in samples]) for part in (0, 1))
        scaled, powers = pmap_rows(np.stack([lams * xs, xs]), cocycles[:, None], p)
        lam_p = np.array([pow(a, p, p) for a in range(p)])[lams]
        return ((scaled - lam_p * powers) % p).any(axis=-1)

    def scalar_draw(rng, m):
        return random_records(rng, p, m, [(1, False), (n, False)])

    samples, firsts = first_failures(rngs, scalar_draw, trials, scalar_failing)
    details = [""] * len(exts)
    for k, j in enumerate(firsts):
        if j is not None:
            lam, x = (part[j] for part in samples[k])
            details[k] = f"fails for lambda={lam[0]}, x={exts[k].from_coeffs(x)!r}"
    add("scalar_power", [not d for d in details], details)

    # Adjoint axiom: [y, x^{[p]}] = [y, x, ..., x] with p factors of x.  For
    # basis x = b_u the chains over every y are the sweep's R(b_u)^p, which
    # each extension compares with the right-bracket matrices of its p-map
    # rows; the random pairs of the extensions that pass run stacked.
    bad = [(chains[d] != (pmap @ right_rows[d]).reshape(n, n, n) % p).any(axis=-1) for pmap, d in zip(pmaps, table_of)]
    details = ["" if not b.any() else "fails on basis positions ({1}, {0})".format(*np.argwhere(b)[0]) for b in bad]
    scanned = [k for k, detail in enumerate(details) if not detail]

    def adjoint_failing(samples):
        xs, ys = (np.array(samples)[:, :, side] for side in (0, 1))
        bx = right_of(xs, table_of[scanned])
        chain = ys[..., None, :]
        for _ in range(p):
            chain = chain @ bx % p
        direct = ys[..., None, :] @ right_of(pmap_rows(xs, cocycles[scanned, None], p), table_of[scanned]) % p
        return (chain != direct)[..., 0, :].any(axis=-1)

    pairs, firsts = first_failures([rngs[k] for k in scanned], random_pairs, trials, adjoint_failing)
    for k, drawn, j in zip(scanned, pairs, firsts):
        if j is not None:
            details[k] = failure(k, *drawn[j])
    add("adjoint_power", [not d for d in details], details)

    # Sum axiom: (x+y)^{[p]} = x^{[p]} + y^{[p]} + sum_i s_i(x, y), the s_i
    # extracted from the lambda-expansion of the iterated bracket inside E.
    randoms = [random_pairs(rng, trials) for rng in rngs]
    eye = np.eye(n, dtype=np.int64)
    u, v = np.triu_indices(n)
    pair = np.zeros((n, n), dtype=np.int64)
    pair[u, v] = pair[v, u] = np.arange(len(u))
    lhs = pmap_rows(eye[u] + eye[v], cocycles[:, None], p)
    sides = zip(lhs, pmaps, table_of)  # each extension's left sides, basis powers and table
    bad = [((sums[pair] - summands[d] - pmap[:, None] - pmap) % p).any(axis=-1) for sums, pmap, d in sides]
    details = ["" if not b.any() else failure(k, *eye[np.argwhere(b)[0]]) for k, b in enumerate(bad)]
    swept = [k for k, detail in enumerate(details) if not detail]
    if swept and trials:
        xs, ys = (np.array([randoms[k][:, side] for k in swept]) for side in (0, 1))
        x_pow, y_pow, sum_pow = pmap_rows(np.stack([xs, ys, xs + ys]), cocycles[swept, None], p)
        part = table_of[swept]
        rhs = x_pow + y_pow + summands_total(xs, right_of(xs, part), right_of(ys, part), p)
        for k, b in zip(swept, ((sum_pow - rhs) % p).any(axis=-1)):
            if b.any():
                details[k] = failure(k, *randoms[k][np.argmax(b)])
    add("sum_expansion", [not d for d in details], details)

    return [AxiomReport(tuple(found)) for found in checks]


def cohomologous(a: Cochain2Res, b: Cochain2Res) -> tuple[bool, Cochain1 | None]:
    """Whether a - b is a restricted coboundary; the witness psi has d1(psi) = a - b.  One pair of cohomologous_rows."""
    check_same_field(a, b)
    (same,), (psi,) = cohomologous_rows(a.field, [a.to_vector()], [b.to_vector()])
    return (True, Cochain1(a.field, tuple(psi.tolist()))) if same else (False, None)


def cohomologous_rows(field: PrimeField, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Whether each a - b of stacked cocycle rows (k, c2_dim(p)) is a restricted coboundary, and witnesses psi.

    psi has d1(psi) = a - b on the pairs that are cohomologous.  The first
    pair a loop would refuse, one with a non-cocycle, is refused
    (NotACocycleError.index).
    """
    p = field.p
    a, b = as_int_array(a, c2_dim(p)) % p, as_int_array(b, c2_dim(p)) % p
    bad = ~(is_cocycle_rows(a, p) & is_cocycle_rows(b, p))
    if bad.any():
        raise NotACocycleError("cohomology comparison is defined on cocycles only", int(np.argmax(bad)))
    psi, rest = cochain_complex(field).split_coboundary(a - b)
    return ~rest.any(axis=-1), psi


class Classification(enum.Enum):
    SPLIT = "split"
    ORDINARY_LEVI_ONLY = "ordinary-levi-only"
    NON_LEVI = "non-levi"


def classify_extension(c: Cochain2Res) -> Classification:
    """Split if the class vanishes; otherwise sorted by whether the phi part is
    an ordinary coboundary (then the extension splits as an ordinary Lie
    algebra but not as a restricted one) or not (no Levi complement either
    way).  The one-row call of classify_rows."""
    return classify_rows(c.field, [c.to_vector()])[0]


def classify_rows(field: PrimeField, vs) -> list[Classification]:
    """classify_extension of each stacked cocycle row (k, c2_dim(p)).

    The rows that do not split are projected to ordinary H^2 together
    (restricted.ordinary_classes, with its span check); a loop stops at
    its first non-cocycle, so only the rows before it are classified, and
    the error raised is the one that loop meets first.
    """
    p = field.p
    vs = as_int_array(vs, c2_dim(p)) % p
    bad = ~is_cocycle_rows(vs, p)
    n = int(np.argmax(bad)) if bad.any() else len(vs)
    split = ~cochain_complex(field).split_coboundary(vs[:n])[1].any(axis=-1)
    levi = np.zeros(n, dtype=bool)
    levi[~split] = ordinary_classes(field, vs[:n, :-p][~split])[0]
    if n < len(vs):
        raise NotACocycleError("classification is defined on cocycles only", n)
    return [
        Classification.SPLIT if s else Classification.ORDINARY_LEVI_ONLY if l else Classification.NON_LEVI
        for s, l in zip(split, levi)
    ]


def omega_extension(field: PrimeField, i: int) -> CentralExtension:
    """The extension of the coordinate cocycle (0, omega_i)."""
    return build_extension(omega_coordinate(field, i))


def virasoro_extension(field: PrimeField) -> CentralExtension:
    """The modular Virasoro algebra: the extension of the cubic-coefficient cocycle."""
    return build_extension(virasoro_cochain(field))
