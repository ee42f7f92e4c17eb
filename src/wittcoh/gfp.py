"""Exact dense linear algebra over prime fields GF(p).

Matrices are numpy int64 arrays in row-major layout with every entry
reduced to the canonical range [0, p).  rref takes a stack (..., R, C) of
matrices, a 2-D matrix being a stack of one, and returns the reduced row
echelon form of each with its pivot columns as a boolean mask (..., C).
The pivot is the first nonzero entry in column order; reduced forms are
unique, so ranks, echelon forms and kernel bases are reproducible across
runs.

There is one elimination: the matrices of a stack are reduced in
lockstep, one column at a time, each step clearing that column from
every matrix with one broadcast update, so the p grade blocks of a
coboundary cost the Python overhead of one block, not p.
tests/oracles.py keeps the plain per-pivot elimination of one matrix as
its reference.  kernels reads the kernel bases of a whole stack off its
reduced forms; kernel_basis is its list for one matrix.  certified_ranks
proves a stack's ranks off its kernels by products mod p only.

Every GF(p) array a caller hands the package goes through one
conversion, as_int_array: an int64 array, the input itself when it
already is one, so rref still makes the one working copy.  Entries that
are not integers (floats), integers that do not fit int64 and rows of
another width are refused, each with one ValueError message, never
truncated or wrapped; each reader reduces mod p itself.  is_prime is
deterministic Miller-Rabin.

Every value of the package is a row of GF(p) coordinates, held by one
of two bases.  Coordinates holds W's elements and the ordinary cochains,
C(p, degree) coordinates; CoordinatePair holds the restricted cochains
and the extensions' elements, a head of Coordinates and a tail of p^k
GF(p) values, its row the head's then the tail's.  Each base validates
and reduces its values, and owns to_vector and from_vector, which
refuses a row of another width; is_zero, the arithmetic and the refusal
of a value of another class or another prime's (check_same_field) are
one copy for both, on those rows.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# The largest modulus rref reduces exactly: a product of two entries below it fits in int64.
MAX_MODULUS = math.isqrt(2**63 - 1)


def as_int(value, what: str) -> int:
    """value as an int, numpy integers included (operator.index); ValueError for a float or any other non-integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def as_int_array(values, width: int | None = None) -> np.ndarray:
    """values as an int64 array, not copied when they already are one: the one conversion of the GF(p) arrays a
    caller passes, which the package reduces mod p itself.

    An object array is read when every entry is an integer that fits
    int64.  ValueError for entries that are not integers (floats), for
    integers that do not fit int64 (numpy holds them as uint64, or widens a
    list of them to float64 or object), and for rows whose length is not
    width (the last axis), or, with no width, that of the first row.  An
    array of a float dtype holds no integers, so it is refused by its dtype
    alone; the caller's entries are scanned only when numpy widened them.
    """
    try:
        a = np.asarray(values)
    except ValueError:  # rows of different lengths
        a, first = None, values
        while len(first) and isinstance(first[0], (list, tuple, np.ndarray)):
            first = first[0]
        width = len(first) if width is None else width
    if a is None or width is not None and a.shape[-1:] != (width,):
        raise ValueError(f"expected a vector of length {width}")
    widened = a.dtype.kind == "O" or a.dtype.kind == "f" and not isinstance(values, np.ndarray)
    if widened or a.dtype == np.uint64 and a.size and a.max() >= 2**63:
        entries = np.asarray(values, dtype=object).ravel()  # the caller's integers, exact
        integers = [x for x in entries if isinstance(x, (int, np.integer))]
        big = [x for x in integers if not -(2**63) <= x < 2**63]
        if big:
            raise ValueError(f"coordinates must be integers that fit int64, got {big[0]}")
        if a.dtype.kind == "O" and len(integers) == entries.size:
            a = a.astype(np.int64)
    if a.size and a.dtype.kind not in "biu":
        raise ValueError(f"coordinates must be integers, got an array of {a.dtype}")
    return a.astype(np.int64, copy=False)


def is_prime(n: int) -> bool:
    """Primality by Miller-Rabin with the first 13 primes as bases, in time polynomial in the digits of n.

    The bases are proven exact below 3.317 * 10^24 (Sorenson and Webster),
    and n from there on raises ValueError.  tests/oracles.py keeps trial
    division as its oracle.
    """
    bound, bases = 3_317_044_064_679_887_385_961_981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n >= bound:
        raise ValueError(f"{n} is too large to test for primality (the bound is {bound})")
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The prime field GF(p) for p >= 3; scalars are residues in [0, p)."""

    p: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", as_int(self.p, "the modulus"))
        if self.p < 3:
            raise ValueError(f"modulus must be at least 3, got {self.p}")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def inv(self, a: int) -> int:
        """Multiplicative inverse via Fermat; raises on zero input."""
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def rref(self, m) -> tuple[np.ndarray, np.ndarray]:
        """Reduced row echelon forms of a stack (..., R, C) and their pivot columns as a mask (..., C)."""
        p = self.p
        if p > MAX_MODULUS:
            raise OverflowError(f"GF({p}) products overflow int64 (the largest modulus is {MAX_MODULUS})")
        a = as_int_array(m)  # read, not written: the elimination makes the one working copy
        if a.ndim < 2:
            raise ValueError(f"expected a stack of matrices, got ndim={a.ndim}")
        *stack, rows, cols = a.shape
        r, pivots = _rref_lockstep(a.reshape(math.prod(stack), rows, cols), p)
        return r.reshape(*stack, rows, cols), pivots.reshape(*stack, cols)

    def rank(self, m) -> int:
        return int(np.count_nonzero(self.rref(_one_matrix(m))[1]))

    def kernels(self, m) -> tuple[np.ndarray, np.ndarray]:
        """Right kernels of a stack (..., R, C): vectors (..., C, C) and the free columns as a mask (..., C).

        Row f of the vectors is the kernel vector of the free column f: 1
        at f, minus column f of the reduced row at each pivot column, zero
        elsewhere.  The rows at pivot columns are zero.
        """
        r, pivots = self.rref(m)
        rows, cols = r.shape[-2:]
        # Row c of leading: the reduced row whose pivot is column c, the zero row R for a free column.
        padded = np.concatenate([r, np.zeros(r.shape[:-2] + (1, cols), dtype=np.int64)], axis=-2)
        row_of = np.where(pivots, np.cumsum(pivots, axis=-1) - 1, rows)
        leading = np.take_along_axis(padded, row_of[..., None], axis=-2)
        vectors = (np.eye(cols, dtype=np.int64) - leading) % self.p
        return np.swapaxes(vectors, -1, -2), ~pivots

    def certified_ranks(self, m, vectors, free) -> np.ndarray:
        """The rank C - |F| of each B of a stack (n, R, C), proven off its kernels (as kernels gives them) by products.

        Kernel vectors K unit on the free columns F with B . K = 0 prove rank B <= C - |F|.  The rows of B that rref
        finds independent on B's pivot columns, with unit rows at F, make N; X . N = I proves rank B >= C - |F|.  A
        bound that fails raises ArithmeticError.
        """
        p, m = self.p, as_int_array(m) % self.p
        rows, cols = m.shape[1:]
        if cols * (p - 1) ** 2 > 2**63 - 1:
            raise OverflowError(f"GF({p}) sums of {cols} products overflow int64")
        vectors, eye = as_int_array(vectors, cols), np.eye(cols, dtype=np.int64)
        if ((vectors - eye) * free[:, :, None] * free[:, None, :]).any():
            raise ArithmeticError("kernel vectors are not unit on the free columns")
        if (m @ np.swapaxes(vectors, 1, 2) % p * free[:, None, :]).any():
            raise ArithmeticError("a kernel vector is not killed")
        _, chosen = self.rref(np.swapaxes(m * ~free[:, None, :], 1, 2))  # rows of B independent on its pivots
        nth = np.clip(np.cumsum(~free, axis=1) - 1, 0, rows - 1)  # pivot column c takes the nth chosen row
        sources = np.take_along_axis(np.argsort(~chosen, axis=1, kind="stable"), nth, axis=1)
        n = np.where(free[:, :, None], eye, np.take_along_axis(m, sources[:, :, None], axis=1))
        if ((self.inverses(n) @ n - eye) % p).any():
            raise ArithmeticError("no invertible minor of full rank")
        return cols - np.count_nonzero(free, axis=1)

    def inverses(self, m) -> np.ndarray:
        """The inverse of each matrix of a stack (..., C, C), off one rref of [m | I]; garbage where m is singular."""
        m = as_int_array(m)
        eye = np.broadcast_to(np.eye(m.shape[-1], dtype=np.int64), m.shape)
        return self.rref(np.concatenate([m, eye], axis=-1))[0][..., m.shape[-1] :]

    def kernel_basis(self, m) -> list[np.ndarray]:
        """Basis of the right kernel {v : m v = 0}, one vector per free column."""
        vectors, free = self.kernels(_one_matrix(m))
        return list(vectors[free])


def check_same_field(x, y) -> None:
    """Refuse two elements or cochains (anything with a field) over different primes."""
    if x.field.p != y.field.p:
        raise ValueError(f"elements live over different fields (p={x.field.p} vs p={y.field.p})")


def _reduced(values, p: int, not_integer: str, **given) -> list[int]:
    """values as ints reduced mod p, numpy integers included; a non-integer raises ValueError(not_integer), formatted
    with given and the first value refused as entry."""
    try:
        return [c % p for c in map(operator.index, values)]
    except TypeError:
        entry = next(v for v in values if not hasattr(type(v), "__index__"))
        raise ValueError(not_integer.format(entry=entry, **given)) from None


class _RowArithmetic:
    """is_zero and the arithmetic of a value that converts to and from its GF(p) coordinate row (to_vector and the
    classmethod from_vector); a sum or difference with a value of another class or another prime's is refused."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._names = tuple(cls.__annotations__)  # the fields a subclass declares: its coordinates, or head and tail

    def is_zero(self) -> bool:
        return not self.to_vector().any()

    def _operand(self, other) -> np.ndarray:
        """other's row, once other is a value of this class over this prime."""
        if type(other) is not type(self):
            raise ValueError(f"cannot combine a {type(self).__name__} with a {type(other).__name__}")
        check_same_field(self, other)
        return other.to_vector()

    def __add__(self, other):
        return self.from_vector(self.field, self.to_vector() + self._operand(other))

    def __sub__(self, other):
        return self.from_vector(self.field, self.to_vector() - self._operand(other))

    def __neg__(self):
        return self.from_vector(self.field, -self.to_vector())

    def __rmul__(self, scalar: int):
        return self.from_vector(self.field, as_int(scalar, "a scalar") % self.field.p * self.to_vector())


@dataclass(frozen=True)
class Coordinates(_RowArithmetic):
    """Base of the frozen vectors of GF(p) coordinates: a field, then C(p, degree) coordinates.

    A subclass is a frozen dataclass declaring one field, the coordinate
    tuple.  Its entries must be integers, numpy integers included, and are
    stored reduced mod p as ints.  Another length, a non-integer entry (the
    message is the class's not_integer, given the entries and the first
    entry refused) and arithmetic with another prime's vector raise
    ValueError.
    """

    field: PrimeField
    degree = 1
    not_integer = "a coefficient must be an integer, got {entry!r}"

    def __post_init__(self) -> None:
        p, entries = self.field.p, getattr(self, self._names[0])
        n = math.comb(p, self.degree)
        if len(entries) != n:
            raise ValueError(f"need {n} coefficients, got {len(entries)}")
        object.__setattr__(self, self._names[0], tuple(_reduced(entries, p, self.not_integer, entries=entries)))

    def to_vector(self) -> np.ndarray:
        return np.array(getattr(self, self._names[0]), dtype=np.int64)

    @classmethod
    def from_vector(cls, field: PrimeField, row):
        """The vector of a row of C(p, degree) coordinates."""
        return cls(field, tuple((as_int_array(row, math.comb(field.p, cls.degree)) % field.p).tolist()))


class CoordinatePair(_RowArithmetic):
    """Base of the frozen pairs (head, tail): Coordinates of the class head_type, then p^tail_axes GF(p) values.

    A subclass is a frozen dataclass declaring the two fields.  The tail,
    a p x ... x p table of tail_axes axes (one value for none), is stored
    reduced mod p as nested tuples of ints (an int).  A head of another
    class, a tail of another shape (the class's wrong_shape, given p and
    the tail) or with a non-integer value (its not_integer, given the tail
    and the value refused) raise ValueError.
    """

    head_type = Coordinates
    tail_axes = 1

    def __post_init__(self) -> None:
        (head_name, head), (tail_name, tail) = ((name, getattr(self, name)) for name in self._names)
        if not isinstance(head, self.head_type):
            raise ValueError(f"{head_name} must be a {self.head_type.__name__}, got {type(head).__name__}")
        p, values = head.field.p, np.array(tail, dtype=object)
        if values.shape != (p,) * self.tail_axes:
            raise ValueError(self.wrong_shape.format(p=p, tail=tail))
        values.flat = _reduced(values.ravel().tolist(), p, self.not_integer, tail=tail)
        object.__setattr__(self, tail_name, _tuples(values.tolist()))

    @property
    def field(self) -> PrimeField:
        return getattr(self, self._names[0]).field

    def to_vector(self) -> np.ndarray:
        head, tail = (getattr(self, name) for name in self._names)
        return np.concatenate([head.to_vector(), np.ravel(tail)])

    @classmethod
    def from_vector(cls, field: PrimeField, row):
        """The pair of a row of the head's coordinates, then the tail's p^tail_axes values."""
        n = math.comb(field.p, cls.head_type.degree)
        row = as_int_array(row, n + field.p**cls.tail_axes)
        return cls(cls.head_type.from_vector(field, row[..., :n]), row[..., n:].reshape((field.p,) * cls.tail_axes))


def _tuples(x):
    """Nested lists as nested tuples."""
    return tuple(map(_tuples, x)) if isinstance(x, list) else x


def _one_matrix(m) -> np.ndarray:
    """m as_int_array, once it is known to be a 2-D matrix; rref makes the one working copy."""
    m = as_int_array(m)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def _rref_lockstep(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """rref of every matrix of a stack (B, R, C), all reduced together one column at a time.

    In column c each matrix takes as pivot row its first row that is not
    yet a pivot row and is nonzero there; a matrix with none takes an
    extra zero row R, so its update is zero.  One broadcast update clears
    c from every row of every matrix, and each pivot row is then set to
    itself scaled to 1 at c.  Pivot rows stay where they were found and
    move into column order at the end; the rows left over are zero.

    The matrices are held transposed, (B, C, R + 1), so the update runs
    along whole columns.  Only column c and the pivot rows are reduced
    mod p at each step, the rest once at the end: every update changes an
    entry by less than p^2, which for the small primes of the complex
    leaves int64 far from overflow; a large p reduces everything every
    span steps.  A column zero in every matrix takes no step: each pivot
    row is zero there, so every update leaves it zero.  It stops once
    every row of every matrix is a pivot row.
    """
    count, rows, cols = a.shape
    t = np.zeros((count, cols, rows + 1), dtype=np.int64)
    np.remainder(a.transpose(0, 2, 1), p, out=t[:, :, :rows])
    span = max(1, (2**63 - 1) // p**2 - 1)  # updates an entry takes from below p before it may overflow int64
    free = np.ones((count, rows + 1), dtype=bool)
    order = np.full((count, rows + 1), cols)  # the pivot column of each row, cols for none
    each = np.arange(count)
    for step, c in enumerate(np.flatnonzero(t.any(axis=(0, 2))).tolist()):
        if step and step % span == 0:
            t[:, c:] %= p
        column = t[:, c] % p
        candidates = np.logical_and(column, free)
        if not candidates.any():
            continue
        candidates[:, rows] = True
        row = candidates.argmax(axis=1)
        inv = np.array([pow(x, p - 2, p) for x in column[each, row].tolist()], dtype=np.int64)  # 0 for no pivot
        pivot_rows = t[each, c:, row] % p * inv[:, None] % p
        t[:, c:] -= pivot_rows[:, :, None] * column[:, None, :]
        t[each, c:, row] = pivot_rows
        free[each, row] = False
        order[each, row] = c
        if not free[:, :rows].any():
            break
    t %= p
    order = order[:, :rows]
    t = np.take_along_axis(t[:, :, :rows], np.argsort(order, axis=1, kind="stable")[:, None, :], axis=2)
    pivots = np.zeros((count, cols + 1), dtype=bool)
    pivots[each[:, None], order] = True
    return t.transpose(0, 2, 1), pivots[:, :cols]
