"""Exact linear algebra over GF(p), and the base of its coordinate vectors."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tests.oracles import is_prime_by_trial_division, kernel_basis_by_pivots, rref_by_pivots
from wittcoh.extensions import ExtElement
from wittcoh.gfp import MAX_MODULUS, CoordinatePair, Coordinates, PrimeField, as_int_array, is_prime
from wittcoh.ordinary import Cochain1, Cochain2Ord, Cochain3Ord
from wittcoh.restricted import Cochain2Res, Cochain3Res
from wittcoh.witt import WittElement

SMALL_PRIMES = [3, 5, 7, 11, 13]


def test_primality_by_trial_division():
    # is_prime is Miller-Rabin on the first 13 prime bases; trial division is its oracle.  561, 1105 and 41041 are
    # Carmichael numbers, and 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7.
    assert [n for n in range(2, 32) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    for n in [*range(-2, 10**5), 561, 1105, 41041, 3215031751]:
        assert is_prime(n) == is_prime_by_trial_division(n), n


def test_primality_of_huge_moduli_is_quick_and_bounded():
    # Trial division grows as the square root of n (1.1 s at 10^14); Miller-Rabin is exact below 3.317 * 10^24.
    assert is_prime(2**61 - 1) and is_prime(10**18 + 3) and not is_prime(10**18 + 1) and not is_prime((2**31 - 1) ** 2)
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    bound = 3_317_044_064_679_887_385_961_981  # the least strong pseudoprime to all 13 bases
    assert not is_prime(bound - 2)
    for n in (bound, 10**30 + 57):
        with pytest.raises(ValueError, match=f"^{n} is too large to test for primality"):
            PrimeField(n)


@pytest.mark.parametrize("bad", [1, 2, 4, 9, 15, 21])
def test_field_rejects_bad_moduli(bad):
    with pytest.raises(ValueError):
        PrimeField(bad)


def test_field_refuses_a_modulus_that_is_not_an_integer():
    # PrimeField(7.0) used to be accepted, and then basis_element and rank failed deep inside.
    for bad in (7.0, np.float64(7), 7.5, "7"):
        with pytest.raises(ValueError, match="must be an integer"):
            PrimeField(bad)
    field = PrimeField(np.int64(7))
    assert type(field.p) is int and field == PrimeField(7)


@pytest.mark.parametrize(
    "cls, length, refusal",
    [
        (WittElement, 7, "coefficients must be integers"),
        (Cochain1, 7, "a coefficient must be an integer"),
        (Cochain2Ord, 21, "a coefficient must be an integer"),
        (Cochain3Ord, 35, "a coefficient must be an integer"),
    ],
)
def test_coordinate_vectors_share_one_base(cls, length, refusal):
    # The C(p, degree) coordinates over GF(7): validation, reduction and arithmetic live in Coordinates.
    f7, rng = PrimeField(7), np.random.default_rng(length)
    assert issubclass(cls, Coordinates) and not {"__post_init__", "is_zero", "to_vector", "__add__"} & set(vars(cls))
    for n in (length - 1, length + 1):
        with pytest.raises(ValueError, match=f"^need {length} coefficients, got {n}$"):
            cls(f7, (0,) * n)
    for bad in (1.5, 2.0, np.float64(3.0), "1", None):
        with pytest.raises(ValueError, match=refusal):
            cls(f7, (0,) * (length - 1) + (bad,))
    a, b = rng.integers(-20, 20, size=(2, length))
    x, y = cls(f7, tuple(a)), cls(f7, tuple(np.int64(v) for v in b))
    field_names = [f.name for f in dataclasses.fields(cls)]
    assert field_names[0] == "field" and all(type(v) is int for v in getattr(y, field_names[1]))
    assert x.to_vector().tolist() == (a % 7).tolist() and x.to_vector().dtype == np.int64
    for got, want in [(x + y, a + b), (x - y, a - b), (-x, -a), (3 * x, 3 * a), (np.int64(-2) * x, -2 * a)]:
        assert type(got) is cls and got == cls(f7, tuple(want % 7)) and got.to_vector().tolist() == (want % 7).tolist()
    assert (x - x).is_zero() and not cls(f7, (0,) * (length - 1) + (1,)).is_zero() and cls(f7, (7,) * length).is_zero()
    other = cls(PrimeField(5), (0,) * math.comb(5, cls.degree))
    stranger = Cochain1(f7, (0,) * 7) if cls is WittElement else WittElement(f7, (0,) * 7)  # another class
    for operand, refusal in [(other, "different fields"), (stranger, "^cannot combine a ")]:
        for op in (lambda: x + operand, lambda: operand - x):
            with pytest.raises(ValueError, match=refusal):
                op()
    same = cls(f7, tuple((a + 7).tolist()))
    assert same == x and hash(same) == hash(x) and len({x, same}) == 1


@pytest.mark.parametrize(
    "cls, shape, wrong_shape, refusal",
    [
        (Cochain2Res, (7,), "need 7 omega values", "an omega value must be an integer"),
        (Cochain3Res, (7, 7), "beta table must be 7 x 7", "a beta value must be an integer"),
        (ExtElement, (), "the central coefficient must be an integer", "the central coefficient must be an integer"),
    ],
)
def test_composite_values_share_one_base(cls, shape, wrong_shape, refusal):
    # A head of Coordinates, then a tail of 7^len(shape) values over GF(7): validation, reduction, the coordinate
    # row and arithmetic live in CoordinatePair.
    f7, rng = PrimeField(7), np.random.default_rng(len(shape))
    assert issubclass(cls, CoordinatePair) and not {"__post_init__", "is_zero", "to_vector", "__add__"} & set(vars(cls))
    n = math.comb(7, cls.head_type.degree)
    width, head = n + 7 ** len(shape), cls.head_type(f7, (0,) * n)
    for other in {(), (6,), (8,), (7, 7), (7, 6), (6, 7)} - {shape}:
        with pytest.raises(ValueError, match=wrong_shape):
            cls(head, np.zeros(other, dtype=np.int64).tolist())
    for bad in (1.5, 2.0, np.float64(3.0), "1", None):
        tail = np.zeros(shape, dtype=object)
        tail[(-1,) * len(shape)] = bad
        with pytest.raises(ValueError, match=refusal):
            cls(head, tail.tolist())
    with pytest.raises(ValueError, match=f"must be a {cls.head_type.__name__}, got Cochain1"):
        cls(Cochain1(f7, (0,) * 7), np.zeros(shape, dtype=np.int64).tolist())
    a, b = rng.integers(-20, 20, size=(2, width))
    x = cls(cls.head_type(f7, tuple(a[:n].tolist())), a[n:].reshape(shape).tolist())
    y = cls(cls.head_type(f7, tuple(b[:n])), b[n:].reshape(shape))  # numpy integers, a numpy table
    tail = getattr(y, [f.name for f in dataclasses.fields(cls)][1])
    assert type(tail) is (tuple if shape else int) and all(type(v) is int for v in np.array(tail, dtype=object).flat)
    assert x.to_vector().tolist() == (a % 7).tolist() and x.to_vector().dtype == np.int64
    for got, want in [(x + y, a + b), (x - y, a - b), (-x, -a), (3 * x, 3 * a), (np.int64(-2) * x, -2 * a)]:
        assert type(got) is cls and got == cls.from_vector(f7, want) and got.to_vector().tolist() == (want % 7).tolist()
    assert cls.from_vector(f7, x.to_vector()) == x and cls.from_vector(f7, x.to_vector().tolist()) == x
    for m in (width - 1, width + 1):
        with pytest.raises(ValueError, match=f"^expected a vector of length {width}$"):
            cls.from_vector(f7, np.zeros(m, dtype=np.int64))
    units = np.eye(width, dtype=np.int64)[[0, n, -1]]
    assert (x - x).is_zero() and cls.from_vector(f7, [7] * width).is_zero()
    assert not any(cls.from_vector(f7, unit).is_zero() for unit in units)
    other = cls.from_vector(PrimeField(5), np.zeros(math.comb(5, cls.head_type.degree) + 5 ** len(shape), dtype=int))
    stranger = ExtElement.from_vector(f7, [0] * 8) if cls is not ExtElement else Cochain2Res.from_vector(f7, [0] * 28)
    for operand, refusal in [(other, "different fields"), (stranger, "^cannot combine a ")]:
        for op in (lambda: x + operand, lambda: operand - x):
            with pytest.raises(ValueError, match=refusal):
                op()
    same = cls.from_vector(f7, a + 7)
    assert same == x and hash(same) == hash(x) and len({x, same}) == 1


def test_inverse_examples():
    assert PrimeField(5).inv(2) == 3
    for p in SMALL_PRIMES:
        assert PrimeField(p).inv(1) == 1
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(0)


@given(st.sampled_from(SMALL_PRIMES), st.data())
def test_inverse_property(p, data):
    field = PrimeField(p)
    a = data.draw(st.integers(min_value=1, max_value=p - 1))
    assert a * field.inv(a) % p == 1


def test_rref_examples():
    f = PrimeField(5)
    eye = np.eye(3, dtype=np.int64)
    r, pivots = f.rref(eye)
    assert (r == eye).all() and np.flatnonzero(pivots).tolist() == [0, 1, 2]

    r, pivots = f.rref([[1, 2], [2, 4]])
    assert (r == np.array([[1, 2], [0, 0]])).all() and np.flatnonzero(pivots).tolist() == [0]

    r, pivots = f.rref(np.zeros((2, 3), dtype=np.int64))
    assert not r.any() and np.flatnonzero(pivots).tolist() == []


def test_rank_examples():
    f = PrimeField(5)
    assert f.rank(np.eye(4, dtype=np.int64)) == 4
    assert f.rank([[1, 2], [2, 4]]) == 1
    assert f.rank(np.zeros((3, 2), dtype=np.int64)) == 0


def test_kernel_examples():
    f = PrimeField(5)
    m = as_int_array([[1, 2], [2, 4]])
    basis = f.kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    assert not ((m @ v) % 5).any()
    # v is proportional to (3, 1): the cross term vanishes
    assert (v[0] * 1 - v[1] * 3) % 5 == 0 and v.any()

    assert f.kernel_basis(np.eye(3, dtype=np.int64)) == []
    assert len(f.kernel_basis(np.zeros((2, 2), dtype=np.int64))) == 2


@st.composite
def matrix_and_field(draw):
    p = draw(st.sampled_from(SMALL_PRIMES))
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=6))
    entries = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=p - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return PrimeField(p), np.array(entries, dtype=np.int64)


@given(matrix_and_field())
def test_rank_nullity(fm):
    field, m = fm
    assert field.rank(m) + len(field.kernel_basis(m)) == m.shape[1]


@given(matrix_and_field())
def test_rref_idempotent(fm):
    field, m = fm
    r1, piv1 = field.rref(m)
    r2, piv2 = field.rref(r1)
    assert (r1 == r2).all() and (piv1 == piv2).all()
    # The pivot columns, in order, are the unit columns of the nonzero rows.
    rank = np.count_nonzero(piv1)
    assert (r1[:rank][:, piv1] == np.eye(rank, dtype=np.int64)).all() and not r1[rank:].any()


@given(matrix_and_field())
def test_kernel_vectors_annihilate(fm):
    field, m = fm
    for v in field.kernel_basis(m):
        assert not ((m @ v) % field.p).any()


@given(matrix_and_field(), st.randoms(use_true_random=False))
def test_rank_invariant_under_row_permutation(fm, rnd):
    field, m = fm
    perm = list(range(m.shape[0]))
    rnd.shuffle(perm)
    assert field.rank(m[perm]) == field.rank(m)


@st.composite
def stack_and_field(draw):
    """A stack of blocks X @ Y of random inner rank, some of them zero, some ending in zero rows."""
    p = draw(st.sampled_from([3, 5, 7, 31]))
    count = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.integers(min_value=1, max_value=7))
    cols = draw(st.integers(min_value=1, max_value=7))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    blocks = []
    for _ in range(count):
        inner = draw(st.integers(min_value=0, max_value=min(rows, cols)))
        block = rng.integers(0, p, (rows, inner)) @ rng.integers(0, p, (inner, cols)) % p
        block[rows - draw(st.integers(min_value=0, max_value=rows - 1)) :] = 0  # padding rows
        blocks.append(block)
    return PrimeField(p), np.array(blocks)


@given(stack_and_field())
def test_stacked_rref_equals_the_oracle_block_by_block(fm):
    field, stack = fm
    r, pivots = field.rref(stack)
    assert r.shape == stack.shape and pivots.shape == (len(stack), stack.shape[2])
    for block, reduced, mask in zip(stack, r, pivots):
        expected, expected_pivots = rref_by_pivots(field, block)
        assert (reduced == expected).all()
        assert np.flatnonzero(mask).tolist() == expected_pivots


@given(matrix_and_field())
def test_one_matrix_rref_equals_the_oracle(fm):
    field, m = fm
    r, pivots = field.rref(m)
    expected, expected_pivots = rref_by_pivots(field, m)
    assert (r == expected).all() and np.flatnonzero(pivots).tolist() == expected_pivots


def test_rref_keeps_the_leading_axes():
    field = PrimeField(7)
    stack = np.arange(2 * 3 * 4 * 5).reshape(2, 3, 4, 5) % 7
    r, pivots = field.rref(stack)
    assert r.shape == stack.shape and pivots.shape == (2, 3, 5)
    for i in range(2):
        for j in range(3):
            assert (r[i, j] == rref_by_pivots(field, stack[i, j])[0]).all()


@given(stack_and_field())
def test_stacked_kernels_equal_the_oracle_block_by_block(fm):
    field, stack = fm
    vectors, free = field.kernels(stack)
    assert vectors.shape == (len(stack), stack.shape[2], stack.shape[2]) and free.shape == (len(stack), stack.shape[2])
    for block, rows, mask in zip(stack, vectors, free):
        expected = kernel_basis_by_pivots(field, block)
        assert len(expected) == np.count_nonzero(mask)
        assert all((v == e).all() for v, e in zip(rows[mask], expected))
        assert not rows[~mask].any()


@given(stack_and_field())
def test_certified_ranks_equal_the_oracle_block_by_block(fm):
    field, stack = fm
    ranks = field.certified_ranks(stack, *field.kernels(stack))
    assert ranks.tolist() == [len(rref_by_pivots(field, block)[1]) for block in stack]


@st.composite
def stack_with_zero_columns(draw):
    """A stack of random blocks, some ending in zero rows, with planted columns zero in every block.

    The large moduli reduce the stack every 8 elimination steps and at every step; the largest prime rref takes
    overflows int64 in two updates unless it is reduced.
    """
    p = draw(st.sampled_from([3, 7, 31, 1_000_000_007, 3_037_000_493]))
    count = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.integers(min_value=1, max_value=12))
    cols = draw(st.integers(min_value=1, max_value=20))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    stack = rng.integers(0, p, (count, rows, cols))
    stack[:, :, draw(st.lists(st.integers(min_value=0, max_value=cols - 1), max_size=cols))] = 0
    stack[:, rows - draw(st.integers(min_value=0, max_value=rows)) :] *= rng.integers(0, 2, (count, 1, 1))
    return PrimeField(p), stack


@given(stack_with_zero_columns())
def test_rref_skips_the_zero_columns_of_a_stack(fm):
    field, stack = fm
    r, pivots = field.rref(stack)
    for block, reduced, mask in zip(stack, r, pivots):
        expected, expected_pivots = rref_by_pivots(field, block)
        assert (reduced == expected).all() and np.flatnonzero(mask).tolist() == expected_pivots


def test_rref_of_a_large_modulus():
    field = PrimeField(1_000_000_007)
    m = np.random.default_rng(0).integers(0, field.p, (6, 8))
    m[5] = (3 * m[0] + m[2]) % field.p
    r, pivots = field.rref(m)
    expected, expected_pivots = rref_by_pivots(field, m)
    assert (r == expected).all() and np.flatnonzero(pivots).tolist() == expected_pivots == [0, 1, 2, 3, 4]
    # A stack is reduced in lockstep; its 40 pivots' updates, each below p^2, would overflow int64 unreduced.
    stack = np.random.default_rng(1).integers(0, field.p, (2, 40, 40))
    stack[1, 30:] = 0
    r, pivots = field.rref(stack)
    for block, reduced, mask in zip(stack, r, pivots):
        expected, expected_pivots = rref_by_pivots(field, block)
        assert (reduced == expected).all() and np.flatnonzero(mask).tolist() == expected_pivots
    # The largest prime rref takes reduces at every step; its planted zero columns take none.
    top = PrimeField(3_037_000_493)
    stack = np.random.default_rng(2).integers(0, top.p, (2, 6, 12))
    stack[:, :, [0, 4, 5, 11]] = 0
    r, pivots = top.rref(stack)
    for block, reduced, mask in zip(stack, r, pivots):
        expected, expected_pivots = rref_by_pivots(top, block)
        assert (reduced == expected).all() and np.flatnonzero(mask).tolist() == expected_pivots
    big = PrimeField(3_037_000_507)
    assert big.p > MAX_MODULUS
    with pytest.raises(OverflowError):
        big.rank(m)


def test_the_conversion_copies_no_int64_array():
    # rref makes the one working copy of its input; the conversion in front of every reader adds none.
    x = np.arange(12, dtype=np.int64).reshape(3, 4)
    assert as_int_array(x) is x and as_int_array(x, 4) is x and np.shares_memory(as_int_array(x[:, ::2], 2), x)
    assert as_int_array(np.arange(4, dtype=np.uint8), 4).dtype == np.int64 and as_int_array([]).dtype == np.int64


def _readers():
    """A param (width, call, fixed) per reader of caller arrays: call takes rows of that width, as the reader's matrix
    or its stacked rows; fixed says whether the reader takes rows of that one width only."""
    from wittcoh import extensions, restricted, witt

    f5, eye, cx = PrimeField(5), np.eye(2, dtype=np.int64), restricted.cochain_complex(PrimeField(5))
    matrices = {
        "rref": f5.rref,
        "rank": f5.rank,
        "kernels": f5.kernels,
        "kernel_basis": f5.kernel_basis,
        "inverses": f5.inverses,
        "certified_ranks": lambda m: f5.certified_ranks([m], eye[None], np.ones((1, 2), dtype=bool)),
        "lambda_rows": lambda start: witt.lambda_rows(start, eye, eye, 2, 5),
    }
    rows = [
        ("split_coboundary", 15, cx.split_coboundary),
        ("split_coboundary ordinary", 10, lambda vs: cx.split_coboundary(vs, False)),
        ("ordinary_classes", 10, lambda vs: restricted.ordinary_classes(f5, vs)),
        ("is_cocycle_rows", 15, lambda vs: restricted.is_cocycle_rows(vs, 5)),
        ("cohomologous_rows", 15, lambda vs: extensions.cohomologous_rows(f5, vs, vs)),
        ("classify_rows", 15, lambda vs: extensions.classify_rows(f5, vs)),
        ("fold", 5, lambda gs: witt.fold(lambda g, h: g, gs, 5)),
        ("pth_power_rows", 5, lambda gs: witt.pth_power_rows(gs, 5)),
        ("omega_functional_rows", 5, lambda gs: restricted.omega_functional_rows(gs, 5)),
        ("pth_power_via_derivation_rows", 5, lambda gs: witt.pth_power_via_derivation_rows(gs, 5)),
        ("bracket_rows", 5, lambda gs: witt.bracket_rows(gs, gs, 5)),
        ("pmap_rows", 6, lambda xs: extensions.pmap_rows(xs, np.zeros(15, dtype=np.int64), 5)),
        ("pmap_rows cocycles", 15, lambda cs: extensions.pmap_rows(np.zeros(6, dtype=np.int64), cs, 5)),
    ]
    return [pytest.param(2, call, False, id=name) for name, call in matrices.items()] + [
        pytest.param(width, call, True, id=name) for name, width, call in rows
    ]


@pytest.mark.parametrize("width, call, fixed", _readers())
def test_every_reader_refuses_floats_and_short_rows_one_way(width, call, fixed):
    # Floats used to be truncated or carried through (rank([[1.5, 2], [3, 4.7]]) was 2), and a short row met three
    # messages or numpy's own errors.  as_int_array is the one conversion; it refuses each fault with one message.
    call([[0] * width, [0] * width])
    with pytest.raises(ValueError, match="^coordinates must be integers, got an array of float64$"):
        call([[0] * width, [0] * (width - 1) + [1.5]])
    with pytest.raises(ValueError, match=f"^expected a vector of length {width}$"):
        call([[0] * width, [0] * (width - 1)])  # the second row one coordinate short
    if fixed:
        with pytest.raises(ValueError, match=f"^expected a vector of length {width}$"):
            call(np.zeros((2, width - 1), dtype=np.int64))  # every row one short


def test_a_float_array_is_refused_by_its_dtype_alone():
    # Refusing a float array used to box each of its entries as a Python object first: for the float table of an
    # extension at p = 101, 0.3 s and a 32 MiB traced peak.  Its dtype refuses it, with the same message.
    table = np.full((102, 102, 102), 0.5)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^coordinates must be integers, got an array of float64$"):
            as_int_array(table, 102)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("width, call, fixed", _readers())
def test_every_reader_refuses_integers_outside_int64_one_way(width, call, fixed):
    # A uint64 entry from 2^63 up used to wrap, and a list of integers outside int64, which numpy widens to float64
    # or object, was refused as not integers.  Each is refused as an integer that does not fit int64.
    def rows(first):
        return [[first] + [0] * (width - 1), [0] * width]

    for big in (2**64 - 1, 2**63, -(2**63) - 1, 2**100):
        with pytest.raises(ValueError, match=f"^coordinates must be integers that fit int64, got {big}$"):
            call(rows(big))
    with pytest.raises(ValueError, match=f"^coordinates must be integers that fit int64, got {2**64 - 1}$"):
        call(np.array(rows(2**64 - 1), dtype=np.uint64))


def _outcome(call, rows):
    """What call gives on rows: its result, arrays as nested lists, or the type and message of what it raises."""

    def plain(x):
        return [plain(v) for v in x] if isinstance(x, (tuple, list)) else np.asarray(x).tolist()

    try:
        return plain(call(rows))
    except Exception as err:
        return type(err), str(err)


@pytest.mark.parametrize("width, call, fixed", _readers())
def test_every_reader_reads_an_object_array_of_integers(width, call, fixed):
    # An object array of integers that fit int64 was refused as "an array of object", though the values' constructors
    # take the same integers.  Each reader now reads it as the int64 array, whatever it then gives or raises; a float
    # among the integers, or an integer from 2^63 up, is still refused.
    rows = [[0] * width, [0] * (width - 1) + [np.int64(2)]]
    assert _outcome(call, np.array(rows, dtype=object)) == _outcome(call, np.array(rows, dtype=np.int64))
    with pytest.raises(ValueError, match="^coordinates must be integers, got an array of object$"):
        call(np.array([[0] * width, [0] * (width - 1) + [1.5]], dtype=object))
    with pytest.raises(ValueError, match=f"^coordinates must be integers that fit int64, got {2**63}$"):
        call(np.array([[0] * width, [0] * (width - 1) + [2**63]], dtype=object))


def test_values_read_object_arrays_of_integers():
    # At p = 5 the object row (1, 2, 3, 4, 0) was refused, though the constructor reads it as e-1 + 2*e0 + 3*e1 + 4*e2.
    f5 = PrimeField(5)
    assert WittElement.from_vector(f5, np.array([1, 2, 3, 4, 0], dtype=object)) == WittElement(f5, (1, 2, 3, 4, 0))
    row = np.arange(15)
    assert Cochain2Res.from_vector(f5, row.astype(object)) == Cochain2Res.from_vector(f5, row)


def test_extension_tables_take_the_one_conversion():
    # CentralExtension reduced its tables with a bare % p: a table of floats was kept as float64 and failed only deep
    # inside the axiom check, a float p-map was kept as float, and nested lists raised AttributeError.
    from wittcoh.extensions import CentralExtension, omega_extension

    ext = omega_extension(PrimeField(5), 0)
    table, pmap = ext.bracket_table, ext.pmap_basis
    for bad in ((table + 0.5, pmap), (table, pmap.astype(np.float64))):
        with pytest.raises(ValueError, match="^coordinates must be integers, got an array of float64$"):
            CentralExtension(ext.source, *bad)
    listed = CentralExtension(ext.source, table.tolist(), pmap.tolist())
    for got, want in ((listed.bracket_table, table), (listed.pmap_basis, pmap)):
        assert got.dtype == np.int64 and (got == want).all() and not got.flags.writeable
    with pytest.raises(ValueError, match="^expected a vector of length 6$"):
        CentralExtension(ext.source, table[..., :5], pmap)
    with pytest.raises(ValueError, match="^table shapes do not match the extension dimension$"):
        CentralExtension(ext.source, table[:, :5], pmap)


def test_values_refuse_integers_outside_int64():
    # At p = 5 the uint64 row (2^64 - 1, 0, 0, 0, 0) read as 4*e-1 and the rank of [[2^64 - 1]] as 1, where
    # 2^64 - 1 = 0 mod 5.  The constructors take Python integers of any size and reduce them exactly.
    from wittcoh.witt import WittElement

    f5, big = PrimeField(5), 2**64 - 1
    message = f"^coordinates must be integers that fit int64, got {big}$"
    for row in ([big, 0, 0, 0, 0], np.array([big, 0, 0, 0, 0], dtype=np.uint64)):
        with pytest.raises(ValueError, match=message):
            WittElement.from_vector(f5, row)
    with pytest.raises(ValueError, match=message):
        f5.rank(np.array([[big]], dtype=np.uint64))
    assert WittElement(f5, (big, 0, 0, 0, 0)).is_zero() and WittElement(f5, (big + 1, 0, 0, 0, 0)).coeffs[0] == 1
    # The ends of int64 still convert.
    assert as_int_array(np.array([2**63 - 1], dtype=np.uint64)).tolist() == [2**63 - 1]
    assert as_int_array([-(2**63), 2**63 - 1]).tolist() == [-(2**63), 2**63 - 1]
