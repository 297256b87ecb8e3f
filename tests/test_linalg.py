"""Exact sparse elimination against a dense sympy oracle."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from matsuo.fields import PrimeField, QuadraticExtension, Rationals, sqrt_in_field
from matsuo.linalg import Echelon, axpy, nullspace, rank, rational_lift

Q = Rationals()
F7 = PrimeField(7)
QS3 = QuadraticExtension(Q, 3)


def _random_rows(rng, nrows, ncols, density=0.4):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                v = Fraction(rng.randint(-5, 5))
                if v:
                    row[c] = v
        rows.append(row)
    return rows


def _dense(rows, ncols):
    return sympy.Matrix([[row.get(c, 0) for c in range(ncols)] for row in rows])


def test_rank_matches_sympy_on_random_matrices():
    rng = random.Random(0)
    for trial in range(25):
        ncols = rng.randint(1, 8)
        rows = _random_rows(rng, rng.randint(1, 8), ncols)
        assert rank(rows, Q) == _dense(rows, ncols).rank(), (trial, rows)


def test_nullspace_matches_sympy_dimension_and_membership():
    rng = random.Random(1)
    for _ in range(25):
        ncols = rng.randint(1, 8)
        rows = _random_rows(rng, rng.randint(1, 8), ncols)
        basis = nullspace(rows, ncols, Q)
        oracle = _dense(rows, ncols).nullspace()
        assert len(basis) == len(oracle)
        for vec in basis:
            for row in rows:
                assert sum(v * vec.get(c, 0) for c, v in row.items()) == 0
        # oracle vectors lie in the computed span
        span = Echelon(Q)
        for vec in basis:
            span.insert(vec)
        for v in oracle:
            assert span.contains({i: Fraction(v[i]) for i in range(ncols) if v[i] != 0})


def test_nullspace_over_prime_field():
    rng = random.Random(2)
    for _ in range(15):
        ncols = rng.randint(1, 7)
        rows = [
            {c: F7.coerce(v.numerator) for c, v in row.items() if v.numerator % 7}
            for row in _random_rows(rng, rng.randint(1, 7), ncols)
        ]
        basis = nullspace(rows, ncols, F7)
        assert len(basis) == ncols - rank(rows, F7)
        for vec in basis:
            for row in rows:
                assert sum(v * vec.get(c, 0) for c, v in row.items()) % 7 == 0


@pytest.mark.parametrize("p", [7, (1 << 61) - 1])
def test_nullspace_over_prime_field_reads_unreduced_integer_rows(p):
    # integer rows, negative entries and multiples of p included, solve as their residues do
    F = PrimeField(p)
    rng = random.Random(p)
    for _ in range(25):
        ncols = rng.randint(1, 7)
        rows = [
            {c: rng.choice((int(v), int(v) - p, int(v) + 3 * p, 2 * p)) for c, v in row.items()}
            for row in _random_rows(rng, rng.randint(1, 7), ncols, density=0.6)
        ]
        coerced = [{c: F.coerce(v) for c, v in row.items()} for row in rows]
        assert nullspace(rows, ncols, F) == nullspace(coerced, ncols, F)


# an integer entry: a small value or any int below 2^64, plus a multiple of p;
# small value 0 puts a multiple of p on a pivot or a free column
_int_entry = st.tuples(
    st.one_of(st.integers(-3, 3), st.integers(-(2**64), 2**64)), st.integers(-2, 2)
)
_int_rows = st.lists(st.dictionaries(st.integers(0, 7), _int_entry, max_size=6), max_size=12)


@settings(max_examples=200)
@given(st.sampled_from([7, (1 << 61) - 1]), _int_rows, _int_rows)
def test_echelon_on_integer_rows_matches_the_coerced_rows(p, rows, probes):
    """Same growth, pivots and residues whether the rows hold integers or their residues."""
    F = PrimeField(p)
    rows = [{c: v + k * p for c, (v, k) in row.items()} for row in rows]
    probes = [{c: v + k * p for c, (v, k) in row.items()} for row in probes]
    raw, coerced = Echelon(F), Echelon(F)
    for row in rows:
        assert raw.insert(row) == coerced.insert({c: F.coerce(v) for c, v in row.items()})
    assert list(raw.solved) == list(coerced.solved)
    assert raw.solved == coerced.solved
    assert all(0 < v < p for sol in raw.solved.values() for v in sol.values())
    for row in probes:
        assert raw.reduce(row) == coerced.reduce({c: F.coerce(v) for c, v in row.items()})


def test_echelon_insert_reports_growth():
    ech = Echelon(Q)
    assert ech.insert({0: Fraction(1), 1: Fraction(2)})
    assert not ech.insert({0: Fraction(2), 1: Fraction(4)})
    assert ech.insert({1: Fraction(1)})
    assert ech.rank == 2
    assert ech.contains({0: Fraction(3), 1: Fraction(-1)})


def _value(field, a, b):
    """a + b sqrt(3) in Q(sqrt:3), a + 2b in the other fields."""
    g = sqrt_in_field(field, 3).raw if field is QS3 else field.coerce(2)
    return field.add(field.coerce(a), field.mul(field.coerce(b), g))


_pairs = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
_sparse = st.dictionaries(st.integers(0, 5), _pairs, max_size=6)


@settings(max_examples=300)
@given(
    st.sampled_from([Q, F7, QS3]),
    _sparse,
    st.one_of(st.just((0, 0)), _pairs),
    _sparse,
    st.booleans(),
)
def test_axpy_matches_a_dense_reference(field, dst, c, src, cancel):
    """dst += c * src entrywise; what src touches stays only if nonzero, zeros included."""
    dst = {k: _value(field, *v) for k, v in dst.items()}
    src = {k: _value(field, *v) for k, v in src.items()}
    c = _value(field, *c)
    if cancel:  # make dst = -c * src on src's support, so every entry cancels
        dst.update({k: field.neg(field.mul(c, v)) for k, v in src.items()})
    zero = field.zero_raw()
    out = dict(dst)
    assert axpy(out, c, src, field) is out
    for k in range(6):
        want = field.add(dst.get(k, zero), field.mul(c, src.get(k, zero)))
        if k in src:
            assert (k in out) == (not field.is_zero(want))
            assert out.get(k, zero) == want
        else:
            assert out.get(k) == dst.get(k)
    if cancel:
        assert not set(out) & set(src)


F61 = PrimeField((1 << 61) - 1)


@settings(max_examples=300)
@given(
    st.sampled_from([Q, F7, F61, QS3]),
    st.lists(st.tuples(st.dictionaries(st.integers(0, 5), _pairs, max_size=3), st.booleans())),
)
def test_echelon_skips_rows_on_forced_zero_columns(field, specs):
    """`zero` is the set of pivots with an empty solution; a row on those columns
    alone is skipped, reduces to {}, and the solved form and its pivot order are
    those of a loop that reduces every row.  A spec flagged True is moved onto
    the zero columns known so far."""
    ech, ref = Echelon(field), Echelon(field)
    for spec, on_zero in specs:
        row = {c: _value(field, *v) for c, v in spec.items()}
        if on_zero and ech.zero:
            zs = sorted(ech.zero)
            row = {zs[c % len(zs)]: v for c, v in row.items()}
        skipped = ech.zero.issuperset(row)
        grew = ech.insert(row)
        if skipped:
            assert not grew and ech.reduce(row) == {} and ech.contains(row)
        assert grew == (bool(ref.reduce(row)) and ref.insert(row))
        assert ech.zero == {p for p, sol in ech.solved.items() if not sol}
    assert list(ech.solved) == list(ref.solved)
    assert ech.solved == ref.solved


def test_echelon_rows_stay_fully_reduced():
    rng = random.Random(3)
    ech = Echelon(Q)
    for row in _random_rows(rng, 20, 10):
        ech.insert(row)
    for p, sol in ech.solved.items():
        assert p not in sol
        for c, v in sol.items():
            assert v != 0
            assert c not in ech.solved


@settings(max_examples=50)
@given(st.lists(st.integers(-9, 9), min_size=4, max_size=4))
def test_in_span_closed_under_combination(coeffs):
    v1 = {0: Fraction(1), 2: Fraction(3)}
    v2 = {1: Fraction(2), 3: Fraction(-1)}
    combo = {}
    for vec, c in ((v1, coeffs[0]), (v2, coeffs[1])):
        for k, v in vec.items():
            combo[k] = combo.get(k, Fraction(0)) + c * v
    span = Echelon(Q)
    span.insert(v1)
    span.insert(v2)
    assert span.contains({k: v for k, v in combo.items() if v})


def test_reduce_gives_the_residual_in_every_field():
    """One pass leaves no pivot column, and the residual is row + sum row[p] * solved[p]."""
    rng = random.Random(4)
    cases = [
        (Q, lambda v: Q.coerce(v.numerator)),
        (F7, lambda v: F7.coerce(v.numerator)),
        (QS3, lambda v: _value(QS3, v.numerator, rng.randint(-2, 2))),
        (F7, lambda v: v.numerator + 7 * rng.randint(-2, 2)),  # unreduced integers
    ]
    for field, entry in cases:
        ech = Echelon(field)
        for row in _random_rows(rng, 6, 10):
            ech.insert({c: entry(v) for c, v in row.items()})
        for row in _random_rows(rng, 10, 10):
            row = {c: entry(v) for c, v in row.items()}
            res = ech.reduce(row)
            assert not set(res) & set(ech.solved)
            # adding zero reduces an unreduced integer to its residue
            zero = field.zero_raw()
            expect = {c: field.add(zero, v) for c, v in row.items() if c not in ech.solved}
            for p in set(row) & set(ech.solved):
                for c, v in ech.solved[p].items():
                    expect[c] = field.add(expect.get(c, zero), field.mul(row[p], v))
            assert res == {c: v for c, v in expect.items() if not field.is_zero(v)}


P61 = 2**61 - 1


@given(st.integers(-(10**9), 10**9), st.integers(1, 10**9))
def test_rational_lift_recovers_small_fractions(num, den):
    q = Fraction(num, den)
    image = q.numerator * pow(q.denominator, -1, P61) % P61
    assert rational_lift(image, P61) == q


def test_rational_lift_refuses_beyond_the_bound():
    assert rational_lift(0, P61) == 0
    assert rational_lift(P61 - 1, P61) == -1
    big = Fraction(2**40 + 1, 3)  # numerator above sqrt(p/2), about 2^30
    assert rational_lift(big.numerator * pow(3, -1, P61) % P61, P61) != big
    # a residue with no fraction of both parts within the bound
    assert rational_lift(1234567890123456789, P61) is None
