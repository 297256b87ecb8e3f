"""Field arithmetic: axioms, square roots, descriptor parsing."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from matsuo.fields import (
    BadDescriptor,
    DivisionByZero,
    FieldElement,
    PrimeField,
    QuadraticExtension,
    Rationals,
    field_name,
    parse_field,
    sqrt_in_field,
)

Q = Rationals()
F7 = PrimeField(7)
F13 = PrimeField(13)
QS3 = QuadraticExtension(Q, 3)

FIELDS = [Q, F7, F13, QS3, QuadraticExtension(F7, 3)]

# denominators coprime to 7 and 13 so every value coerces into each field
rationals = st.builds(
    Fraction,
    st.integers(-1000, 1000),
    st.integers(1, 50).filter(lambda d: d % 7 and d % 13),
)


@given(rationals, rationals, rationals)
def test_field_axioms_hold_everywhere(a, b, c):
    for F in FIELDS:
        x, y, z = (F.coerce(v) for v in (a, b, c))
        assert F.add(F.add(x, y), z) == F.add(x, F.add(y, z))
        assert F.add(x, y) == F.add(y, x)
        assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
        assert F.mul(x, y) == F.mul(y, x)
        assert F.add(x, F.zero_raw()) == x
        assert F.mul(x, F.one_raw()) == x
        assert F.sub(x, x) == F.zero_raw()
        if not F.is_zero(y):
            assert F.mul(F.div(x, y), y) == x


@given(rationals)
def test_inverse_roundtrip(a):
    for F in FIELDS:
        x = F.coerce(a)
        if F.is_zero(x):
            with pytest.raises(DivisionByZero):
                F.inv(x)
        else:
            assert F.mul(x, F.inv(x)) == F.one_raw()


def test_rational_inverse_of_an_int_stays_exact():
    assert Q.inv(3) == Fraction(1, 3) and isinstance(Q.inv(3), Fraction)
    assert Q.div(Fraction(1), 3) == Fraction(1, 3) and isinstance(Q.div(Fraction(1), 3), Fraction)


@pytest.mark.parametrize("p", [13, (1 << 61) - 1])
def test_prime_field_inverse_agrees_with_fermat(p):
    F = PrimeField(p)
    rng = random.Random(p)
    for _ in range(200):
        a = rng.randrange(1, p)
        assert F.inv(a) == pow(a, p - 2, p)
        # an unreduced representative, negative ones included, has the same inverse
        assert F.inv(a + p * rng.randrange(-3, 4)) == pow(a, p - 2, p)
    for z in (0, p, -p, 7 * p):
        with pytest.raises(DivisionByZero):
            F.inv(z)


def test_prime_field_rejects_two_and_composites():
    with pytest.raises(BadDescriptor):
        PrimeField(2)
    with pytest.raises(BadDescriptor):
        PrimeField(91)  # 7 * 13


def test_prime_field_bounds_moduli_to_64_bits():
    # psi_12: a strong pseudoprime to each of the first 12 prime bases
    psi12 = 399165290221 * 798330580441
    assert psi12 == 318665857834031151167461
    with pytest.raises(BadDescriptor):
        PrimeField(psi12)
    with pytest.raises(BadDescriptor):
        parse_field(f"F{psi12}")
    assert parse_field("F2305843009213693951") == PrimeField(2**61 - 1)
    with pytest.raises(BadDescriptor):
        PrimeField((2**61 - 1) * 7)


def test_sqrt_in_prime_field():
    # squares mod 13: 1 3 4 9 10 12
    r = sqrt_in_field(F13, 3)
    assert r is not None and r.field == F13 and F13.mul(r.raw, r.raw) == F13.coerce(3)
    assert sqrt_in_field(F13, 2) is None
    assert sqrt_in_field(F7, 2) is not None  # 3^2 = 2 mod 7


def test_sqrt_in_rationals():
    assert sqrt_in_field(Q, Fraction(9, 4)) == FieldElement(Q, Fraction(3, 2))
    assert sqrt_in_field(Q, 3) is None
    assert sqrt_in_field(Q, -1) is None


def test_field_element_is_a_value():
    a, b = FieldElement(F13, 4), FieldElement(PrimeField(13), 4)
    assert a == b and hash(a) == hash(b)
    assert a != FieldElement(F13, 5) and a != FieldElement(F7, 4)
    for attr in ("raw", "other"):
        with pytest.raises(AttributeError):
            setattr(a, attr, 5)


def test_sqrt_in_quadratic_extension():
    s = sqrt_in_field(QS3, 3)
    assert s is not None and QS3.mul(s.raw, s.raw) == QS3.coerce(3)
    # 7 + 4*sqrt(3) = (2 + sqrt(3))^2
    v = QS3.coerce((7, 4))
    r = sqrt_in_field(QS3, v)
    assert r is not None and QS3.mul(r.raw, r.raw) == v


def test_extension_rejects_square_discriminant():
    with pytest.raises(BadDescriptor):
        QuadraticExtension(Q, 4)
    with pytest.raises(BadDescriptor):
        QuadraticExtension(QS3, 5)  # no towers


@given(rationals, rationals, rationals, rationals)
def test_extension_norm_multiplicative(a, b, c, d):
    x, y = QS3.coerce((a, b)), QS3.coerce((c, d))

    def norm(v):
        return v[0] * v[0] - 3 * v[1] * v[1]

    assert norm(QS3.mul(x, y)) == norm(x) * norm(y)


@given(rationals, rationals, rationals, rationals, st.sampled_from(["x", "y", "both", "neither"]))
def test_extension_mul_matches_the_formula(a0, a1, b0, b1, rational):
    # zero sqrt-d parts on either side, on both sides, or on neither
    a1 = 0 if rational in ("x", "both") else a1
    b1 = 0 if rational in ("y", "both") else b1
    for K in (QS3, QuadraticExtension(F7, 3)):
        x, y = K.coerce((a0, a1)), K.coerce((b0, b1))
        got = K.mul(x, y)
        assert got == K.coerce((a0 * b0 + 3 * a1 * b1, a0 * b1 + a1 * b0))
        if K.base == Q:
            assert all(type(v) is Fraction for v in got)
        else:
            assert all(type(v) is int and 0 <= v < 7 for v in got)


@pytest.mark.parametrize(
    "desc",
    ["Q", "Fp:7", "F7", "Fp:13", "Q(sqrt:3)", "Q(sqrt:-1)", "Fp:7(sqrt:3)", "Q(sqrt:1/2)"],
)
def test_parse_field_roundtrip(desc):
    f = parse_field(desc)
    assert parse_field(field_name(f)) == f


@pytest.mark.parametrize("desc", ["", "R", "Fp:4", "Fp:2", "Q(sqrt:4)", "Q(sqrt)", "F"])
def test_parse_field_rejects_bad_descriptors(desc):
    with pytest.raises(BadDescriptor):
        parse_field(desc)


def test_tonelli_shanks_across_residue_classes():
    # exercise both the p = 3 mod 4 shortcut and the general loop
    for p in (7, 11, 13, 17, 29, 101):
        f = PrimeField(p)
        for a in range(1, p):
            r = sqrt_in_field(f, a)
            if pow(a, (p - 1) // 2, p) == 1:
                assert r is not None and f.mul(r.raw, r.raw) == a
            else:
                assert r is None
