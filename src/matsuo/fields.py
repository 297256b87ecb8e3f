"""Exact scalar arithmetic over Q, prime fields F_p (p odd) and quadratic extensions.

Every algebraic computation in this package runs over one of these fields.
Scalars are raw values (Fraction for Q, int residues for F_p, coefficient
pairs for F(sqrt d)); a field instance does all arithmetic on its own raw
values.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple


class FieldError(Exception):
    pass


class DivisionByZero(FieldError):
    pass


class BadDescriptor(FieldError):
    pass


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 2^64, the bound `PrimeField` enforces."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


class FieldElement(NamedTuple):
    """A raw value paired with its field, as `sqrt_in_field` returns it."""

    field: Field
    raw: object


class Field:
    """Common surface for the three field kinds; subclasses work on raw values."""

    characteristic = 0

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # subclasses: coerce, zero_raw, one_raw, add, sub, mul, neg, inv,
    # is_zero, format, sqrt_raw


class Rationals(Field):
    characteristic = 0

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def zero_raw(self):
        return Fraction(0)

    def one_raw(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("1/0 in Q")
        return 1 / Fraction(a)

    def is_zero(self, a):
        return a == 0

    def format(self, a):
        return str(a)

    def sqrt_raw(self, a):
        if a < 0:
            return None
        n, d = a.numerator, a.denominator
        rn, rd = math.isqrt(n), math.isqrt(d)
        if rn * rn == n and rd * rd == d:
            return Fraction(rn, rd)
        return None

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    def __init__(self, p: int):
        if p == 2:
            raise BadDescriptor("characteristic 2 is not supported")
        if p >= 1 << 64:
            raise BadDescriptor(f"{p} is not below 2^64, where primality is decided")
        if not _is_prime(p):
            raise BadDescriptor(f"{p} is not prime")
        self.p = p
        self.characteristic = p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            return self.div(x.numerator % self.p, x.denominator % self.p)
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    def zero_raw(self):
        return 0

    def one_raw(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero(f"1/0 in F_{self.p}")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def format(self, a):
        return str(a % self.p)

    def sqrt_raw(self, a):
        a %= self.p
        if a == 0:
            return 0
        if pow(a, (self.p - 1) // 2, self.p) != 1:
            return None
        return _tonelli_shanks(a, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F{self.p}"


def _tonelli_shanks(a: int, p: int) -> int:
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


class QuadraticExtension(Field):
    """F(sqrt d) for d a nonsquare of the base field; raw values are (a, b) pairs."""

    def __init__(self, base: Field, d):
        if isinstance(base, QuadraticExtension):
            raise BadDescriptor("towers of quadratic extensions are not supported")
        d = base.coerce(d)
        if base.is_zero(d):
            raise BadDescriptor("sqrt(0) does not extend the field")
        if base.sqrt_raw(d) is not None:
            raise BadDescriptor(
                f"{base.format(d)} is already a square in {base}; drop the extension"
            )
        self.base = base
        self.d = d
        self.characteristic = base.characteristic

    def coerce(self, x):
        if isinstance(x, tuple) and len(x) == 2:
            return (self.base.coerce(x[0]), self.base.coerce(x[1]))
        return (self.base.coerce(x), self.base.zero_raw())

    def zero_raw(self):
        z = self.base.zero_raw()
        return (z, z)

    def one_raw(self):
        return (self.base.one_raw(), self.base.zero_raw())

    def add(self, a, b):
        return (self.base.add(a[0], b[0]), self.base.add(a[1], b[1]))

    def sub(self, a, b):
        return (self.base.sub(a[0], b[0]), self.base.sub(a[1], b[1]))

    def mul(self, a, b):
        F = self.base
        # a raw zero (Fraction(0), residue 0) is falsy; then two base products suffice
        if not a[1]:
            return (F.mul(a[0], b[0]), F.mul(a[0], b[1]))
        if not b[1]:
            return (F.mul(a[0], b[0]), F.mul(a[1], b[0]))
        return (
            F.add(F.mul(a[0], b[0]), F.mul(self.d, F.mul(a[1], b[1]))),
            F.add(F.mul(a[0], b[1]), F.mul(a[1], b[0])),
        )

    def neg(self, a):
        return (self.base.neg(a[0]), self.base.neg(a[1]))

    def inv(self, a):
        F = self.base
        # norm a0^2 - d*a1^2 vanishes only at 0 since d is a nonsquare
        n = F.sub(F.mul(a[0], a[0]), F.mul(self.d, F.mul(a[1], a[1])))
        if F.is_zero(n):
            raise DivisionByZero(f"1/0 in {self}")
        ninv = F.inv(n)
        return (F.mul(a[0], ninv), F.neg(F.mul(a[1], ninv)))

    def is_zero(self, a):
        return self.base.is_zero(a[0]) and self.base.is_zero(a[1])

    def format(self, a):
        dtag = self.base.format(self.d)
        return f"{self.base.format(a[0])}+{self.base.format(a[1])}*sqrt{dtag}"

    def sqrt_raw(self, v):
        v = self.coerce(v)
        F = self.base
        a, b = v
        half = F.inv(F.coerce(2))
        if F.is_zero(b):
            r = F.sqrt_raw(a)
            if r is not None:
                return (r, F.zero_raw())
            r = F.sqrt_raw(F.div(a, self.d))
            if r is not None:
                return (F.zero_raw(), r)
            return None
        disc = F.sub(F.mul(a, a), F.mul(self.d, F.mul(b, b)))
        s = F.sqrt_raw(disc)
        if s is None:
            return None
        for sign in (s, F.neg(s)):
            x2 = F.mul(F.add(a, sign), half)
            x = F.sqrt_raw(x2)
            if x is not None and not F.is_zero(x):
                y = F.div(F.mul(b, half), x)
                return (x, y)
        return None

    def __eq__(self, other):
        return (
            isinstance(other, QuadraticExtension)
            and other.base == self.base
            and other.d == self.d
        )

    def __hash__(self):
        return hash(("ext", self.base, self.d))

    def __repr__(self):
        return f"{self.base}(sqrt{self.base.format(self.d)})"


def sqrt_in_field(field: Field, d) -> FieldElement | None:
    """A square root of d in the field, or None if d is not a square there."""
    raw = field.sqrt_raw(field.coerce(d))
    if raw is None:
        return None
    return FieldElement(field, raw)


_DESC_RE = re.compile(r"^(Q|F(?:p:)?(\d+))(\(sqrt:(-?\d+(?:/\d+)?)\))?$")


def parse_field(desc: str) -> Field:
    """Parse a field descriptor: Q, Fp:<p> (or F<p>), Q(sqrt:<d>), Fp:<p>(sqrt:<d>)."""
    m = _DESC_RE.match(desc.strip())
    if not m:
        raise BadDescriptor(f"cannot parse field descriptor {desc!r}")
    base: Field = Rationals() if m.group(1) == "Q" else PrimeField(int(m.group(2)))
    if m.group(3) is None:
        return base
    d = Fraction(m.group(4))
    return QuadraticExtension(base, d)


def field_name(field: Field) -> str:
    """Canonical descriptor string for a field instance."""
    if isinstance(field, Rationals):
        return "Q"
    if isinstance(field, PrimeField):
        return f"Fp:{field.p}"
    if isinstance(field, QuadraticExtension):
        return f"{field_name(field.base)}(sqrt:{field.base.format(field.d)})"
    raise TypeError(field)
