"""Matsuo algebras: construction, multiplication, axes and the fusion law.

`IntegerForm` writes sparse tables and vectors with integer coordinates, for
the exact checks of maps (multiplicativity, the Leibniz rule) in Python ints.
"""

from __future__ import annotations

import math
from functools import cached_property

from .fields import Field, QuadraticExtension
from .fischer import FischerSpace
from .linalg import Echelon, axpy


class AlgebraError(Exception):
    pass


class BadEta(AlgebraError):
    pass


class BadCharacteristic(AlgebraError):
    pass


class NotSemisimple(AlgebraError):
    """The closed-form eigenbasis of an axis, read off the lines through it, is not
    an eigenbasis of L_a: the table is not the Matsuo table at that axis."""


class AutosError(Exception):
    """An automorphism construction of `autos` failed; named here so that callers
    can catch it without importing `autos`."""


class SparseAlgebra:
    """Commutative algebra given by a sparse structure-constant table.

    Elements are sparse coordinate dicts {basis index: raw field value};
    `products[(i, j)]` with i <= j holds the nonzero basis products.
    """

    field: Field
    dim: int
    products: dict

    def basis_product(self, i: int, j: int) -> dict:
        return self.products.get((i, j) if i <= j else (j, i), {})

    def multiply(self, x: dict, y: dict) -> dict:
        F = self.field
        out: dict = {}
        for i, xi in x.items():
            for j, yj in y.items():
                prod = self.basis_product(i, j)
                if prod:
                    axpy(out, F.mul(xi, yj), prod, F)
        return out

    def scale(self, c, x: dict) -> dict:
        F = self.field
        if F.is_zero(c):
            return {}
        return {i: F.mul(c, v) for i, v in x.items()}

    def sub(self, x: dict, y: dict) -> dict:
        F = self.field
        return axpy(dict(x), F.neg(F.one_raw()), y, F)

    @cached_property
    def integer_table(self) -> tuple[int, dict]:
        """(scale, table): the table in the `IntegerForm` of its own denominators, built
        on first use and kept: `products` must not change after that."""
        form = IntegerForm(self.field, self.products.values())
        return form.scale, form.table(self.products)


class IntegerForm:
    """Sparse vectors over a field in integer coordinates, and products in them.

    A vector is a pair (r, s) of int dicts, the rational and the sqrt part, with
    v = (r + s sqrt(d')) / scale; s is empty off a quadratic extension.  Over
    k(sqrt(n/m)), d' = nm and the sqrt part is divided by m, as
    sqrt(n/m) = sqrt(nm) / m.  `scale` is the lcm of the denominators of the
    vectors the form is built from, 1 over F_p, where a coordinate is zero when
    p divides it: a table and a map's columns each have their own scale.  A
    table maps each basis pair i <= j to its product vector.
    """

    def __init__(self, field: Field, vectors):
        if isinstance(field, QuadraticExtension):
            self._m, self.dprime = field.d.denominator, field.d.numerator * field.d.denominator
            self._parts = lambda v: v
        else:
            self._m, self.dprime = 1, 0
            self._parts = lambda v: (v, 0)
        self.characteristic = field.characteristic
        dens = set()
        if not self.characteristic:  # a residue mod p is an int, of denominator 1
            for x in vectors:
                for v in x.values():
                    a, b = self._parts(v)
                    dens.add(a.denominator)
                    if b:
                        dens.add(b.denominator * self._m)
        self.scale = math.lcm(*dens)

    def vector(self, x: dict) -> tuple[dict, dict]:
        """x times `scale`; clearing a denominator is one int product, no Fraction arithmetic."""
        L, m = self.scale, self._m
        r, s = {}, {}
        for k, v in x.items():
            a, b = self._parts(v)
            if a:
                r[k] = a.numerator * (L // a.denominator)
            if b:
                s[k] = b.numerator * (L // (b.denominator * m))
        return r, s

    def table(self, products: dict) -> dict:
        return {ij: self.vector(p) for ij, p in products.items()}

    def add_image(self, acc: tuple, c: int, cols: list, x: tuple) -> None:
        """acc += c * sum_k x_k cols[k]."""
        dp = self.dprime
        for xi, xpart in enumerate(x):
            for k, xk in xpart.items():
                for ci, cpart in enumerate(cols[k]):
                    if cpart:
                        f = c * xk * dp if xi & ci else c * xk
                        out = acc[xi ^ ci]
                        for key, v in cpart.items():
                            out[key] = out.get(key, 0) + f * v

    def add_product(self, acc: tuple, c: int, table: dict, x: tuple, y: tuple) -> None:
        """acc += c * xy, the product under `table`."""
        dp = self.dprime
        for xi, xpart in enumerate(x):
            for yi, ypart in enumerate(y):
                for a, xa in xpart.items():
                    cx = c * xa
                    for b, yb in ypart.items():
                        prod = table.get((a, b) if a <= b else (b, a))
                        if prod is None:
                            continue
                        for ti, row in enumerate(prod):
                            if row:
                                t = xi + yi + ti  # sqrt(d')^t = d'^(t // 2) sqrt(d')^(t % 2)
                                f = cx * yb * dp if t > 1 else cx * yb
                                out = acc[t & 1]
                                for key, v in row.items():
                                    out[key] = out.get(key, 0) + f * v

    def failing_pair(self, dim: int, residual) -> tuple[int, int] | None:
        """The first basis pair (i, j), i <= j, where residual(i, j) is not zero, or None."""
        p = self.characteristic
        for i in range(dim):
            for j in range(i, dim):
                if any(v % p if p else v for part in residual(i, j) for v in part.values()):
                    return (i, j)
        return None


class MatsuoAlgebra(SparseAlgebra):
    """Matsuo algebra on the points of a Fischer space with parameter eta.

    The structure-constant table only stores equal or collinear pairs.
    """

    def __init__(self, fs: FischerSpace, eta, field: Field):
        if field.characteristic == 2:
            raise BadCharacteristic("Matsuo algebras need char k != 2")
        eta = field.coerce(eta)
        if field.is_zero(eta) or eta == field.one_raw():
            raise BadEta("eta must avoid {0, 1}")
        self.fs = fs
        self.field = field
        self.eta = eta
        self.dim = fs.n
        half = field.div(eta, field.coerce(2))
        one, minus_half = field.one_raw(), field.neg(half)
        products = {}
        for i, row in enumerate(fs.third):
            products[(i, i)] = {i: one}
            for j in range(i + 1, fs.n):
                if (k := row[j]) >= 0:
                    products[(i, j)] = {i: half, j: half, k: minus_half}
        self.products = products

    def is_matsuo_table(self) -> bool:
        """Whether `products` is the table of eta and a symmetric `fs.third`, and no
        more: then a permutation that preserves `third` is an automorphism."""
        third, n = self.fs.third, self.dim
        if any(third[i][j] != third[j][i] for i in range(n) for j in range(i)):
            return False
        return self.products == MatsuoAlgebra(self.fs, self.eta, self.field).products

    # -- axes and fusion --------------------------------------------------------

    def eigendecompose(self, a: int) -> dict[str, list[dict]]:
        """The eigenspace bases of L_a, {"1": [e_a], "0": [...], "eta": [...]}, checked exactly.

        Each line {a, b, c} through a, b < c, in order of b, gives e_b - e_c to the
        eta-space and e_b + e_c - eta e_a to the 0-space; then each e_d, d not collinear
        with a, joins the 0-space in order of d.  Once `third[a]` pairs the points collinear
        with a, these n vectors are independent (char k != 2, eta not 0 or 1), so when
        L_a v = lambda v holds for each, L_a is semisimple with these eigenspaces.
        """
        F, row = self.field, self.fs.third[a]
        if any(c >= 0 and (row[c] != b or c in (a, b)) for b, c in enumerate(row) if b != a):
            raise NotSemisimple(f"axis {a}: third[{a}] does not pair the points collinear with it")
        one, minus_eta = F.one_raw(), F.neg(self.eta)
        lines = [(b, c) for b, c in enumerate(row) if b < c and b != a]
        space_eta = [{b: one, c: F.neg(one)} for b, c in lines]
        space_0 = [{b: one, c: one, a: minus_eta} for b, c in lines]
        space_0 += [{d: one} for d, c in enumerate(row) if c < 0 and d != a]
        e_a = {a: one}
        spaces = {"1": [e_a], "0": space_0, "eta": space_eta}
        for label, lam in (("1", one), ("0", F.zero_raw()), ("eta", self.eta)):
            for i, v in enumerate(spaces[label]):
                if self.sub(self.multiply(e_a, v), self.scale(lam, v)):
                    raise NotSemisimple(f"axis {a}: L_a v != {label} v for {label}-vector {i}")
        return spaces

    def check_fusion(self, a: int) -> list[dict]:
        """Violations of the Jordan fusion law at axis a (empty report = pass).

        `pair` (i, j) of law l1*l2: vector i of the l1-space times vector j of the
        l2-space, in the order of `eigendecompose`, leaves the span the law allows.
        """
        F = self.field
        spaces = self.eigendecompose(a)
        allowed = {
            ("1", "1"): ("1",),
            ("1", "0"): (),
            ("1", "eta"): ("eta",),
            ("0", "0"): ("0",),
            ("0", "eta"): ("eta",),
            ("eta", "eta"): ("1", "0"),
        }
        violations = []
        for (l1, l2), targets in allowed.items():
            ech = Echelon(F)
            for t in targets:
                for v in spaces[t]:
                    ech.insert(v)
            for i, u in enumerate(spaces[l1]):
                for j, v in enumerate(spaces[l2]):
                    if not ech.contains(self.multiply(u, v)):
                        violations.append(
                            {"axis": a, "law": f"{l1}*{l2}", "pair": (i, j)}
                        )
        return violations

    # -- serialization -------------------------------------------------------------

    def to_dict(self) -> dict:
        """Field, eta, basis labels and the nonzero products, scalars as strings."""
        F = self.field
        prods = []
        for (i, j), row in sorted(self.products.items()):
            prods.append([i, j, [[k, F.format(v)] for k, v in sorted(row.items())]])
        return {
            "field": repr(F),
            "eta": F.format(self.eta),
            "basis": list(self.fs.labels),
            "products": prods,
        }
