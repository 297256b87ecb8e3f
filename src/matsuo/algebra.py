"""Matsuo algebras: construction, multiplication, axes and the fusion law."""

from __future__ import annotations

from .fields import Field, field_name
from .fischer import FischerSpace
from .linalg import Echelon, axpy, nullspace


class AlgebraError(Exception):
    pass


class BadEta(AlgebraError):
    pass


class BadCharacteristic(AlgebraError):
    pass


class NotSemisimple(AlgebraError):
    """Eigenspace dimensions of an axis do not add up to dim A."""


class Eigendecomp:
    """Eigenspace bases of the left multiplication by an axis: 1, 0 and eta parts."""

    def __init__(self, axis, space_1, space_0, space_eta):
        self.axis = axis
        self.space_1 = space_1
        self.space_0 = space_0
        self.space_eta = space_eta

    @property
    def dims(self) -> tuple[int, int, int]:
        return (len(self.space_1), len(self.space_0), len(self.space_eta))


class SparseAlgebra:
    """Commutative algebra given by a sparse structure-constant table.

    Elements are sparse coordinate dicts {basis index: raw field value};
    `products[(i, j)]` with i <= j holds the nonzero basis products.
    """

    field: Field
    dim: int
    products: dict

    def basis_element(self, i: int) -> dict:
        return {i: self.field.one_raw()}

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
        F = field
        half_eta = F.div(eta, F.coerce(2))
        products = {}
        for i in range(fs.n):
            products[(i, i)] = {i: F.one_raw()}
            for j in range(i + 1, fs.n):
                k = fs.third[i][j]
                if k >= 0:
                    row = {i: half_eta, j: half_eta, k: F.neg(half_eta)}
                    products[(i, j)] = row
        self.products = products

    # -- axes and fusion --------------------------------------------------------

    def mult_matrix(self, a: int) -> list[dict]:
        """Rows of L_a: row[c] maps basis j to coefficient of c in a*e_j."""
        rows: dict[int, dict] = {}
        for j in range(self.dim):
            for c, v in self.basis_product(a, j).items():
                rows.setdefault(c, {})[j] = v
        return [rows.get(c, {}) for c in range(self.dim)]

    def eigendecompose(self, a: int) -> Eigendecomp:
        F = self.field
        rows = self.mult_matrix(a)

        def shifted(lam):
            out = [axpy(dict(rows[c]), F.neg(lam), {c: F.one_raw()}, F) for c in range(self.dim)]
            return [r for r in out if r]

        ker0 = nullspace(shifted(F.zero_raw()), self.dim, F)
        ker_eta = nullspace(shifted(self.eta), self.dim, F)
        ker1 = nullspace(shifted(F.one_raw()), self.dim, F)
        if len(ker1) != 1:
            raise NotSemisimple(f"1-eigenspace of axis {a} has dimension {len(ker1)}")
        if 1 + len(ker0) + len(ker_eta) != self.dim:
            raise NotSemisimple(
                f"axis {a}: eigenspace dims 1+{len(ker0)}+{len(ker_eta)} != {self.dim}"
            )
        return Eigendecomp(a, ker1, ker0, ker_eta)

    def check_fusion(self, a: int) -> list[dict]:
        """Violations of the Jordan fusion law at axis a (empty report = pass)."""
        F = self.field
        dec = self.eigendecompose(a)
        spaces = {
            "1": dec.space_1,
            "0": dec.space_0,
            "eta": dec.space_eta,
        }
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
            "field": field_name(F),
            "eta": F.format(self.eta),
            "basis": list(self.fs.labels),
            "products": prods,
        }
