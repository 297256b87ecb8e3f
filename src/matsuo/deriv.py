"""Derivation Lie algebras of Matsuo algebras.

Two routes to the same nullspace: the generic Leibniz linearisation (any
eta), and the sparse relation system specific to eta = 1/2.  Unknowns are
the coefficients d(a)_b, indexed column-major as a * dim + b (a the argument
point, b the image coordinate).

Over Q both systems are built once, as integer rows: the (R1)-(R7) rows are
integral, and the Leibniz rows come from the structure constants with their
denominators cleared.  Those rows are solved modulo the prime MODULUS, and
the lifted basis is certified against the same rows in Python ints, with the
solve over Q of the same rows as the fallback (see `_lifted_basis`).
`satisfies_r_system` runs the same row check (`_orthogonal`) over every field.
"""

from __future__ import annotations

from collections import defaultdict

from . import linalg  # nullspace is looked up per call, so a wrapper set on it later is seen
from .algebra import BadEta, IntegerForm, MatsuoAlgebra, SparseAlgebra
from .fields import DivisionByZero, PrimeField, Rationals
from .linalg import axpy, rank, rational_lift

MODULUS = (1 << 61) - 1  # the prime over which systems over Q are solved


class LinearEndo:
    """Basis-indexed linear self map; cols[a] = sparse image of basis point a."""

    def __init__(self, dim: int, cols: list[dict]):
        self.dim = dim
        self.cols = cols

    @classmethod
    def from_vector(cls, dim: int, vec: dict) -> "LinearEndo":
        cols = [{} for _ in range(dim)]
        for u, v in vec.items():
            cols[u // dim][u % dim] = v
        return cls(dim, cols)

    def to_vector(self) -> dict:
        return {
            a * self.dim + b: v for a, col in enumerate(self.cols) for b, v in col.items()
        }

    def entry(self, a: int, b: int):
        """Coefficient d(a)_b."""
        return self.cols[a].get(b)

    def apply(self, A, x: dict) -> dict:
        """The image of x; A is any algebra over the field of the images."""
        out: dict = {}
        for a, xa in x.items():
            axpy(out, xa, self.cols[a], A.field)
        return out

    def compose(self, A: MatsuoAlgebra, other: "LinearEndo") -> "LinearEndo":
        """self after other."""
        return LinearEndo(self.dim, [self.apply(A, col) for col in other.cols])


def is_derivation(A: SparseAlgebra, d: LinearEndo) -> bool:
    """Whether d(e_i e_j) = d(e_i) e_j + e_i d(e_j) on every basis pair, checked in Python ints.

    With the table times T (`A.integer_table`) and the images of d times S, each
    side comes out times T S.
    """
    _, table = A.integer_table
    form = IntegerForm(A.field, d.cols)
    cols = [form.vector(c) for c in d.cols]

    def residual(i, j):
        acc = ({}, {})
        if (i, j) in table:
            form.add_image(acc, 1, cols, table[(i, j)])
        form.add_product(acc, -1, table, cols[i], ({j: 1}, {}))
        form.add_product(acc, -1, table, ({i: 1}, {}), cols[j])
        return acc

    return form.failing_pair(A.dim, residual) is None


def build_leibniz_system(A: SparseAlgebra, products: dict | None = None) -> list[dict]:
    """Linear constraints on the unknowns d(a)_b equivalent to the Leibniz rule.

    `products` is the table read, A's by default.  Only the field's add, neg and
    is_zero are used, so a table of ints over Q gives integer rows.
    """
    F, n = A.field, A.dim
    add, neg, is_zero = F.add, F.neg, F.is_zero
    # index[i][j] is the product of i and j: the table's own dict, or one shared empty one
    index = [[{}] * n for _ in range(n)]
    for (i, j), p in (A.products if products is None else products).items():
        index[i][j] = index[j][i] = p
    rows = []
    for a in range(n):
        Pa, ua = index[a], range(a * n, a * n + n)
        for b in range(a, n):
            Pb, ub = index[b], range(b * n, b * n + n)
            # byc[c] is coordinate c of d(a)b + a d(b) - d(ab), in the order c first occurs:
            #   sum_y (y*b)_c u[a,y] + sum_y (a*y)_c u[b,y] - sum_x (ab)_x u[x,c]
            # the two sums name disjoint unknowns unless a = b, where they coincide
            byc: defaultdict = defaultdict(dict)
            if a == b:
                for uay, pyb in zip(ua, Pb):
                    for c, v in pyb.items():
                        byc[c][uay] = add(v, v)
            else:
                for uay, uby, pyb, pay in zip(ua, ub, Pb, Pa):
                    for c, v in pyb.items():
                        byc[c][uay] = v
                    for c, v in pay.items():
                        byc[c][uby] = v
            # -d(ab): u[x,c] is already present only for x in (a, b), at y = c
            for x, w in Pa[b].items():
                w = neg(w)
                for c, u in enumerate(range(x * n, x * n + n)):
                    row = byc[c]
                    v = add(row[u], w) if u in row else w
                    if is_zero(v):
                        del row[u]
                    else:
                        row[u] = v
            rows.extend(r for r in byc.values() if r)
    return rows


def r_relations(fs):
    """The seven relation families characterising derivations at eta = 1/2.

    Yields integer rows {unknown: coefficient}, each coefficient +-1 or 2,
    so nonzero in every odd characteristic.  No row names an unknown twice:
    (R5)-(R7) draw on the distinct images of a, b and a^b, and in (R4)
    c^a^b = c would put b on the line through c and a.  The coefficient 2
    occurs in (R7) rows only.  Each row is yielded once: (R2) at (a, b) and
    (a, b^a), (R4) at c and c^a^b, and (R6) at (a, b) and (b, a) are one row,
    kept where b < b^a, c < c^a^b and a < b, as a loop over all points meets it.
    """
    n = fs.n
    third = fs.third  # symmetric, and -1 on the diagonal
    nbrs = [sorted(adj) for adj in fs.adjacency]  # the loops walk these, not all n points

    for a, row_a in enumerate(third):
        yield {a * n + a: 1}  # (R1)
        for b, ba in enumerate(row_a):
            if ba < 0 and b != a:
                yield {a * n + b: 1}  # (R3)
            elif b < ba:
                yield {a * n + b: 1, a * n + ba: 1}  # (R2)

    for a, row_a in enumerate(third):
        for b in range(a + 1, n):
            if row_a[b] >= 0:
                continue
            row_b = third[b]  # (R4): a perp b, c a common neighbour
            for c in nbrs[a]:
                if row_b[c] >= 0 and c < (cab := row_b[row_a[c]]):
                    yield {a * n + c: 1, b * n + c: 1, a * n + cab: 1, b * n + cab: 1}

    for a, row_a in enumerate(third):
        for b in nbrs[a]:
            ab, row_b = row_a[b], third[b]
            # (R5): d(a^b)_e = d(a)_e + d(b)_{e^a} for a noncommuting with b, e and b perp e
            for e in nbrs[a]:
                if e != b and row_b[e] < 0:
                    yield {ab * n + e: 1, a * n + e: -1, b * n + row_a[e]: -1}
            # (R6): e noncommuting with a, b and a^b
            if a < b:
                for e in nbrs[a]:
                    if row_b[e] >= 0 and third[ab][e] >= 0:
                        yield {ab * n + e: 1, a * n + row_b[e]: -1, b * n + row_a[e]: -1}
            # (R7): 2 d(b)_a + d(a)_b + d(a^b)_a - sum_{a perp e, b noncommuting e} d(b)_e
            row = {b * n + a: 2, a * n + b: 1, ab * n + a: 1}
            for e in nbrs[b]:
                if e != a and row_a[e] < 0:  # e commutes with a, e != a
                    row[b * n + e] = -1
            yield row


def require_eta_half(A: MatsuoAlgebra) -> None:
    """Raise BadEta unless A has eta = 1/2, where (R1)-(R7) apply."""
    F = A.field
    if A.eta != F.div(F.one_raw(), F.coerce(2)):
        raise BadEta("the relation system is specific to eta = 1/2")


def build_r_system(A: MatsuoAlgebra) -> list[dict]:
    """The rows of `r_relations` over the field of A; over Q and F_p they stay integer rows."""
    require_eta_half(A)
    if isinstance(A.field, (Rationals, PrimeField)):
        return list(r_relations(A.fs))
    coerce = A.field.coerce
    return [{u: coerce(v) for u, v in row.items()} for row in r_relations(A.fs)]


def satisfies_r_system(A: MatsuoAlgebra, d: LinearEndo, rows=None) -> bool:
    """Whether d satisfies (R1)-(R7); over Q or F_p, `rows` may hold `build_r_system(A)`."""
    require_eta_half(A)
    return _orthogonal(r_relations(A.fs) if rows is None else rows, [d.to_vector()], A.field)


def _orthogonal(rows, vectors: list[dict], field) -> bool:
    """Whether each vector over `field` is orthogonal to every integer row, in Python ints.

    Each vector's denominators are cleared once (see `IntegerForm`); over F_p a
    sum is zero mod p, over F(sqrt d) its rational and sqrt parts both vanish.
    A row that meets no vector's support is orthogonal to all of them.
    """
    p = field.characteristic
    parts = [part for x in vectors for part in IntegerForm(field, [x]).vector(x) if part]
    support = set().union(*parts)
    for row in rows:
        if support.isdisjoint(row):
            continue
        for x in parts:
            t = sum(c * x[u] for u, c in row.items() if u in x)
            if t % p if p else t:
                return False
    return True


def nullspace_endos(A: MatsuoAlgebra, rows) -> list[LinearEndo]:
    n = A.dim
    vecs = linalg.nullspace(rows, n * n, A.field)
    return [LinearEndo.from_vector(n, v) for v in vecs]


def _build_system(A: MatsuoAlgebra, system: str) -> list[dict]:
    """The Leibniz or the (R1)-(R7) rows of A; over Q, integer rows."""
    if system == "r":
        return build_r_system(A)
    if isinstance(A.field, Rationals):  # the table times the lcm of its denominators
        return build_leibniz_system(A, {ij: r for ij, (r, _) in A.integer_table[1].items()})
    return build_leibniz_system(A)


def derivation_basis(A: MatsuoAlgebra, system: str = "leibniz", rows=None) -> list[LinearEndo]:
    """Nullspace of the Leibniz or the (R1)-(R7) system, as endomorphisms; `rows`
    may hold `_build_system(A, system)` built once, such as `build_r_system(A)`."""
    if system not in ("leibniz", "r"):
        raise ValueError(f"unknown system {system!r}")
    if rows is None:
        rows = _build_system(A, system)
    if isinstance(A.field, Rationals):
        basis = _lifted_basis(A, rows)
        if basis is not None:
            return basis
    return nullspace_endos(A, rows)


def _lifted_basis(A: MatsuoAlgebra, rows: list[dict]) -> list[LinearEndo] | None:
    """The nullspace over Q of `rows`, found modulo MODULUS and checked exactly, or None.

    `rows` are the integer rows of `_build_system`, which the caller built once
    and solves over Q itself when this returns None.  They are solved over F_p
    as they stand: the eliminator reads unreduced integers.  The nullspace is
    lifted entrywise by rational reconstruction.  The k lifted vectors are
    independent, as each is 1 on its own free column and 0 on the others.  If
    each is orthogonal to every integer row (`_orthogonal`), they span the
    nullspace over Q, since rank_p <= rank_Q bounds nullity_Q by k.
    """
    Fp = PrimeField(MODULUS)
    try:
        eta = Fp.coerce(A.eta)
    except DivisionByZero:  # p divides the denominator of eta
        return None
    if eta in (0, 1):  # the reduction mod p is no Matsuo algebra
        return None
    n = A.dim
    basis = []
    for vec in linalg.nullspace(rows, n * n, Fp):
        lifted = {u: rational_lift(v, MODULUS) for u, v in vec.items()}
        if None in lifted.values():
            return None
        basis.append(lifted)
    if not _orthogonal(rows, basis, A.field):
        return None
    return [LinearEndo.from_vector(n, x) for x in basis]


def spans_agree(A: MatsuoAlgebra, basis1, basis2) -> bool:
    """Mutual span containment of two endo families (as coefficient vectors)."""
    v1 = [d.to_vector() for d in basis1]
    v2 = [d.to_vector() for d in basis2]
    r = rank(v1 + v2, A.field)
    return rank(v1, A.field) == r == rank(v2, A.field)


def vanishing_report(A: MatsuoAlgebra, basis: list[LinearEndo]) -> dict:
    """For each ordered collinear pair (a, b): is d(a)_b zero across the basis."""
    F = A.field
    report = {}
    for a in range(A.dim):
        for b in range(A.dim):
            if a != b and A.fs.collinear(a, b):
                report[(a, b)] = all(
                    d.entry(a, b) is None or F.is_zero(d.entry(a, b)) for d in basis
                )
    return report
