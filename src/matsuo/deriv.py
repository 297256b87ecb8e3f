"""Derivation Lie algebras of Matsuo algebras.

Two routes to the same nullspace: the generic Leibniz linearisation (any
eta), and the sparse relation system specific to eta = 1/2.  Unknowns are
the coefficients d(a)_b, indexed column-major as a * dim + b (a the argument
point, b the image coordinate).

Both builders order their rows shortest first, as the eliminator feeds them,
and name each unknown by one shared int.  The Leibniz rows are a list; the
(R1)-(R7) rows are streamed afresh for each read, so they are never all held.
Over every field both are integer rows with entries in the prime field k (over
Q the Leibniz rows have the table's denominators cleared), solved over k; over
k(sqrt d) only the basis is coerced into k(sqrt d).  Over Q they are solved
modulo the prime MODULUS at every eta; the lifted basis is certified against
the same rows in Python ints, with the solve over Q as the fallback (see
`_lifted_basis`).  `satisfies_r_system` runs the same check over every field.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache

from . import linalg  # nullspace is looked up per call, so a wrapper set on it later is seen
from .algebra import BadEta, IntegerForm, MatsuoAlgebra, SparseAlgebra
from .fields import PrimeField, Rationals, base_field
from .linalg import axpy, rank, rational_lift

MODULUS = (1 << 61) - 1  # the prime over which systems over Q are solved
# The Leibniz builder makes at most n rows, one per coordinate, for each of the n(n+1)/2
# pairs a <= b.  A row costs about 280 bytes (3W:D4, W:E7 and 3W:E6 over Q, by tracemalloc),
# so the cap holds about 2.2 GB: above the bound for 3W:E7 (3.4 M), below 3W:E8's (23.4 M).
LEIBNIZ_ROW_CAP = 8_000_000


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


@lru_cache(maxsize=1)
def _unknowns(n: int) -> list[list[int]]:
    """u[a][b] is the unknown a * n + b: one int object each, shared by every row naming it."""
    return [list(range(a * n, a * n + n)) for a in range(n)]


class Rows:
    """A re-iterable row source: each pass calls `make` afresh, so no pass holds the rows."""

    def __init__(self, make):
        self._make = make

    def __iter__(self):
        return self._make()

    def __len__(self):  # a counting pass
        return sum(1 for _ in self._make())


def build_leibniz_system(A: SparseAlgebra) -> list[dict]:
    """Linear constraints on the unknowns d(a)_b equivalent to the Leibniz rule, shortest first.

    Integer rows over every field, read off A's own table: its residues over F_p,
    the rational parts of `A.integer_table` over Q and k(sqrt d).  Over F_p and
    F_p(sqrt d) each entry is a reduced residue.  BadEta if a product is outside k.
    """
    n, p = A.dim, A.field.characteristic
    u = _unknowns(n)
    # index[i][j] is the product of i and j, in ints, or one shared empty dict
    index = [[{}] * n for _ in range(n)]
    residues = isinstance(A.field, PrimeField)  # then an integer copy would cost memory
    for (i, j), prod in (A.products if residues else A.integer_table[1]).items():
        if not residues:
            prod, sqrt_part = prod
            if sqrt_part:
                raise BadEta(f"a product lies outside {base_field(A.field)}, where Der is solved")
        index[i][j] = index[j][i] = prod
    rows = []
    for a in range(n):
        Pa, ua = index[a], u[a]
        for b in range(a, n):
            Pb, ub = index[b], u[b]
            # byc[c] is coordinate c of d(a)b + a d(b) - d(ab), in the order c first occurs:
            #   sum_y (y*b)_c u[a,y] + sum_y (a*y)_c u[b,y] - sum_x (ab)_x u[x,c]
            # the two sums name disjoint unknowns unless a = b, where they coincide
            byc: defaultdict = defaultdict(dict)
            if a == b:
                for uay, pyb in zip(ua, Pb):
                    for c, v in pyb.items():
                        byc[c][uay] = (v + v) % p if p else v + v
            else:
                for uay, uby, pyb, pay in zip(ua, ub, Pb, Pa):
                    for c, v in pyb.items():
                        byc[c][uay] = v
                    for c, v in pay.items():
                        byc[c][uby] = v
            # -d(ab): u[x,c] is already present only for x in (a, b), at y = c
            for x, w in Pa[b].items():
                w = -w % p if p else -w
                for c, uxc in enumerate(u[x]):
                    row = byc[c]
                    if uxc not in row:
                        row[uxc] = w
                    elif v := (row[uxc] + w) % p if p else row[uxc] + w:
                        row[uxc] = v
                    else:
                        del row[uxc]
            rows.extend(r for r in byc.values() if r)
    rows.sort(key=len)  # stable, and in place: the eliminator feeds rows in the order given
    return rows


def r_relations(fs):
    """The seven relation families characterising derivations at eta = 1/2, shortest first.

    Yields integer rows {unknown: coefficient}, each coefficient +-1 or 2,
    so nonzero in every odd characteristic.  No row names an unknown twice:
    (R5)-(R7) draw on the distinct images of a, b and a^b, and in (R4)
    c^a^b = c would put b on the line through c and a.  The coefficient 2
    occurs in (R7) rows only.  Each row is yielded once: (R2) at (a, b) and
    (a, b^a), (R4) at c and c^a^b, and (R6) at (a, b) and (b, a) are one row,
    kept where b < b^a, c < c^a^b and a < b, as a loop over all points meets it.

    The order is the stable sort by length of (R1)-(R3), (R4), then (R5)-(R7)
    for each (a, b) in turn, made without holding the rows: one pass per length
    over the loops that hold it, (R4) before the (R7) rows of length 4.
    """
    n, third, adj = fs.n, fs.third, fs.adjacency  # third: symmetric, and -1 on the diagonal
    nbrs = [sorted(adj_a) for adj_a in adj]  # the loops walk these, not all n points
    u = _unknowns(n)

    def r7(a, b):
        return 2 + len(adj[b] - adj[a])

    def r1_to_r3():  # rows of length 1 and 2
        for a, (row_a, ua) in enumerate(zip(third, u)):
            yield {ua[a]: 1}  # (R1)
            for b, ba in enumerate(row_a):
                if ba < 0 and b != a:
                    yield {ua[b]: 1}  # (R3)
                elif b < ba:
                    yield {ua[b]: 1, ua[ba]: 1}  # (R2)

    def r5_to_r7(length):  # rows of length 3, or the (R7) rows of `length`
        for a, (row_a, ua) in enumerate(zip(third, u)):
            for b in nbrs[a]:
                ab, row_b, ub, uab = row_a[b], third[b], u[b], u[row_a[b]]
                if length == 3:
                    # (R5): d(a^b)_e = d(a)_e + d(b)_{e^a} for a noncommuting with b, e and b perp e
                    for e in nbrs[a]:
                        if e != b and row_b[e] < 0:
                            yield {uab[e]: 1, ua[e]: -1, ub[row_a[e]]: -1}
                    # (R6): e noncommuting with a, b and a^b
                    if a < b:
                        for e in nbrs[a]:
                            if row_b[e] >= 0 and third[ab][e] >= 0:
                                yield {uab[e]: 1, ua[row_b[e]]: -1, ub[row_a[e]]: -1}
                # (R7): 2 d(b)_a + d(a)_b + d(a^b)_a - sum_{a perp e, b noncommuting e} d(b)_e,
                # of length r7(a, b): one term for each e in adj b - adj a but a
                if r7(a, b) == length:
                    row = {ub[a]: 2, ua[b]: 1, uab[a]: 1}
                    for e in nbrs[b]:
                        if e != a and row_a[e] < 0:  # e commutes with a, e != a
                            row[ub[e]] = -1
                    yield row

    yield from (row for length in (1, 2) for row in r1_to_r3() if len(row) == length)
    yield from r5_to_r7(3)
    for a, (row_a, ua) in enumerate(zip(third, u)):  # (R4), of length 4
        for b in range(a + 1, n):
            if row_a[b] >= 0:
                continue
            row_b, ub = third[b], u[b]  # a perp b, c a common neighbour
            for c in nbrs[a]:
                if row_b[c] >= 0 and c < (cab := row_b[row_a[c]]):
                    yield {ua[c]: 1, ub[c]: 1, ua[cab]: 1, ub[cab]: 1}
    for length in sorted({r7(a, b) for a in range(n) for b in adj[a]} - {3}):
        yield from r5_to_r7(length)


def require_eta_half(A: MatsuoAlgebra) -> None:
    """Raise BadEta unless A has eta = 1/2, where (R1)-(R7) apply."""
    F = A.field
    if A.eta != F.div(F.one_raw(), F.coerce(2)):
        raise BadEta("the relation system is specific to eta = 1/2")


def build_r_system(A: MatsuoAlgebra) -> Rows:
    """The `r_relations` rows, streamed: integer rows over every field."""
    require_eta_half(A)
    return Rows(lambda: r_relations(A.fs))


def satisfies_r_system(A: MatsuoAlgebra, d: LinearEndo) -> bool:
    """Whether d satisfies (R1)-(R7)."""
    require_eta_half(A)
    return _orthogonal(r_relations(A.fs), [d.to_vector()], A.field)


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


def derivation_basis(A: MatsuoAlgebra, system: str = "leibniz") -> list[LinearEndo]:
    """Nullspace of the Leibniz or the (R1)-(R7) system, as endomorphisms, solved over
    the prime field k; over k(sqrt d) the basis over k is coerced (see `base_field`)."""
    if system not in ("leibniz", "r"):
        raise ValueError(f"unknown system {system!r}")
    rows = build_leibniz_system(A) if system == "leibniz" else build_r_system(A)
    F, n, k = A.field, A.dim, base_field(A.field)
    basis = _lifted_basis(rows, n * n) if isinstance(k, Rationals) else None
    if basis is None:
        basis = linalg.nullspace(rows, n * n, k)
    if k != F:
        basis = [{u: F.coerce(v) for u, v in x.items()} for x in basis]
    return [LinearEndo.from_vector(n, x) for x in basis]


def _lifted_basis(rows, ncols: int) -> list[dict] | None:
    """The nullspace over Q of `rows`, found modulo MODULUS and checked exactly, or None.

    `rows` are the integer rows of a builder, which the caller solves over Q
    itself when this returns None; the solve and the check each read them
    afresh.  They are solved over F_p as they stand: the eliminator reads
    unreduced integers.  The nullspace is lifted entrywise by rational
    reconstruction.  The k lifted vectors are independent, as each is 1 on its
    own free column and 0 on the others.  If each is orthogonal to every integer
    row (`_orthogonal`), they span the nullspace over Q, since rank_p <= rank_Q
    bounds nullity_Q by k, whatever eta is.
    """
    basis = []
    for vec in linalg.nullspace(rows, ncols, PrimeField(MODULUS)):
        lifted = {u: rational_lift(v, MODULUS) for u, v in vec.items()}
        if None in lifted.values():
            return None
        basis.append(lifted)
    return basis if _orthogonal(rows, basis, Rationals()) else None


def spans_agree(A: MatsuoAlgebra, basis1, basis2) -> bool:
    """Mutual span containment of two endo families (as coefficient vectors)."""
    v1 = [d.to_vector() for d in basis1]
    v2 = [d.to_vector() for d in basis2]
    r = rank(v1 + v2, A.field)
    return rank(v1, A.field) == r == rank(v2, A.field)


def vanishing_report(A: MatsuoAlgebra, basis: list[LinearEndo]) -> dict:
    """For each ordered collinear pair (a, b): is d(a)_b zero across the basis."""
    F = A.field
    zero = F.zero_raw()
    report = {}
    for a in range(A.dim):
        for b in range(A.dim):
            if a != b and A.fs.collinear(a, b):
                report[(a, b)] = all(F.is_zero(d.cols[a].get(b, zero)) for d in basis)
    return report
