"""Derivation Lie algebras of Matsuo algebras.

Two routes to the same nullspace: the generic Leibniz linearisation (any
eta), and the sparse relation system specific to eta = 1/2.  Unknowns are
the coefficients d(a)_b, indexed column-major as a * dim + b (a the argument
point, b the image coordinate).  A derivation is its vector {a * dim + b: d(a)_b}
of these, as the solver returns it; `columns` splits one into the images d(a).

Both builders order their rows shortest first, as the eliminator feeds them,
and name each unknown by one shared int.  The Leibniz rows are a list; the
(R1)-(R7) rows are streamed afresh for each read, so they are never all held.
Over every field both are integer rows with entries in the prime field k (over
Q the Leibniz rows have the table's denominators cleared), solved over k; over
k(sqrt d) only the basis is coerced into k(sqrt d).  Over Q they are solved
modulo the prime MODULUS at every eta, and the solve ends at the first
checkpoint whose lifted basis is certified against all the rows in Python
ints, with the solve over Q as the fallback (see `_lifted_basis`).  A row that
names no unknown of the basis's support has a zero dot product with every
vector, so of the (R1)-(R7) rows the check generates only those that name the
support (`r_relations` given `names`).  `satisfies_r_system` runs the same
check over every field, on the vector's support.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache

from . import linalg  # nullspace is looked up per call, so a wrapper set on it later is seen
from .algebra import BadEta, IntegerForm, MatsuoAlgebra, SparseAlgebra
from .fields import PrimeField, Rationals, base_field
from .linalg import rank, rational_lift

MODULUS = (1 << 61) - 1  # the prime over which systems over Q are solved
# The Leibniz builder makes at most n rows, one per coordinate, for each of the n(n+1)/2
# pairs a <= b.  A row costs about 280 bytes (3W:D4, W:E7 and 3W:E6 over Q, by tracemalloc),
# so the cap holds about 2.2 GB: above the bound for 3W:E7 (3.4 M), below 3W:E8's (23.4 M).
LEIBNIZ_ROW_CAP = 8_000_000


def columns(x: dict, n: int) -> list[dict]:
    """The column images of the map with coefficient vector x: cols[a][b] = x[a * n + b]."""
    cols = [{} for _ in range(n)]
    for u, v in x.items():
        cols[u // n][u % n] = v
    return cols


def is_derivation(A: SparseAlgebra, x: dict) -> bool:
    """Whether the map d with coefficient vector x has d(e_i e_j) = d(e_i) e_j + e_i d(e_j)
    on every basis pair, checked in Python ints.

    With the table times T (`A.integer_table`) and the images of d times S, each
    side comes out times T S.
    """
    _, table = A.integer_table
    images = columns(x, A.dim)
    form = IntegerForm(A.field, images)
    cols = [form.vector(c) for c in images]

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
    """The (R1)-(R7) rows of `fs`, re-iterable: each pass generates them afresh, so no
    pass holds them.  `naming(names)` is one pass over the rows that name one of `names`."""

    def __init__(self, fs):
        self.fs = fs

    def __iter__(self):
        return r_relations(self.fs)

    def __len__(self):  # a counting pass
        return sum(1 for _ in r_relations(self.fs))

    def naming(self, names):
        return r_relations(self.fs, names)


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


def r_relations(fs, names=None):
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

    Given `names`, a set of unknowns, it is instead one unsorted pass over the
    rows that name one of them, each still once: the only rows a vector
    supported on `names` can fail, as its dot product with any other row is an
    empty sum.  With S[x] the points y of the unknowns d(x)_y in `names`, and
    x.T the points t^x of t in T collinear with x, the same loops run over the
    points through which a row can name S, not over every neighbour: e in S[a]
    | S[a^b] | a.S[b] for (R5), e in S[a^b] | b.S[a] | a.S[b] for (R6), c and
    c^a^b for c in S[a] | S[b] for (R4), b and b^a for b in S[a] for (R2); an
    (R7) row is built only where it names S.
    """
    n, third, adj = fs.n, fs.third, fs.adjacency  # third: symmetric, and -1 on the diagonal
    nbrs = [sorted(adj_a) for adj_a in adj]  # the loops walk these, not all n points
    u = _unknowns(n)
    if names is None:
        S = None
        # each (R7) length, worked out once per pass, in the order of nbrs
        lengths = [[2 + len(adj[b] - adj[a]) for b in nbrs[a]] for a in range(n)]
    else:
        S = [set() for _ in range(n)]
        for x in names:
            S[x // n].add(x % n)

    def r1_to_r3():  # rows of length 1 and 2
        for a, (row_a, ua) in enumerate(zip(third, u)):
            bs = range(n) if S is None else S[a] | ({row_a[b] for b in S[a]} - {-1})
            if S is None or a in bs:
                yield {ua[a]: 1}  # (R1)
            for b in bs:
                ba = row_a[b]
                if ba < 0 and b != a:
                    yield {ua[b]: 1}  # (R3)
                elif b < ba:
                    yield {ua[b]: 1, ua[ba]: 1}  # (R2)

    def r4():  # rows of length 4
        for a, (row_a, ua) in enumerate(zip(third, u)):
            for b in range(a + 1, n):
                if row_a[b] >= 0:
                    continue
                row_b, ub = third[b], u[b]  # a perp b, c a common neighbour
                if S is None:
                    cs = nbrs[a]
                else:  # c^a^b = c^b^a, as a and b commute
                    cs = {c for c in S[a] | S[b] if row_a[c] >= 0 <= row_b[c]}
                    cs |= {row_b[row_a[c]] for c in cs}
                for c in cs:
                    if row_b[c] >= 0 and c < (cab := row_b[row_a[c]]):
                        yield {ua[c]: 1, ub[c]: 1, ua[cab]: 1, ub[cab]: 1}

    def r5_to_r7(length):  # rows of length 3, or the (R7) rows of `length`
        for a, (row_a, ua) in enumerate(zip(third, u)):
            for i, b in enumerate(nbrs[a]):
                ab, row_b, ub, uab = row_a[b], third[b], u[b], u[row_a[b]]
                if S is None:
                    e5 = nbrs[a] if length == 3 else ()
                    e6 = e5 if a < b else ()
                    r7 = lengths[a][i] == length
                else:  # the e, and the (R7) row, that name S through some unknown
                    a_Sb = {row_a[f] for f in S[b]}
                    e5 = adj[a] & (S[a] | S[ab] | a_Sb)
                    e6 = adj[a] & (S[ab] | a_Sb | {row_b[f] for f in S[a]}) if a < b else ()
                    r7 = b in S[a] or a in S[ab] or any(row_a[e] < 0 <= row_b[e] for e in S[b])
                # (R5): d(a^b)_e = d(a)_e + d(b)_{e^a} for a noncommuting with b, e and b perp e
                for e in e5:
                    if e != b and row_b[e] < 0:
                        yield {uab[e]: 1, ua[e]: -1, ub[row_a[e]]: -1}
                # (R6): e noncommuting with a, b and a^b, for a < b
                for e in e6:
                    if row_b[e] >= 0 and third[ab][e] >= 0:
                        yield {uab[e]: 1, ua[row_b[e]]: -1, ub[row_a[e]]: -1}
                # (R7): 2 d(b)_a + d(a)_b + d(a^b)_a - sum_{a perp e, b noncommuting e} d(b)_e,
                # of length 2 + |adj b - adj a|: one term for each e in adj b - adj a but a
                if r7:
                    row = {ub[a]: 2, ua[b]: 1, uab[a]: 1}
                    for e in nbrs[b]:
                        if e != a and row_a[e] < 0:  # e commutes with a, e != a
                            row[ub[e]] = -1
                    yield row

    if S is not None:
        yield from r1_to_r3()
        yield from r4()
        yield from r5_to_r7(None)
        return
    yield from (row for length in (1, 2) for row in r1_to_r3() if len(row) == length)
    yield from r5_to_r7(3)
    yield from r4()
    for length in sorted({x for row in lengths for x in row} - {3}):
        yield from r5_to_r7(length)


def require_eta_half(A: MatsuoAlgebra) -> None:
    """Raise BadEta unless A has eta = 1/2, where (R1)-(R7) apply."""
    F = A.field
    if A.eta != F.div(F.one_raw(), F.coerce(2)):
        raise BadEta("the relation system is specific to eta = 1/2")


def build_r_system(A: MatsuoAlgebra) -> Rows:
    """The `r_relations` rows, streamed: integer rows over every field."""
    require_eta_half(A)
    return Rows(A.fs)


def satisfies_r_system(A: MatsuoAlgebra, x: dict) -> bool:
    """Whether the coefficient vector x satisfies (R1)-(R7)."""
    require_eta_half(A)
    return _orthogonal(Rows(A.fs), [x], A.field)


def _orthogonal(rows, vectors: list[dict], field) -> bool:
    """Whether each vector over `field` is orthogonal to every integer row, in Python ints.

    Each vector's denominators are cleared once (see `IntegerForm`); over F_p a
    sum is zero mod p, over F(sqrt d) its rational and sqrt parts both vanish.
    `at` indexes each unknown to the (part, entry) pairs that name it, so a row
    gets the dot products with every part in one pass over its entries.  A row
    that meets no part's support is orthogonal to all of them, so a `Rows`
    source is read only for the rows that name the support (`Rows.naming`).
    """
    p = field.characteristic
    parts = [part for x in vectors for part in IntegerForm(field, [x]).vector(x) if part]
    at = defaultdict(list)
    for i, x in enumerate(parts):
        for u, v in x.items():
            at[u].append((i, v))
    support = at.keys()
    if isinstance(rows, Rows):
        rows = rows.naming(support)
    for row in rows:
        if support.isdisjoint(row):
            continue
        sums = [0] * len(parts)
        for u, c in row.items():
            for i, v in at.get(u, ()):
                sums[i] += c * v
        if any(t % p for t in sums) if p else any(sums):
            return False
    return True


def derivation_basis(A: MatsuoAlgebra, system: str = "leibniz") -> list[dict]:
    """Nullspace of the Leibniz or the (R1)-(R7) system, as coefficient vectors
    {a * n + b: d(a)_b}, solved over the prime field k; over k(sqrt d) the basis over k
    is coerced (see `base_field`)."""
    if system not in ("leibniz", "r"):
        raise ValueError(f"unknown system {system!r}")
    rows = build_leibniz_system(A) if system == "leibniz" else build_r_system(A)
    F, n, k = A.field, A.dim, base_field(A.field)
    basis = _lifted_basis(rows, n * n) if isinstance(k, Rationals) else None
    if basis is None:
        basis = linalg.nullspace(rows, n * n, k)
    if k != F:
        basis = [{u: F.coerce(v) for u, v in x.items()} for x in basis]
    return basis


def _lifted_basis(rows, ncols: int) -> list[dict] | None:
    """The nullspace over Q of `rows`, found modulo MODULUS and checked exactly, or None.

    `rows` are the integer rows of a builder, which the caller solves over Q
    itself when this returns None.  They are solved over F_p as they stand:
    the eliminator reads unreduced integers.  The check handed to
    `linalg.nullspace` lifts the basis of the rows read so far entrywise by
    rational reconstruction, and returns the lift if it passes against the rows
    that name the support of its integer parts (`_orthogonal`, which reads them
    afresh), else None: a row that names none has a zero dot product with every
    vector, so it cannot fail.  So the answer is the first lift certified at a
    checkpoint (a row length that added no pivot), else the verdict at the end
    of the rows, and [] with no check where the solve reaches full rank.

    Why a prefix suffices: its k lifted vectors are independent, as each is 1
    on its own free column and 0 on the others.  If each is orthogonal to every
    row, nullity_Q(all) >= k.  For integer rows rank_p <= rank_Q, so
    nullity_p(all) >= nullity_Q(all) >= k, and nullity_p(all) <= nullity_p(prefix)
    = k.  So every later row reduces to zero mod p, and the solved form, hence
    the basis, is the one the full solve ends with, whatever eta is.
    """

    def lift(basis):
        lifted = [{u: rational_lift(v, MODULUS) for u, v in x.items()} for x in basis]
        ok = all(None not in x.values() for x in lifted) and _orthogonal(rows, lifted, Rationals())
        return lifted if ok else None

    return linalg.nullspace(rows, ncols, PrimeField(MODULUS), lift)


def spans_agree(A: MatsuoAlgebra, basis1: list[dict], basis2: list[dict]) -> bool:
    """Whether two bases of coefficient vectors span one space.  Both must be linearly
    independent, as a nullspace basis is: then one size and one rank decide."""
    return len(basis1) == len(basis2) == rank(basis1 + basis2, A.field)


def vanishing_report(A: MatsuoAlgebra, basis: list[dict]) -> dict:
    """For each ordered collinear pair (a, b): is d(a)_b zero across the basis."""
    F, n = A.field, A.dim
    zero = F.zero_raw()
    report = {}
    for a in range(n):
        for b in range(n):
            if a != b and A.fs.collinear(a, b):
                report[(a, b)] = all(F.is_zero(x.get(a * n + b, zero)) for x in basis)
    return report
