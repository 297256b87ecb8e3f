"""Exact sparse linear algebra over the package's fields.

Rows and vectors are dicts {column: raw field value}, and `axpy` is the one
routine that adds a multiple of one into another and drops what cancels.  A
linear map is the list of its column images, which `apply` combines.
The eliminator keeps each pivot in solved form: `solved[p]` writes x_p as a
combination of free columns only, which keeps the solutions short whenever
the solution space is small.  Rows are fed in the order given, and read at
most once: the builders order them shortest first to limit fill-in, and may
stream them.  `nullspace` is one loop: it stops reading at full rank, and with
a `check`, at the first answer the check makes of the basis at a checkpoint.

`Echelon.reduce` is one pass over the row: an entry on a free column is added
into the residual, an entry on a pivot column adds its coefficient times that
pivot's solution, and what cancels is dropped once, at the end.  Over a
`PrimeField` the sums and products are plain ints and each surviving entry is
reduced mod p once, at the end, so rows may hold unreduced integers (negative
entries and multiples of p included); `axpy` likewise reduces each entry it
writes once.  Every value stored in `solved` is a reduced residue.

A row whose columns are all pivots forced to 0 (with an empty solution)
already lies in the row space: `Echelon` skips it with one set test, which
changes neither the row space, the pivot path nor the solved form.  Structured
Gaussian elimination drops such rows the same way (LaMacchia and Odlyzko,
CRYPTO '90).
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction

from .fields import Field, PrimeField


def axpy(dst: dict, c, src: dict, field: Field) -> dict:
    """dst += c * src in place, dropping each entry on src's support that comes out zero.

    Returns dst.  Entries of dst off src's support are left as they are.
    """
    if isinstance(field, PrimeField):
        p = field.p
        for k, v in src.items():
            nv = (dst.get(k, 0) + c * v) % p
            if nv:
                dst[k] = nv
            else:
                dst.pop(k, None)
        return dst
    mul, add, is_zero = field.mul, field.add, field.is_zero
    for k, v in src.items():
        nv = mul(c, v)
        cur = dst.get(k)
        if cur is not None:
            nv = add(cur, nv)
        if is_zero(nv):
            dst.pop(k, None)
        else:
            dst[k] = nv
    return dst


def apply(cols: list[dict], x: dict, field: Field) -> dict:
    """The image of x under the linear map whose column images are `cols`."""
    out: dict = {}
    for a, xa in x.items():
        axpy(out, xa, cols[a], field)
    return out


class Echelon:
    """Incrementally maintained solved form of a row space.

    `zero` is the set of pivots p with `solved[p]` empty, so x_p = 0 on the
    nullspace of the rows inserted so far.  A pivot joins it when its solution
    is made empty or a substitution empties it, and never leaves: a
    substitution touches only solutions that name the new pivot, which an empty
    one does not.  A row on these columns alone is orthogonal to that nullspace,
    so `reduce` would return {} for it and `insert` would change nothing;
    `insert` and `contains` answer it with one set test instead.
    """

    def __init__(self, field: Field):
        self.field = field
        self.solved: dict[int, dict] = {}  # pivot col -> x_p in terms of free cols
        self._occurs: dict[int, set] = defaultdict(set)  # col -> pivot cols using it
        self.zero: set = set()  # pivot cols with an empty solution

    @property
    def rank(self) -> int:
        return len(self.solved)

    def reduce(self, row: dict) -> dict:
        """Residual of a row modulo the current row space: no pivot column remains.

        Solutions name free columns only, so each pivot column of the row is
        substituted once, with its original coefficient.  Over F_p the row may
        hold unreduced integers, and the residual holds reduced residues.
        """
        F = self.field
        solved = self.solved
        res: dict = {}
        if isinstance(F, PrimeField):
            for c, v in row.items():
                sol = solved.get(c)
                if sol is None:
                    res[c] = res.get(c, 0) + v
                else:
                    for f, w in sol.items():
                        res[f] = res.get(f, 0) + v * w
            p = F.p
            return {c: r for c, v in res.items() if (r := v % p)}
        add, mul = F.add, F.mul
        for c, v in row.items():
            sol = solved.get(c)
            if sol is None:
                cur = res.get(c)
                res[c] = v if cur is None else add(cur, v)
            else:
                for f, w in sol.items():
                    cur = res.get(f)
                    res[f] = mul(v, w) if cur is None else add(cur, mul(v, w))
        is_zero = F.is_zero
        return {c: v for c, v in res.items() if not is_zero(v)}

    def insert(self, row: dict) -> bool:
        """Add a row; returns True if it enlarged the row space."""
        if self.zero.issuperset(row):
            return False
        F = self.field
        res = self.reduce(row)
        if not res:
            return False
        # pivot on the column that disturbs the fewest existing solutions
        p = min(res, key=lambda c: (len(self._occurs.get(c, ())), c))
        scale = F.neg(F.inv(res.pop(p)))
        sol = {c: F.mul(v, scale) for c, v in res.items()}
        # substitute x_p into the solutions that name it
        for q in self._occurs.pop(p, ()):
            target = self.solved[q]
            axpy(target, target.pop(p), sol, F)
            if not target:
                self.zero.add(q)
            for c in sol:
                if c in target:
                    self._occurs[c].add(q)
                else:
                    self._occurs[c].discard(q)
        self.solved[p] = sol
        if not sol:
            self.zero.add(p)
        for c in sol:
            self._occurs[c].add(p)
        return True

    def contains(self, row: dict) -> bool:
        return self.zero.issuperset(row) or not self.reduce(row)


def rank(rows, field: Field) -> int:
    ech = Echelon(field)
    for row in rows:
        ech.insert(row)
    return ech.rank


def nullspace(rows, ncols: int, field: Field, check=None) -> list[dict] | None:
    """Basis of {x : row . x = 0 for all rows}, as sparse dicts over ncols columns.

    With `check`, it returns what `check` makes of a basis: an answer, or None to
    refuse it.  The basis of the rows fed so far is offered at each checkpoint,
    and the first answer that is not None is returned, the rows read no further.
    A checkpoint follows the first row of each new length when the rows of the
    length before it added no pivot.  At the end of the rows `check`'s answer is
    returned, None included.  A solve that reaches full rank returns [], unchecked.
    """
    ech = Echelon(field)
    length = start = None  # the length of the current class, and the rank before it
    for row in rows:
        if len(row) != length:
            settled = ech.rank == start
            length, start = len(row), ech.rank
        else:
            settled = False
        if ech.insert(row) and ech.rank == ncols:
            return []
        del row  # a check streams the rows afresh; hold none of them across it
        if settled and check and (answer := check(_basis(ech, ncols, field))) is not None:
            return answer
    basis = _basis(ech, ncols, field)
    return check(basis) if check and basis else basis


def _basis(ech: Echelon, ncols: int, field: Field) -> list[dict]:
    """The nullspace basis of a solved form: one vector per free column f, 1 at f."""
    vecs = {f: {f: field.one_raw()} for f in range(ncols) if f not in ech.solved}
    for p, sol in ech.solved.items():
        for f, v in sol.items():
            vecs[f][p] = v
    return list(vecs.values())


def rational_lift(a: int, p: int) -> Fraction | None:
    """The fraction n/d = a mod p with |n|, d <= sqrt(p/2), unique if any, or None.

    Wang's rational reconstruction: extended Euclid on (p, a) down to the bound.
    """
    bound = math.isqrt(p // 2)
    r0, r1, t0, t1 = p, a % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)

