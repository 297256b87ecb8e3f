"""Exact sparse linear algebra over the package's fields.

Rows and vectors are dicts {column: raw field value}.  The eliminator keeps a
fully reduced echelon basis (each pivot row mentions its pivot column and
non-pivot columns only), which keeps rows short whenever the solution space
is small; rows are fed shortest-first to limit fill-in.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction

from .fields import Field


class Echelon:
    """Incrementally maintained reduced row echelon basis of a row space."""

    def __init__(self, field: Field):
        self.field = field
        self.pivots: dict[int, dict] = {}  # pivot col -> row with row[col] == 1
        self._occurs: dict[int, set] = defaultdict(set)  # col -> pivot cols using it

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict) -> dict:
        """Residual of a row modulo the current row space.

        Pivot rows are fully reduced, so one pass over the row's own pivot
        columns, each with its original coefficient, leaves the residual.
        """
        F = self.field
        pivots = self.pivots
        row = {c: v for c, v in row.items() if not F.is_zero(v)}
        for p in [c for c in row if c in pivots]:
            coeff = row.pop(p)
            for c, v in pivots[p].items():
                if c == p:
                    continue
                cur = row.get(c)
                nv = F.sub(cur, F.mul(coeff, v)) if cur is not None else F.neg(F.mul(coeff, v))
                if F.is_zero(nv):
                    row.pop(c, None)
                else:
                    row[c] = nv
        return row

    def insert(self, row: dict) -> bool:
        """Add a row; returns True if it enlarged the row space."""
        F = self.field
        res = self.reduce(row)
        if not res:
            return False
        # pivot on the column that disturbs the fewest existing rows
        p = min(res, key=lambda c: (len(self._occurs[c]), c))
        inv = F.inv(res[p])
        newrow = {c: F.mul(v, inv) for c, v in res.items()}
        # back-eliminate p from existing pivot rows
        for q in list(self._occurs[p]):
            target = self.pivots[q]
            coeff = target.pop(p)
            self._occurs[p].discard(q)
            for c, v in newrow.items():
                if c == p:
                    continue
                cur = target.get(c)
                nv = F.sub(cur, F.mul(coeff, v)) if cur is not None else F.neg(F.mul(coeff, v))
                if F.is_zero(nv):
                    if cur is not None:
                        del target[c]
                        self._occurs[c].discard(q)
                else:
                    if cur is None:
                        self._occurs[c].add(q)
                    target[c] = nv
        self.pivots[p] = newrow
        for c in newrow:
            if c != p:
                self._occurs[c].add(p)
        return True

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)


def rank(rows, field: Field) -> int:
    ech = Echelon(field)
    for row in sorted(rows, key=len):
        ech.insert(row)
    return ech.rank


def nullspace(rows, ncols: int, field: Field) -> list[dict]:
    """Basis of {x : row . x = 0 for all rows}, as sparse dicts over ncols columns."""
    F = field
    ech = Echelon(field)
    for row in sorted(rows, key=len):
        ech.insert(row)
    free = [c for c in range(ncols) if c not in ech.pivots]
    basis = []
    for f in free:
        vec = {f: F.one_raw()}
        for p, prow in ech.pivots.items():
            v = prow.get(f)
            if v is not None and not F.is_zero(v):
                vec[p] = F.neg(v)
        basis.append(vec)
    return basis


def in_span(vectors, target: dict, field: Field) -> bool:
    """Whether target lies in the span of the given sparse vectors."""
    ech = Echelon(field)
    for v in vectors:
        ech.insert(v)
    return ech.contains(target)


def independent_count(vectors, field: Field) -> int:
    return rank(vectors, field)


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


def dot(row: dict, vec: dict, field: Field):
    """Sparse dot product of two {col: raw} dicts."""
    F = field
    if len(row) > len(vec):
        row, vec = vec, row
    acc = F.zero_raw()
    for c, v in row.items():
        w = vec.get(c)
        if w is not None:
            acc = F.add(acc, F.mul(v, w))
    return acc
