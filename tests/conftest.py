"""Fixtures shared across test modules."""

from fractions import Fraction

import pytest

from matsuo.algebra import MatsuoAlgebra
from matsuo.deriv import columns
from matsuo.fischer import space_of
from matsuo.linalg import apply
from matsuo.transpo import parse_group


@pytest.fixture(scope="session")
def every_axis_fusion():
    """fusion(desc, field): for each axis of the Matsuo algebra of desc at eta = 1/2,
    its eigenspace dims and its fusion violations, computed once per session."""
    cache = {}

    def fusion(desc, field):
        if (desc, field) not in cache:
            A = MatsuoAlgebra(space_of(parse_group(desc)), field.coerce(Fraction(1, 2)), field)
            axes = range(A.dim)
            cache[desc, field] = [
                (tuple(map(len, A.eigendecompose(a).values())), A.check_fusion(a)) for a in axes
            ]
        return cache[desc, field]

    return fusion


@pytest.fixture(scope="session")
def bracket():
    """bracket(A, d, e): the coefficient vector of the Lie bracket d∘e − e∘d of two maps
    of A given by coefficient vectors, composed with `linalg.apply` on their columns."""

    def bracket(A, d, e):
        n, F = A.dim, A.field
        dc, ec = columns(d, n), columns(e, n)
        out = {}
        for a, (da, ea) in enumerate(zip(dc, ec)):  # column a is d(e(a)) - e(d(a))
            for b, v in A.sub(apply(dc, ea, F), apply(ec, da, F)).items():
                out[a * n + b] = v
        return out

    return bracket
