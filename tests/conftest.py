"""Fixtures shared across test modules."""

from fractions import Fraction

import pytest

from matsuo.algebra import MatsuoAlgebra
from matsuo.fischer import space_of
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
            cache[desc, field] = [(A.eigendecompose(a).dims, A.check_fusion(a)) for a in axes]
        return cache[desc, field]

    return fusion
