"""Matsuo algebra products, eigendecompositions, fusion law, projection graph."""

import random
from fractions import Fraction

import pytest
import sympy

from matsuo.algebra import (
    BadCharacteristic,
    BadEta,
    IntegerForm,
    MatsuoAlgebra,
)
from matsuo.fields import PrimeField, Rationals, parse_field
from matsuo.fischer import space_of
from matsuo.linalg import axpy
from matsuo.transpo import CATALOG, parse_group

Q = Rationals()
F7 = PrimeField(7)
HALF = Fraction(1, 2)


def _alg(desc, field=Q, eta=HALF):
    return MatsuoAlgebra(space_of(parse_group(desc)), field.coerce(eta), field)


@pytest.mark.parametrize(
    "fdesc,value,form",
    [
        ("Q", Fraction(-5, 6), (6, 0, {0: -5}, {})),
        ("Fp:13", 9, (1, 0, {0: 9}, {})),
        # 1/2 + sqrt(1/3) = 1/2 + sqrt(3)/3 = (3 + 2 sqrt 3)/6
        ("Q(sqrt:1/3)", (Fraction(1, 2), Fraction(1)), (6, 3, {0: 3}, {0: 2})),
        ("Q(sqrt:-2/5)", (Fraction(0), Fraction(3, 4)), (20, -10, {}, {0: 3})),
        ("Fp:7(sqrt:3)", (0, 5), (1, 3, {}, {0: 5})),
    ],
)
def test_integer_form_clears_denominators(fdesc, value, form):
    f = IntegerForm(parse_field(fdesc), [{0: value}])
    assert (f.scale, f.dprime, *f.vector({0: value})) == form


def test_product_rule_cases():
    A = _alg("S3")
    fs = A.fs
    a, b = fs.labels.index("(12)"), fs.labels.index("(13)")
    c = fs.third[a][b]
    assert A.basis_product(a, a) == {a: Fraction(1)}
    prod = A.basis_product(a, b)
    assert prod == {a: Fraction(1, 4), b: Fraction(1, 4), c: Fraction(-1, 4)}
    B = _alg("S4")
    i, j = B.fs.labels.index("(12)"), B.fs.labels.index("(34)")
    assert B.basis_product(i, j) == {}


def test_constructor_rejects_bad_parameters():
    fs = space_of(parse_group("S3"))
    with pytest.raises(BadEta):
        MatsuoAlgebra(fs, Fraction(0), Q)
    with pytest.raises(BadEta):
        MatsuoAlgebra(fs, Fraction(1), Q)
    with pytest.raises(BadCharacteristic):
        # F4 is not prime, use the descriptor path for char 2
        MatsuoAlgebra(fs, 1, _FakeChar2())


class _FakeChar2(Rationals):
    characteristic = 2


def test_multiply_is_bilinear_and_commutative():
    A = _alg("S4")
    rng = random.Random(7)
    for _ in range(20):
        x = {rng.randrange(A.dim): Fraction(rng.randint(-3, 3)) for _ in range(3)}
        y = {rng.randrange(A.dim): Fraction(rng.randint(-3, 3)) for _ in range(3)}
        z = {rng.randrange(A.dim): Fraction(rng.randint(-3, 3)) for _ in range(3)}
        assert A.multiply(x, y) == A.multiply(y, x)
        lhs = A.multiply(axpy(dict(x), Fraction(1), y, Q), z)
        rhs = axpy(A.multiply(x, z), Fraction(1), A.multiply(y, z), Q)
        assert A.sub(lhs, rhs) == {}
        assert A.multiply(x, {}) == {}


def _sympy_eigendims(A, a):
    n = A.dim
    L = sympy.zeros(n, n)
    for j in range(n):
        for c, v in A.basis_product(a, j).items():
            L[c, j] = v
    out = []
    for lam in (1, 0, Fraction(1, 2)):
        out.append(len((L - sympy.Rational(lam) * sympy.eye(n)).nullspace()))
    return tuple(out)


@pytest.mark.parametrize("desc,dims", [("S4", (1, 3, 2)), ("S3", (1, 1, 1))])
def test_eigendims_against_sympy_oracle(desc, dims):
    A = _alg(desc)
    dec = A.eigendecompose(0)
    assert dec.dims == dims
    assert dec.dims == _sympy_eigendims(A, 0)


def test_eta_eigenvector_structure():
    A = _alg("S5")
    for a in range(A.dim):
        for b in range(A.dim):
            if a != b and A.fs.collinear(a, b):
                ba = A.fs.third[a][b]
                v = {b: Fraction(1), ba: Fraction(-1)}  # b - b^a
                got = A.multiply({a: Fraction(1)}, v)
                assert got == A.scale(A.eta, v)
                u = {b: Fraction(1), ba: Fraction(1)}  # a.(b + b^a) = eta*a
                w = A.multiply({a: Fraction(1)}, u)
                assert w == {a: Fraction(1, 2)}


@pytest.mark.parametrize("field", [Q, F7], ids=["Q", "F7"])
@pytest.mark.parametrize("desc", CATALOG)
def test_fusion_law_every_axis(desc, field, every_axis_fusion):
    A = _alg(desc, field=field)
    axes = every_axis_fusion(desc, field)
    assert len(axes) == A.dim
    for dims, violations in axes:
        assert sum(dims) == A.dim
        assert dims[0] == 1  # primitive
        assert violations == []


def test_perturbed_structure_constants_violate_fusion():
    A = _alg("S4")
    i, j = 0, next(b for b in range(A.dim) if A.fs.collinear(0, b))
    row = dict(A.basis_product(i, j))
    k = next(iter(row))
    row[k] = row[k] + Fraction(1, 3)
    A.products[(min(i, j), max(i, j))] = row
    try:
        violations = A.check_fusion(0)
    except Exception:
        violations = ["degenerate"]
    assert violations


def _projection(A, a, b):
    """P e_b for P = L_a (L_a - eta) / (1 - eta), which kills the 0- and
    eta-eigenspaces of the axis a and fixes its 1-eigenspace."""
    F = A.field
    e_a = {a: F.one_raw()}
    v = A.multiply(e_a, {b: F.one_raw()})
    v = A.sub(A.multiply(e_a, v), A.scale(A.eta, v))
    return A.scale(F.inv(F.sub(F.one_raw(), A.eta)), v)


def test_phi_values():
    """phi(a, b), the e_a-coordinate of e_b in the eigenspaces of the axis a, is
    1, eta/2 or 0 as b is a, collinear with a or commuting with it."""
    A = _alg("S4")
    for a in range(A.dim):
        assert A.eigendecompose(a).space_1 == [{a: A.field.one_raw()}]
        for b in range(A.dim):
            phi = _projection(A, a, b)
            if a == b:
                assert phi == {a: 1}
            elif A.fs.collinear(a, b):
                assert phi == {a: Fraction(1, 4)}  # eta/2
            else:
                assert phi == {}


@pytest.mark.parametrize("desc", CATALOG)
def test_projection_graph_connected_on_catalog(desc):
    """phi(a, b) != 0 exactly on collinear pairs, so the projection graph is the
    collinearity graph, and that is connected."""
    A = _alg(desc)
    for a in range(A.dim):
        for b in range(A.dim):
            phi = _projection(A, a, b)
            assert set(phi) <= {a}
            assert bool(phi) == (a == b or A.fs.collinear(a, b))
    assert A.fs.is_connected()


def test_json_export_shape():
    A = _alg("S3", field=parse_field("Q(sqrt:3)"))
    doc = A.to_dict()
    assert doc["field"] == "Q(sqrt:3)"
    assert doc["eta"] == "1/2+0*sqrt3"
    assert doc["basis"] == ["(12)", "(13)", "(23)"]
    for i, j, entries in doc["products"]:
        assert i <= j
        for k, coeff in entries:
            assert isinstance(coeff, str)


def test_general_eta_supported():
    A = _alg("S4", eta=Fraction(1, 3))
    dec = A.eigendecompose(0)
    assert sum(dec.dims) == A.dim
    assert A.check_fusion(0) == []
