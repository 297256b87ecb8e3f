"""Derivation Lie algebras: dimensions, system equivalence, vanishing structure."""

import random
from fractions import Fraction

import pytest
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from matsuo import deriv
from matsuo.algebra import BadEta, build_matsuo
from matsuo.deriv import (
    MODULUS,
    LinearEndo,
    build_leibniz_system,
    build_r_system,
    derivation_basis,
    is_derivation,
    leibniz_residual,
    nullspace_endos,
    r_relations,
    satisfies_r_system,
    spans_agree,
    vanishing_report,
)
from matsuo.fields import PrimeField, Rationals
from matsuo.fischer import space_of
from matsuo.linalg import rank, rational_lift
from matsuo.transpo import CATALOG, parse_group

Q = Rationals()
F7 = PrimeField(7)
HALF = Fraction(1, 2)

# derivation dimensions established by two independent systems plus the
# sympy oracle in test_dimension_oracle; 3W rank-n instances have dim n
# except rank 2, whose Fischer space is a single affine plane AG(2,3)
DIMS = {
    "S3": 1, "S4": 3, "S5": 6,
    "W:A2": 1, "W:A3": 3, "W:D4": 0,
    "3W:A1": 1, "3W:A2": 8, "3W:A3": 3, "3W:D4": 4,
    "M3:2": 8, "M3:3": 0,
}


def _alg(desc, field=Q):
    return build_matsuo(space_of(parse_group(desc)), field.coerce(HALF), field)


@pytest.mark.parametrize("desc", CATALOG)
def test_dimension_table_both_systems(desc):
    A = _alg(desc)
    leib = derivation_basis(A, system="leibniz")
    rsys = derivation_basis(A, system="r")
    assert len(leib) == DIMS[desc]
    assert len(rsys) == DIMS[desc]
    assert spans_agree(A, leib, rsys)


def test_symmetric_dims_match_orthogonal_lie_algebra():
    # Aut M(S_n) has Lie algebra so(n-1), of dimension (n-1)(n-2)/2
    for n, desc in ((3, "S3"), (4, "S4"), (5, "S5")):
        assert DIMS[desc] == (n - 1) * (n - 2) // 2


def _sympy_nullity(rows, ncols):
    m = [[QQ(0)] * ncols for _ in rows]
    for r, row in enumerate(rows):
        for c, v in row.items():
            m[r][c] = QQ.convert(v)
    return ncols - DomainMatrix(m, (len(rows), ncols), QQ).rank()


@pytest.mark.parametrize("desc", ["S3", "S4", "W:A2", "3W:A1", "3W:A2", "M3:2"])
def test_dimension_oracle(desc):
    A = _alg(desc)
    rows = build_leibniz_system(A)
    assert _sympy_nullity(rows, A.dim * A.dim) == DIMS[desc]


@pytest.mark.parametrize("field", [Q, F7], ids=["Q", "F7"])
@pytest.mark.parametrize("desc", CATALOG)
def test_system_equivalence(desc, field):
    A = _alg(desc, field=field)
    leib = derivation_basis(A, system="leibniz")
    rsys = derivation_basis(A, system="r")
    assert len(leib) == len(rsys)
    assert spans_agree(A, leib, rsys)


@pytest.mark.parametrize("desc", ["S4", "3W:A2", "M3:2"])
def test_random_maps_satisfy_r_iff_derivation(desc):
    A = _alg(desc)
    rng = random.Random(11)
    basis = derivation_basis(A, system="leibniz")
    rows = list(r_relations(A.fs))
    for trial in range(20):
        cols = [
            {
                b: Fraction(rng.randint(-2, 2))
                for b in rng.sample(range(A.dim), min(3, A.dim))
            }
            for _ in range(A.dim)
        ]
        cols = [{b: v for b, v in c.items() if v} for c in cols]
        if trial % 3 == 0 and basis:
            # mix a genuine derivation in to hit the positive branch too
            d0 = basis[trial % len(basis)]
            cols = [A.add(c, d) for c, d in zip(cols, d0.cols)] if trial % 6 else d0.cols
        d = LinearEndo(A.dim, cols)
        assert satisfies_r_system(A, d) == is_derivation(A, d)
        assert satisfies_r_system(A, d, rows) == satisfies_r_system(A, d)


def test_negative_controls():
    A = _alg("S4")
    ident = LinearEndo.identity(A)
    assert not is_derivation(A, ident)
    assert not satisfies_r_system(A, ident)
    assert is_derivation(A, LinearEndo.zero(A.dim))


def test_basis_members_are_derivations_and_lie_closed():
    for desc in ("S5", "3W:A3"):
        A = _alg(desc)
        basis = derivation_basis(A, system="r")
        for d in basis:
            assert leibniz_residual(A, d) == {}
        for d in basis:
            for e in basis:
                assert is_derivation(A, d.commutator(A, e))


def test_vanishing_matches_near_solid_lines():
    """Nonzero coefficients d(a)_b occur only on near-solid lines."""
    for desc in ("S5", "W:D4", "3W:A3", "M3:3"):
        A = _alg(desc)
        fs = A.fs
        basis = derivation_basis(A, system="leibniz")
        report = vanishing_report(A, basis)
        near = {line: fs.is_near_solid(line)[0] for line in fs.lines}
        for (a, b), vanishes in report.items():
            if not vanishes:
                assert near[fs.line_through(a, b)], (desc, a, b)


def test_s5_has_nonzero_entries_on_every_line():
    A = _alg("S5")
    report = vanishing_report(A, derivation_basis(A, system="r"))
    lines_hit = {
        A.fs.line_through(a, b)
        for (a, b), vanishes in report.items()
        if not vanishes
    }
    assert lines_hit == set(map(tuple, A.fs.lines))


def test_vertical_sum_identity():
    """d(a)_{b1} + d(a)_{b2} + d(a)_{b3} = 0 over vertical lines {b1,b2,b3}.

    Holds for rank >= 3, where horizontal directions are constrained through
    3^3:S4 subspaces; the rank-2 space is a single affine plane and the
    identity genuinely fails there (see test_dimension_table_both_systems).
    """
    for desc in ("3W:A3", "3W:D4"):
        A = _alg(desc)
        fs = A.fs
        vert = [l for l in fs.lines if fs.line_orbit_class(l) == "vertical"]
        for d in derivation_basis(A, system="r"):
            for line in vert:
                for a in range(A.dim):
                    if a in line:
                        continue
                    s = sum((d.entry(a, b) or Fraction(0)) for b in line)
                    assert s == 0, (desc, a, line)


def test_simple_root_freeness_on_3w():
    """A derivation is determined by d((0,a))_{(a,.)} over simple roots a."""
    for desc, n in (("3W:A1", 1), ("3W:A3", 3), ("3W:D4", 4)):
        g = parse_group(desc)
        rs = g.root_system
        A = _alg(desc)
        basis = derivation_basis(A, system="r")
        assert len(basis) == n
        pt = {p: i for i, p in enumerate(g.points)}
        eval_rows = []
        for d in basis:
            row = {}
            for i, alpha in enumerate(rs.simple_roots()):
                v = d.entry(pt[(0, alpha)], pt[(1, alpha)])
                if v:
                    row[i] = v
            eval_rows.append(row)
        assert rank(eval_rows, Q) == n  # evaluation map is injective on Der


def test_char3_contrast_regression():
    F3 = PrimeField(3)
    A = _alg("M3:3", field=F3)
    leib = derivation_basis(A, system="leibniz")
    rsys = derivation_basis(A, system="r")
    assert len(leib) > 0
    # regression constant, established by both systems agreeing at first run
    assert len(leib) == len(rsys) == 52


# dim Der at eta = 1/2 over F_p against Q, measured with both systems: it
# jumps at S5/F5, S7/F7 and W:A4/F5 (W(A4) is S5); S6/F5 and 3W:A4/F5 do not
@pytest.mark.parametrize(
    "desc,p,dim_p,dim_q",
    [("S5", 5, 7, 6), ("S7", 7, 16, 15), ("W:A4", 5, 7, 6), ("S6", 5, 10, 10), ("3W:A4", 5, 4, 4)],
)
def test_characteristic_jumps(desc, p, dim_p, dim_q):
    for field, dim in ((PrimeField(p), dim_p), (Q, dim_q)):
        A = _alg(desc, field=field)
        assert [len(derivation_basis(A, system=s)) for s in ("leibniz", "r")] == [dim, dim]


def test_r_system_requires_eta_half():
    A = build_matsuo(space_of(parse_group("S3")), Fraction(1, 3), Q)
    with pytest.raises(BadEta):
        build_r_system(A)
    # 1/2 + p is 1/2 mod p, but the relations still do not apply over Q
    A = build_matsuo(space_of(parse_group("S3")), Fraction(1, 2) + MODULUS, Q)
    with pytest.raises(BadEta):
        derivation_basis(A, system="r")


def test_r7_redundancy_rank_report():
    """Record how much (R7) adds beyond (R1)-(R6); no stance on redundancy.
    The (R7) rows are exactly the rows with a coefficient 2."""
    two = Q.coerce(2)
    for desc in ("S4", "W:A3", "3W:A2", "M3:2"):
        A = _alg(desc)
        rows = build_r_system(A)
        without_r7 = [row for row in rows if two not in row.values()]
        assert len(without_r7) < len(rows)
        dim_full = len(nullspace_endos(A, rows))
        dim_no_r7 = len(nullspace_endos(A, without_r7))
        assert dim_full == DIMS[desc]
        assert dim_no_r7 >= dim_full  # dropping constraints can only grow it


def test_direct_sum_derivations_embed_blockwise():
    A = _alg("S3")
    S = A.direct_sum(A)
    dims = len(derivation_basis(S, system="leibniz"))
    assert dims >= 2 * DIMS["S3"]


def _entries(basis):
    return [d.cols for d in basis]


def _exact(A, system):
    build = build_leibniz_system if system == "leibniz" else build_r_system
    return nullspace_endos(A, build(A))


@pytest.mark.parametrize("system", ["leibniz", "r"])
@pytest.mark.parametrize("desc", CATALOG)
def test_lifted_basis_equals_exact_solve_over_q(desc, system):
    A = _alg(desc)
    assert deriv._lifted_basis(A, system) is not None  # the modular route answered
    assert _entries(derivation_basis(A, system)) == _entries(_exact(A, system))


@pytest.mark.parametrize("eta", [Fraction(1, 3), Fraction(1, 4), Fraction(-1)])
@pytest.mark.parametrize("desc", ["S4", "S5", "W:A3", "3W:A2", "M3:2"])
def test_lifted_leibniz_basis_at_other_eta(desc, eta):
    A = build_matsuo(space_of(parse_group(desc)), eta, Q)
    assert deriv._lifted_basis(A, "leibniz") is not None
    assert _entries(derivation_basis(A, "leibniz")) == _entries(_exact(A, "leibniz"))


@pytest.mark.parametrize("eta", [Fraction(2**61), Fraction(1, MODULUS)])
def test_eta_without_image_mod_p_falls_back(eta):
    # 2^61 is 1 mod p, and p divides the denominator of 1/p
    A = build_matsuo(space_of(parse_group("S4")), eta, Q)
    assert deriv._lifted_basis(A, "leibniz") is None
    assert _entries(derivation_basis(A, "leibniz")) == _entries(_exact(A, "leibniz"))


@pytest.mark.parametrize(
    "lift",
    [lambda a, p: rational_lift(a, p) + 1, lambda a, p: None],
    ids=["wrong", "none"],
)
@pytest.mark.parametrize("system", ["leibniz", "r"])
def test_failed_lift_or_certificate_falls_back(monkeypatch, system, lift):
    A = _alg("S4")  # dim 3, with entries such as -7/6
    exact = _exact(A, system)
    monkeypatch.setattr(deriv, "rational_lift", lift)
    assert deriv._lifted_basis(A, system) is None
    assert _entries(derivation_basis(A, system)) == _entries(exact)


def test_r_relations_have_small_integer_coefficients():
    for desc in ("S5", "3W:A3", "M3:3"):
        coeffs = {v for row in r_relations(_alg(desc).fs) for v in row.values()}
        assert coeffs <= {-2, -1, 1, 2}
