"""Extension of scalars: the rational verify suites may run over the base field.

Each check below builds the algebra over Q and, explicitly, over Q(sqrt 3),
and asks that the two give the same verdict.
"""

import random
from fractions import Fraction

import pytest

from matsuo import autos, verify
from matsuo.algebra import MatsuoAlgebra
from matsuo.deriv import LinearEndo, derivation_basis
from matsuo.fields import DivisionByZero, PrimeField, QuadraticExtension, Rationals
from matsuo.fischer import space_of
from matsuo.roots import parse_root_system
from matsuo.transpo import CATALOG, parse_group

Q = Rationals()
QS3 = QuadraticExtension(Q, 3)
SMALL = [g for g in CATALOG if space_of(parse_group(g)).n <= 15]


def _over_q_and_q_sqrt3(desc):
    fs = space_of(parse_group(desc))
    return tuple(MatsuoAlgebra(fs, F.coerce(Fraction(1, 2)), F) for F in (Q, QS3))


def _verdict(check, *args):
    try:
        check(*args)
    except autos.AutosError as e:
        return type(e).__name__
    return "pass"


def test_rational_suites_build_over_the_base_field():
    F5S3 = QuadraticExtension(PrimeField(5), 3)
    assert verify._base_algebra("S3", QS3).field == Q
    assert verify._base_algebra("S3", F5S3).field == PrimeField(5)
    assert verify._base_algebra("S3", PrimeField(13)).field == PrimeField(13)


@pytest.mark.parametrize("desc", SMALL)  # includes 3W:A2 (dim 9)
def test_fusion_and_derivations_agree_over_q_and_q_sqrt3(desc):
    A, K = _over_q_and_q_sqrt3(desc)
    for a in range(A.dim):
        assert A.eigendecompose(a).dims == K.eigendecompose(a).dims
        assert A.check_fusion(a) == K.check_fusion(a)
    for system in ("leibniz", "r"):
        assert len(derivation_basis(A, system)) == len(derivation_basis(K, system))


@pytest.mark.parametrize("t", ["A2", "A3"])
def test_root_automorphism_verdicts_agree_over_q_and_q_sqrt3(t):
    rs = parse_root_system(t)
    A, K = _over_q_and_q_sqrt3(f"3W:{t}")
    simples = rs.simple_roots()
    mats = [autos.weyl_reflection_matrix(rs, s) for s in simples]
    mats.append(autos.diagram_automorphism_matrix(rs, list(range(rs.rank - 1, -1, -1))))
    mats.append([simples[0]] * rs.rank)  # not an isometry
    verdicts = []
    for mat in mats:
        verdicts.append(_verdict(autos.root_automorphism, A, mat))
        assert _verdict(autos.root_automorphism, K, mat) == verdicts[-1]
    rng = random.Random(0)
    for _ in range(10):  # point permutations: 0/1 maps that are almost never automorphisms
        perm = rng.sample(range(A.dim), A.dim)
        over_q, over_k = (LinearEndo(M.dim, [{p: M.field.one_raw()} for p in perm]) for M in (A, K))
        verdicts.append(_verdict(autos.verify_automorphism, A, over_q))
        assert _verdict(autos.verify_automorphism, K, over_k) == verdicts[-1]
    assert {"pass", "NotRootAutomorphism", "VerificationFailure"} <= set(verdicts)


@pytest.mark.parametrize(
    "field,seed",
    [(PrimeField(13), 0), (PrimeField(37), 14), (QuadraticExtension(PrimeField(7), 3), 0)],
)
def test_param_skips_points_not_on_the_circle(field, seed):
    # the first t = a/b drawn at this seed has 1 + t^2 = 0, or b = 7 in characteristic 7
    rng = random.Random(seed)
    t = Fraction(rng.randrange(-20, 21), rng.randrange(1, 12))
    with pytest.raises((autos.CircleRelationViolated, DivisionByZero)):
        autos.pythagorean_param(field, t)
    c, s = verify._param(field, random.Random(seed))
    assert field.add(field.mul(c, c), field.mul(s, s)) == field.one_raw()


@pytest.mark.parametrize("t,fixed", [("A2", 5), ("A3", 10)])
def test_torus_fixed_space_dim_counts_identity_rotations(monkeypatch, t, fixed):
    F13 = PrimeField(13)
    rho = autos.pythagorean_param(F13, 2)
    draws = [rho, (rho[0], F13.neg(rho[1])), rho]  # alpha_1 + alpha_2 rotates by the identity
    stream = iter(draws)
    monkeypatch.setattr(verify, "_param", lambda field, rng, nontrivial=False: next(stream))
    passed, detail = verify.torus(F13, t, random.Random(0), 0)
    assert passed and detail["fixed_space_dim"] == fixed
    B = autos.ModelB(parse_root_system(t), F13)
    endo = autos.torus_automorphism(B, draws[: B.rs.rank])
    assert sum(1 for i in range(B.dim) if not B.sub(endo.cols[i], {i: F13.one_raw()})) == fixed
