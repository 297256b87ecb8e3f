"""The verify suites: extension of scalars, and fusion at one axis per orbit.

The rational suites may run over the base field: the first checks build the
algebra over Q and, explicitly, over Q(sqrt 3), and ask that the two give the
same verdict.  The fusion checks ask that one axis per orbit of the point
maps, under its certificate, gives the report of the check at every axis.
"""

import random
from fractions import Fraction

import pytest

from matsuo import autos, deriv, verify
from matsuo.algebra import MatsuoAlgebra
from matsuo.deriv import LinearEndo, derivation_basis
from matsuo.fields import DivisionByZero, PrimeField, QuadraticExtension, Rationals, base_field
from matsuo.fischer import FischerSpace, space_of
from matsuo.roots import parse_root_system
from matsuo.transpo import CATALOG, parse_group

Q = Rationals()
F7 = PrimeField(7)
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


def test_rational_suites_build_over_the_base_field(monkeypatch):
    """Fusion, equivalence and section build over k, model over K."""
    F5S3 = QuadraticExtension(PrimeField(5), 3)
    assert base_field(PrimeField(13)) == PrimeField(13)
    fields, algebra = [], verify._algebra
    monkeypatch.setattr(verify, "_algebra", lambda d, F: fields.append(F) or algebra(d, F))
    for K, k in ((QS3, Q), (F5S3, PrimeField(5))):
        assert base_field(K) == k
        fields.clear()
        verify.run("all", K, ["S3"], ["A1"], random.Random(0), 1)
        assert fields == [k, k, K, k]


@pytest.mark.parametrize("desc", SMALL)  # includes 3W:A2 (dim 9)
def test_fusion_and_derivations_agree_over_q_and_q_sqrt3(desc, every_axis_fusion):
    A, K = _over_q_and_q_sqrt3(desc)
    over_q = every_axis_fusion(desc, Q)
    assert [
        (tuple(map(len, K.eigendecompose(a).values())), K.check_fusion(a)) for a in range(K.dim)
    ] == over_q
    for system in ("leibniz", "r"):
        assert len(derivation_basis(A, system)) == len(derivation_basis(K, system))


@pytest.mark.parametrize("field", [QS3, F7], ids=["Q(sqrt3)", "F7"])
def test_equivalence_never_holds_the_r_rows(monkeypatch, field):
    """The solve, the certificate and each random-map check stream the (R1)-(R7) rows
    afresh: at most two of them are alive at once, over several passes per group."""
    passes, alive, r_relations = [], [0, 0], deriv.r_relations  # alive: now, most

    class Row(dict):
        def __del__(self):
            alive[0] -= 1

    def tracked(fs):
        passes.append(fs)
        for row in r_relations(fs):
            alive[0] += 1
            alive[1] = max(alive)
            yield Row(row)

    monkeypatch.setattr(deriv, "r_relations", tracked)
    groups = ["S4", "3W:A2", "M3:3"]
    ledger = verify.run("equivalence", field, groups, [], random.Random(0), 3)
    assert [e["passed"] for e in ledger] == [True] * len(groups)
    assert len(passes) >= 4 * len(groups)  # the solve and three random maps each
    assert alive[0] == 0 and alive[1] <= 2  # the row read and the one being made


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


# -- fusion: one axis per orbit of the point maps ------------------------------


def _lines_space(n, lines):
    """A Fischer space built by hand: the given lines on the points 0..n-1."""
    third = [[-1] * n for _ in range(n)]
    for line in lines:
        for x in line:
            for y in line:
                if x != y:
                    third[x][y] = sum(line) - x - y
    return FischerSpace(n, third, [str(x) for x in range(n)], "hand")


def _every_axis(per_axis):
    """The verdict of `verify.fusion` from the violations at every axis, as it
    was before the orbit rule."""
    bad = [v for found in per_axis for v in found]
    return not bad, bad[:3]


def _fusion_on(monkeypatch, A):
    """The fusion ledger entry of `verify.run` on A, and the axes it checked."""
    monkeypatch.setattr(verify, "_algebra", lambda desc, field: A)
    axes, check = [], MatsuoAlgebra.check_fusion

    def recording(self, a):
        axes.append(a)
        return check(self, a)

    monkeypatch.setattr(MatsuoAlgebra, "check_fusion", recording)
    (entry,) = verify.run("fusion", A.field, ["G"], [], random.Random(0), 0)
    return entry, axes


def _every_axis_entry(monkeypatch, A):
    """The ledger entry and the axes checked when `verify.fusion` checks every axis."""
    with monkeypatch.context() as m:
        m.setattr(MatsuoAlgebra, "is_matsuo_table", lambda self: False)
        return _fusion_on(m, A)


@pytest.mark.parametrize("field", [Q, F7], ids=["Q", "F7"])
@pytest.mark.parametrize("desc", CATALOG)
def test_fusion_at_one_axis_per_orbit_agrees_with_every_axis(desc, field, every_axis_fusion):
    A = verify._algebra(desc, field)
    assert A.is_matsuo_table()  # the certificate is accepted
    orbits = A.fs.point_orbits()
    assert orbits is not None and len(orbits) == len(A.fs.components())
    expected = _every_axis(found for _, found in every_axis_fusion(desc, field))
    assert verify.fusion(field, desc, None, 0) == expected


@pytest.mark.parametrize(
    "tamper", ["one entry", "diagonal", "non-collinear pair", "stray key", "asymmetric third"]
)
def test_matsuo_table_check_refuses_any_other_table(tamper):
    A = verify._algebra("S4", Q)
    assert A.is_matsuo_table()
    third = A.fs.third
    i, j = 0, next(b for b in range(A.dim) if A.fs.collinear(0, b))
    u, v = next((u, v) for u in range(A.dim) for v in range(u + 1, A.dim) if third[u][v] < 0)
    if tamper == "one entry":
        A.products[(i, j)] = {**A.products[(i, j)], i: Fraction(1, 3)}
    elif tamper == "diagonal":
        A.products[(i, i)] = {i: Fraction(1), j: Fraction(1)}
    elif tamper == "non-collinear pair":
        A.products[(u, v)] = {u: Fraction(1, 4)}
    elif tamper == "stray key":  # (j, i) with i < j is never read, but it is not the table
        A.products[(j, i)] = A.products[(i, j)]
    else:  # the table reads third[i][j] for i < j only, and the point maps read both
        third[j][i] = -1
    assert not A.is_matsuo_table()


def test_fusion_checks_every_axis_of_a_perturbed_table(monkeypatch):
    A = verify._algebra("S4", Q)  # perturbed as in test_matsuo.py: axis 0 is refused
    i, j = 0, next(b for b in range(A.dim) if A.fs.collinear(0, b))
    row = dict(A.products[(i, j)])
    row[next(iter(row))] += Fraction(1, 3)
    A.products[(i, j)] = row
    assert not A.is_matsuo_table() and A.fs.point_orbits() is not None
    expected = _every_axis_entry(monkeypatch, A)
    entry, axes = _fusion_on(monkeypatch, A)
    assert (entry, axes) == expected
    assert axes == [0] and "axis 0" in entry["detail"]["error"]  # it raises at the same axis


@pytest.mark.parametrize(
    "lines,n,orbits",
    [
        ([(0, 2, 4), (1, 3, 5)], 6, [[0, 2, 4], [1, 3, 5]]),  # two disjoint lines
        # not a Fischer space: x -> x^1 maps the line {0, 3, 4} onto {2, 3, 4}, no line,
        # and the fusion law fails
        ([(0, 1, 2), (0, 3, 4)], 5, None),
    ],
)
def test_fusion_on_a_hand_built_space(monkeypatch, lines, n, orbits):
    fs = _lines_space(n, lines)
    assert fs.point_orbits() == orbits
    A = MatsuoAlgebra(fs, Fraction(1, 2), Q)
    expected = _every_axis_entry(monkeypatch, A)[0]
    entry, axes = _fusion_on(monkeypatch, A)
    assert axes == ([o[0] for o in orbits] if orbits else list(range(n)))
    assert entry == expected and entry["passed"] == (orbits is not None)


def test_fusion_reruns_the_orbit_of_a_failing_representative(monkeypatch):
    def fails(self, a):  # two violations at each of the representatives 0, 1 and at axis 2
        return [{"axis": a, "law": law, "pair": (0, 0)} for law in ("0*0", "0*eta")] * (a < 3)

    monkeypatch.setattr(MatsuoAlgebra, "check_fusion", fails)
    A = MatsuoAlgebra(_lines_space(6, [(0, 2, 4), (1, 3, 5)]), Fraction(1, 2), Q)
    expected = _every_axis(A.check_fusion(a) for a in range(A.dim))
    entry, axes = _fusion_on(monkeypatch, A)
    assert axes == [0, 2, 4, 1, 3, 5]
    assert (entry["passed"], entry["detail"]) == expected
    assert [v["axis"] for v in entry["detail"]] == [0, 0, 1]  # in axis order, not orbit order
