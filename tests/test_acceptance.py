"""Acceptance criteria 1-8, one pass/fail line per check, exact tolerances.

Criterion 1 asserts dim Der = n for every 3^n:W instance except 3W:A2.  The
nine points of 3W:A2 are pairwise collinear, so its Fischer space is the
affine plane AG(2,3), the Fischer space of 3^2:2 (M3:2); a Matsuo algebra
depends only on its Fischer space and eta, so dim Der M(3W:A2) = 8, the value
of M3:2 (tests/test_fischer.py keeps the isomorphism as a witness).

Criterion 8 asserts that the rank-n torus of criteria 5 and 6 is a maximal
torus of the identity component: the Lie algebra Der has rank n.  For A1, A3
and D4, Der is abelian of dimension n, so the torus is the whole identity
component; for A2, Der is non-abelian of dimension 8 with a nondegenerate
Killing form, a form of sl_3.
"""

import time
from fractions import Fraction

import pytest
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from matsuo import autos
from matsuo.algebra import MatsuoAlgebra
from matsuo.deriv import (
    derivation_basis,
    is_derivation,
    satisfies_r_system,
    spans_agree,
    vanishing_report,
)
from matsuo.fields import PrimeField, Rationals, parse_field
from matsuo.fischer import space_of
from matsuo.linalg import apply
from matsuo.roots import parse_root_system
from matsuo.transpo import CATALOG, parse_group

Q = Rationals()
F7 = PrimeField(7)
F13 = PrimeField(13)
QS3 = parse_field("Q(sqrt:3)")
HALF = Fraction(1, 2)


def _alg(desc, field=Q):
    return MatsuoAlgebra(space_of(parse_group(desc)), field.coerce(HALF), field)


def _check(criterion: str, label: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {label}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, line


# criterion 1 -- derivation dimension table over Q, eta = 1/2, both systems


# 3W:A2 has dim 8, not its rank 2: its Fischer space is AG(2,3), as for M3:2
CRIT1 = [
    ("S3", 1, 5.0), ("S4", 3, 5.0), ("S5", 6, 5.0),
    ("3W:A1", 1, 60.0), ("3W:A2", 8, 60.0), ("3W:A3", 3, 60.0), ("3W:D4", 4, 60.0),
    ("W:D4", 0, 30.0), ("M3:3", 0, 30.0),
]


@pytest.mark.parametrize("desc,dim,budget", CRIT1, ids=[c[0] for c in CRIT1])
def test_criterion_1_derivation_dimensions(desc, dim, budget):
    t0 = time.time()
    A = _alg(desc)
    leib = derivation_basis(A, system="leibniz")
    rsys = derivation_basis(A, system="r")
    elapsed = time.time() - t0
    ok = (
        len(leib) == dim
        and len(rsys) == dim
        and spans_agree(A, leib, rsys)
        and elapsed < budget
    )
    _check(
        "criterion 1",
        f"dim Der M({desc}) = {dim} via both systems in <{budget:g}s",
        ok,
        f"leibniz={len(leib)} r={len(rsys)} elapsed={elapsed:.1f}s",
    )


def test_criterion_1_pgo_cross_check():
    ok = all((n - 1) * (n - 2) // 2 == d for n, d in ((3, 1), (4, 3), (5, 6)))
    _check("criterion 1", "M(S_n) dims match dim so(n-1) = (n-1)(n-2)/2", ok)


# criterion 2 -- R-system and Leibniz-system equivalence


@pytest.mark.parametrize("field,fname", [(Q, "Q"), (F7, "F7")], ids=["Q", "F7"])
def test_criterion_2_system_equivalence(field, fname):
    import random

    rng = random.Random(0)
    ok, detail = True, ""
    for desc in CATALOG:
        A = _alg(desc, field=field)
        b1 = derivation_basis(A, system="leibniz")
        b2 = derivation_basis(A, system="r")
        if len(b1) != len(b2) or not spans_agree(A, b1, b2):
            ok, detail = False, f"span mismatch on {desc}"
            break
        n = A.dim
        for _ in range(20):
            d = {}
            for a in range(n):
                for b in rng.sample(range(n), min(3, n)):
                    if not field.is_zero(v := field.coerce(rng.randint(-3, 3))):
                        d[a * n + b] = v
            if satisfies_r_system(A, d) != is_derivation(A, d):
                ok, detail = False, f"random-map disagreement on {desc}"
                break
        if not ok:
            break
    _check(
        "criterion 2",
        f"R <=> Leibniz for all catalog algebras over {fname} incl. 20 random maps each",
        ok,
        detail,
    )


# criterion 3 -- fusion law J(1/2) at every axis


@pytest.mark.parametrize("field,fname", [(Q, "Q"), (F7, "F7")], ids=["Q", "F7"])
def test_criterion_3_fusion_suite(field, fname, every_axis_fusion):
    ok, detail = True, ""
    for desc in CATALOG:
        A = _alg(desc, field=field)
        for a, (dims, violations) in enumerate(every_axis_fusion(desc, field)):
            if sum(dims) != A.dim or violations:
                ok, detail = False, f"{desc} axis {a}"
                break
        if not ok:
            break
    _check(
        "criterion 3",
        f"J(1/2) fusion law and eigendim sums at every axis over {fname}",
        ok,
        detail,
    )


# criterion 4 -- near-solid classification and vanishing coupling


def test_criterion_4_near_solid_classification():
    t0 = time.time()
    ok, detail = True, ""

    fs = space_of(parse_group("S5"))
    if not all(fs.is_near_solid(l)[0] for l in fs.lines):
        ok, detail = False, "S5"

    for desc in ("W:D4", "M3:3"):
        fs = space_of(parse_group(desc))
        if any(fs.is_near_solid(l)[0] for l in fs.lines):
            ok, detail = False, desc

    # small instances: every overspace of a line is 3-generated
    for desc in ("S3", "S4", "W:A2", "M3:2", "3W:A1"):
        fs = space_of(parse_group(desc))
        for line in fs.lines:
            lset = frozenset(line)
            for c in range(fs.n):
                for d in range(fs.n):
                    comp = fs.component_of(fs.closure(lset | {c, d}), line[0])
                    if fs._component_type(comp) != "ThreeGen":
                        ok, detail = False, f"{desc} has a 4-generated overspace"

    for desc in ("3W:A3", "3W:D4"):
        fs = space_of(parse_group(desc))
        near = [l for l in fs.lines if fs.is_near_solid(l)[0]]
        vertical = [l for l in fs.lines if fs.line_orbit_class(l) == "vertical"]
        if near != vertical or sorted(p for l in near for p in l) != list(range(fs.n)):
            ok, detail = False, f"{desc} spread"

    # vanishing coupling: nonzero d(a)_b only on near-solid lines
    for desc in ("S5", "W:D4", "3W:A3", "M3:3"):
        A = _alg(desc)
        basis = derivation_basis(A, system="r")
        for (a, b), vanishes in vanishing_report(A, basis).items():
            if not vanishes and not A.fs.is_near_solid((a, b, A.fs.third[a][b]))[0]:
                ok, detail = False, f"{desc} vanishing"

    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    _check(
        "criterion 4",
        "near-solid tables, spreads and vanishing coupling in <120s",
        ok,
        detail or f"elapsed={elapsed:.1f}s",
    )


# criterion 5 -- model B isomorphism


@pytest.mark.parametrize(
    "rstype,fdesc",
    [("A2", "Q(sqrt:3)"), ("A2", "Fp:13"), ("A3", "Q(sqrt:3)"), ("A3", "Fp:13")],
)
def test_criterion_5_model_b(rstype, fdesc):
    field = parse_field(fdesc)
    ok, detail = True, ""
    try:
        B = autos.ModelB(parse_root_system(rstype), field)
        M = _alg(f"3W:{rstype}", field=field)
        autos.model_b_iso(B, M)
    except Exception as e:  # verification failure is the criterion's failure
        ok, detail = False, str(e)
    _check(
        "criterion 5",
        f"model-B map for {rstype} over {fdesc} bijective and multiplicative",
        ok,
        detail,
    )


# criterion 6 -- torus and section suite


@pytest.mark.parametrize("rstype", ["A2", "A3"])
def test_criterion_6_torus_and_section(rstype):
    import random

    rng = random.Random(0)
    ok, detail = True, ""
    try:
        rs = parse_root_system(rstype)
        B = autos.ModelB(rs, QS3)
        params = []
        while len(params) < 25:
            try:
                params.append(
                    [
                        autos.pythagorean_param(QS3, Fraction(rng.randint(-30, 30), rng.randint(1, 9)))
                        for _ in range(rs.rank)
                    ]
                )
            except autos.CircleRelationViolated:
                continue
        for p in params:
            autos.torus_automorphism(B, p)  # raises on failure
        for p1, p2 in zip(params[:5], params[5:10]):
            r12 = autos.torus_automorphism(
                B, [autos.so2_mul(QS3, a, b) for a, b in zip(p1, p2)]
            )
            r1 = autos.torus_automorphism(B, p1)
            comp = [apply(r1, c, QS3) for c in autos.torus_automorphism(B, p2)]
            if any(B.sub(a, b) for a, b in zip(comp, r12)):
                ok, detail = False, "composition homomorphism"

        M = _alg(f"3W:{rstype}", field=QS3)
        for s in rs.simple_roots():
            autos.root_automorphism(M, autos.weyl_reflection_matrix(rs, s))
        autos.root_automorphism(
            M, autos.diagram_automorphism_matrix(rs, list(range(rs.rank - 1, -1, -1)))
        )

        B13 = autos.ModelB(rs, F13)
        rep = autos.character_report(
            B13, [autos.pythagorean_param(F13, 2 + k) for k in range(rs.rank)]
        )
        if not (rep["additive"] and rep["pair_products_proportional"]):
            ok, detail = False, "character additivity"
    except Exception as e:
        ok, detail = False, str(e)
    _check(
        "criterion 6",
        f"25 torus automorphisms, composition, Weyl/diagram sections, characters ({rstype})",
        ok,
        detail,
    )


# criterion 7 -- char-3 contrast


def test_criterion_7_char3_contrast():
    F3 = PrimeField(3)
    A = _alg("M3:3", field=F3)
    leib = derivation_basis(A, system="leibniz")
    rsys = derivation_basis(A, system="r")
    # value 52 frozen as a regression constant on first run (both systems)
    ok = len(leib) > 0 and len(leib) == len(rsys) == 52
    _check(
        "criterion 7",
        "dim Der(M(3^3:2)) over F3 positive and equal to frozen value 52",
        ok,
        f"leibniz={len(leib)} r={len(rsys)}",
    )


# criterion 8 -- the rank-n torus is a maximal torus of the identity component
#
# Der is the Lie algebra of the identity component of Aut M.  The torus has rank
# n, so it is a maximal torus exactly when Der has rank n, i.e. when ad x has
# nullity n at a generic x in Der.  The linear algebra is sympy's, independent
# of matsuo.linalg.


def _qq_columns(vectors, nrows):
    """DomainMatrix over QQ whose columns are the given sparse Fraction vectors."""
    rows = [[QQ(0)] * len(vectors) for _ in range(nrows)]
    for j, vec in enumerate(vectors):
        for i, v in vec.items():
            rows[i][j] = QQ.convert(v)
    return DomainMatrix(rows, (nrows, len(vectors)), QQ)


def _adjoint_matrices(A, basis, bracket):
    """ad d for each d in basis, in basis coordinates; None if the span is not
    closed under the commutator."""
    m, size = len(basis), A.dim * A.dim
    B = _qq_columns(basis, size)
    _, pivots = B.transpose().rref()  # coordinates on which the basis is independent
    if len(pivots) != m:
        return None
    pivots = list(pivots)
    brackets = _qq_columns([bracket(A, d, e) for d in basis for e in basis], size)
    coords = B.extract(pivots, list(range(m))).inv() * brackets.extract(pivots, list(range(m * m)))
    if B * coords != brackets:
        return None
    return [coords.extract(list(range(m)), list(range(i * m, (i + 1) * m))) for i in range(m)]


@pytest.mark.parametrize(
    "desc,rank", [("3W:A1", 1), ("3W:A2", 2), ("3W:A3", 3), ("3W:D4", 4)]
)
def test_criterion_8_der_dim_equals_torus_rank(desc, rank, bracket):
    import random

    A = _alg(desc)
    basis = derivation_basis(A, system="r")
    dim = len(basis)
    expected = {d: n for d, n, _ in CRIT1}[desc]
    ad = _adjoint_matrices(A, basis, bracket)
    if ad is None:
        ok, detail = False, f"computed dim {dim}, span not closed under the bracket"
    else:
        rng = random.Random(0)
        x = DomainMatrix.zeros((dim, dim), QQ)
        for a in ad:
            x = x + a * QQ(rng.randint(-9, 9))
        lie_rank = dim - x.rank()
        abelian = all(a.is_zero_matrix for a in ad)
        killing = DomainMatrix(
            [[sum(r[k] for k, r in enumerate((a * b).to_list())) for b in ad] for a in ad],
            (dim, dim),
            QQ,
        ).det()
        ok = (
            dim == expected
            and lie_rank == rank
            and abelian == (dim == rank)
            and (abelian or killing != 0)
        )
        detail = (
            f"computed dim {dim} (expected {expected}), Lie rank {lie_rank}, "
            f"abelian {abelian}, Killing det {killing}"
        )
    _check(
        "criterion 8",
        f"rank-{rank} torus is a maximal torus of Aut(M({desc}))^0: "
        f"Der has rank {rank}, dim {expected}",
        ok,
        detail,
    )
