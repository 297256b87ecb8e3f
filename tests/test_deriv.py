"""Derivation Lie algebras: dimensions, system equivalence, vanishing structure."""

import random
import tracemalloc
from collections import defaultdict
from fractions import Fraction

import pytest
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from matsuo import deriv, linalg
from matsuo.algebra import BadEta, IntegerForm, MatsuoAlgebra
from matsuo.cli import EXIT_OK, main
from matsuo.deriv import (
    MODULUS,
    LinearEndo,
    build_leibniz_system,
    build_r_system,
    derivation_basis,
    is_derivation,
    satisfies_r_system,
    spans_agree,
    vanishing_report,
)
from matsuo.fields import PrimeField, QuadraticExtension, Rationals, base_field, parse_field
from matsuo.fischer import space_of
from matsuo.linalg import axpy, rank, rational_lift
from matsuo.transpo import CATALOG, parse_group

Q = Rationals()
F7 = PrimeField(7)
QS3 = parse_field("Q(sqrt:3)")
F7S3 = parse_field("F7(sqrt:3)")
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
    return MatsuoAlgebra(space_of(parse_group(desc)), field.coerce(HALF), field)


def r_relations(fs):
    """The (R1)-(R7) rows in loop order, as one pass of three loops yields them: the
    oracle whose stable sort by length `deriv.r_relations` streams."""
    n = fs.n
    third = fs.third
    nbrs = [sorted(adj) for adj in fs.adjacency]

    for a, row_a in enumerate(third):
        yield {a * n + a: 1}  # (R1)
        for b, ba in enumerate(row_a):
            if ba < 0 and b != a:
                yield {a * n + b: 1}  # (R3)
            elif b < ba:
                yield {a * n + b: 1, a * n + ba: 1}  # (R2)

    for a, row_a in enumerate(third):
        for b in range(a + 1, n):
            if row_a[b] >= 0:
                continue
            row_b = third[b]  # (R4)
            for c in nbrs[a]:
                if row_b[c] >= 0 and c < (cab := row_b[row_a[c]]):
                    yield {a * n + c: 1, b * n + c: 1, a * n + cab: 1, b * n + cab: 1}

    for a, row_a in enumerate(third):
        for b in nbrs[a]:
            ab, row_b = row_a[b], third[b]
            for e in nbrs[a]:  # (R5)
                if e != b and row_b[e] < 0:
                    yield {ab * n + e: 1, a * n + e: -1, b * n + row_a[e]: -1}
            if a < b:  # (R6)
                for e in nbrs[a]:
                    if row_b[e] >= 0 and third[ab][e] >= 0:
                        yield {ab * n + e: 1, a * n + row_b[e]: -1, b * n + row_a[e]: -1}
            row = {b * n + a: 2, a * n + b: 1, ab * n + a: 1}  # (R7)
            for e in nbrs[b]:
                if e != a and row_a[e] < 0:
                    row[b * n + e] = -1
            yield row


def _items(rows):
    return [list(row.items()) for row in rows]


def _rows(A, system):
    return build_leibniz_system(A) if system == "leibniz" else build_r_system(A)


def _endos(A, rows):
    """The nullspace of `rows` over the field of A, solved there, as endomorphisms."""
    n = A.dim
    return [LinearEndo.from_vector(n, v) for v in linalg.nullspace(rows, n * n, A.field)]


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


@pytest.mark.parametrize(
    "desc,field",
    [
        pytest.param(desc, field, id=desc if name == "Q" else f"{desc}-{name}")
        for name, field in (("Q", Q), ("F7", F7), ("Q(sqrt:3)", QS3))
        for desc in ("S4", "3W:A2", "M3:2")
    ],
)
def test_random_maps_satisfy_r_iff_derivation(desc, field):
    A = _alg(desc, field)
    F = A.field
    rng = random.Random(11)
    basis = derivation_basis(A, system="leibniz")
    # over Q(sqrt:3) a derivation d is mixed in as (1 + sqrt 3) d, and odd trials
    # draw entries v sqrt 3: a mixed map's rational part is then d, its sqrt part not
    unit = F.coerce((1, 1)) if F == QS3 else F.one_raw()
    for trial in range(20):
        cols = [
            {
                b: F.coerce((0, v) if F == QS3 and trial % 2 else v)
                for b in rng.sample(range(A.dim), min(3, A.dim))
                if (v := rng.randint(-2, 2))
            }
            for _ in range(A.dim)
        ]
        if trial % 3 == 0 and basis:
            # mix a genuine derivation in to hit the positive branch too
            d0 = basis[trial % len(basis)]
            if trial % 6:
                cols = [axpy(c, unit, d, F) for c, d in zip(cols, d0.cols)]
            else:
                cols = [A.scale(unit, d) for d in d0.cols]
        d = LinearEndo(A.dim, cols)
        assert satisfies_r_system(A, d) == is_derivation(A, d)


def test_negative_controls():
    A = _alg("S4")
    ident = LinearEndo(A.dim, [{a: A.field.one_raw()} for a in range(A.dim)])
    assert not is_derivation(A, ident)
    assert not satisfies_r_system(A, ident)
    assert is_derivation(A, LinearEndo(A.dim, [{} for _ in range(A.dim)]))


def _bracket(A, d, e):
    """The Lie bracket [d, e] = d e - e d, from `LinearEndo.compose`."""
    de, ed = d.compose(A, e), e.compose(A, d)
    return LinearEndo(A.dim, [A.sub(x, y) for x, y in zip(de.cols, ed.cols)])


def test_basis_members_are_derivations_and_lie_closed():
    for desc in ("S5", "3W:A3"):
        A = _alg(desc)
        basis = derivation_basis(A, system="r")
        for d in basis:
            assert is_derivation(A, d)
        for d in basis:
            for e in basis:
                assert is_derivation(A, _bracket(A, d, e))


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
                assert near[tuple(sorted((a, b, fs.third[a][b])))], (desc, a, b)


def test_s5_has_nonzero_entries_on_every_line():
    A = _alg("S5")
    report = vanishing_report(A, derivation_basis(A, system="r"))
    lines_hit = {
        tuple(sorted((a, b, A.fs.third[a][b])))
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
                    s = sum((d.cols[a].get(b) or Fraction(0)) for b in line)
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
                v = d.cols[pt[(0, alpha)]].get(pt[(1, alpha)])
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
    A = MatsuoAlgebra(space_of(parse_group("S3")), Fraction(1, 3), Q)
    with pytest.raises(BadEta):
        build_r_system(A)
    # 1/2 + p is 1/2 mod p, but the relations still do not apply over Q
    A = MatsuoAlgebra(space_of(parse_group("S3")), Fraction(1, 2) + MODULUS, Q)
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
        dim_full = len(_endos(A, rows))
        dim_no_r7 = len(_endos(A, without_r7))
        assert dim_full == DIMS[desc]
        assert dim_no_r7 >= dim_full  # dropping constraints can only grow it


def _entries(basis):
    return [d.cols for d in basis]


def _exact(A, system):
    return _endos(A, _rows(A, system))


@pytest.mark.parametrize("system", ["leibniz", "r"])
@pytest.mark.parametrize("desc", CATALOG)
def test_lifted_basis_equals_exact_solve_over_q(desc, system):
    """The modular route answers, with the lift of the full solve mod p entry for
    entry, keys in order (certifying a prefix of the rows changes no byte), and
    that is the basis of the exact solve over Q."""
    A = _alg(desc)
    rows, ncols = _rows(A, system), A.dim * A.dim
    full = linalg.nullspace(rows, ncols, PrimeField(MODULUS))
    lifted = [{u: rational_lift(v, MODULUS) for u, v in x.items()} for x in full]
    staged = deriv._lifted_basis(rows, ncols)
    assert [list(x.items()) for x in staged] == [list(x.items()) for x in lifted]
    assert _entries(derivation_basis(A, system)) == _entries(_exact(A, system))


@pytest.mark.parametrize(
    "eta", [Fraction(1, 3), Fraction(1, 4), Fraction(-1), Fraction(7, 10), Fraction(-5, 3)]
)
@pytest.mark.parametrize("desc", ["S4", "S5", "W:A3", "3W:A2", "M3:2"])
def test_lifted_leibniz_basis_at_other_eta(desc, eta):
    A = MatsuoAlgebra(space_of(parse_group(desc)), eta, Q)
    assert deriv._lifted_basis(_rows(A, "leibniz"), A.dim * A.dim) is not None
    assert _entries(derivation_basis(A, "leibniz")) == _entries(_exact(A, "leibniz"))


@pytest.mark.parametrize("eta", [Fraction(2**61), Fraction(1, MODULUS)])
@pytest.mark.parametrize("desc", ["S4", "S5", "W:A3", "3W:A2", "M3:2"])
def test_lift_is_certified_at_eta_without_image_mod_p(desc, eta):
    # 2^61 is 1 mod p, and p divides the denominator of 1/p
    A = MatsuoAlgebra(space_of(parse_group(desc)), eta, Q)
    assert deriv._lifted_basis(_rows(A, "leibniz"), A.dim * A.dim) == []
    assert _entries(derivation_basis(A, "leibniz")) == _entries(_exact(A, "leibniz"))


def _one_wrong_entry(rows, vectors, field, orthogonal=deriv._orthogonal):
    """`_orthogonal` on the vectors with their first entry other than 1 made 1 larger.

    A free column lifts to 1, so the wrong entry sits on a pivot column, which
    some row names: the perturbed vector solves no system.  It stands in for
    `_orthogonal` at every checkpoint, so each certificate sees the wrong entry.
    """
    vectors = [dict(x) for x in vectors]
    x = next(x for x in vectors if set(x.values()) != {1})
    u = next(u for u, v in x.items() if v != 1)
    x[u] += 1
    return orthogonal(rows, vectors, field)


@pytest.mark.parametrize(
    "system,name,patch",
    [
        pytest.param(system, name, patch, id=f"{system}-{tag}")
        for system in ("leibniz", "r")
        for tag, name, patch in (
            ("wrong", "rational_lift", lambda a, p: rational_lift(a, p) + 1),
            ("none", "rational_lift", lambda a, p: None),
            ("one", "_orthogonal", _one_wrong_entry),
        )
    ],
)
def test_failed_lift_or_certificate_falls_back(monkeypatch, system, name, patch):
    A = _alg("S4")  # dim 3, with entries such as -7/6
    exact = _exact(A, system)
    monkeypatch.setattr(deriv, name, patch)
    assert deriv._lifted_basis(_rows(A, system), A.dim * A.dim) is None
    assert _entries(derivation_basis(A, system)) == _entries(exact)


def _offer(monkeypatch, basis):
    """Make the solve mod p offer `basis`, a basis over Q, as its one checkpoint."""

    def solve(rows, ncols, field, check):
        residues = [
            {u: v.numerator * pow(v.denominator, -1, MODULUS) % MODULUS for u, v in x.items()}
            for x in basis
        ]
        check(residues)
        return residues

    monkeypatch.setattr(linalg, "nullspace", solve)


@pytest.mark.parametrize("system", ["leibniz", "r"])
def test_certificate_rejects_one_wrong_entry_in_any_vector(monkeypatch, system):
    """Each lifted entry of 3W:A2's eight vectors, made wrong on its own, fails the
    certificate that `_lifted_basis` runs, and so does one nonzero entry at each
    unknown outside their support: the (R1)-(R7) certificate reads only the rows
    that name the support of the vectors it checks, and the nine unknowns d(a)_a
    outside it are named by their (R1) rows alone."""
    A = _alg("3W:A2")
    rows, ncols = _rows(A, system), A.dim * A.dim
    basis = deriv._lifted_basis(rows, ncols)
    entries = [(i, u) for i, x in enumerate(basis) for u in x]
    outside = sorted(set(range(ncols)).difference(*basis))
    assert len(basis) == 8 and len(entries) == 96
    assert outside == [a * A.dim + a for a in range(A.dim)]
    _offer(monkeypatch, basis)
    assert deriv._lifted_basis(rows, ncols) == basis
    for i, u in entries + [(i, u) for i in range(len(basis)) for u in outside]:
        wrong = [dict(x) for x in basis]
        wrong[i][u] = wrong[i].get(u, 0) + 1
        _offer(monkeypatch, wrong)
        assert deriv._lifted_basis(rows, ncols) is None, (i, u)


def _certificates(monkeypatch):
    """The verdicts of the `_orthogonal` calls made from now on, in order."""
    verdicts, orthogonal = [], deriv._orthogonal

    def spy(*args):
        verdicts.append(orthogonal(*args))
        return verdicts[-1]

    monkeypatch.setattr(deriv, "_orthogonal", spy)
    return verdicts


def test_a_failed_checkpoint_lets_the_solve_go_on(monkeypatch):
    """S4's Leibniz rows of length 5 add no pivot, but the first row of length 7 does:
    the basis at that checkpoint fails, and the one at the end of the rows passes."""
    A = _alg("S4")
    verdicts = _certificates(monkeypatch)
    assert len(deriv._lifted_basis(_rows(A, "leibniz"), A.dim * A.dim)) == DIMS["S4"]
    assert verdicts == [False, True]


@pytest.mark.parametrize("system", ["leibniz", "r"])
def test_full_rank_runs_no_certificate(monkeypatch, system):
    A = _alg("M3:3")
    verdicts = _certificates(monkeypatch)
    assert deriv._lifted_basis(_rows(A, system), A.dim * A.dim) == []
    assert verdicts == []


@pytest.mark.parametrize("system", ["leibniz", "r"])
def test_a_certified_checkpoint_ends_the_solve(monkeypatch, system):
    """On 3W:D4 the first checkpoint passes, and the rows after it are never read."""
    A = _alg("3W:D4")
    rows = _rows(A, system)
    inserted, insert = [], linalg.Echelon.insert
    monkeypatch.setattr(linalg.Echelon, "insert", lambda *a: inserted.append(a) or insert(*a))
    verdicts = _certificates(monkeypatch)
    assert len(deriv._lifted_basis(rows, A.dim * A.dim)) == DIMS["3W:D4"]
    assert verdicts == [True]
    assert len(inserted) < len(rows)


def _naive_leibniz_rows(A):
    """Coordinate c of d(a)b + a d(b) - d(ab) for a <= b, expanded term by term."""
    F, n = A.field, A.dim
    rows = []
    for a in range(n):
        for b in range(a, n):
            for c in range(n):
                terms = [(a * n + y, A.basis_product(y, b).get(c)) for y in range(n)]
                terms += [(b * n + y, A.basis_product(a, y).get(c)) for y in range(n)]
                terms += [(x * n + c, F.neg(w)) for x, w in A.basis_product(a, b).items()]
                row = {}
                for u, v in terms:
                    if v is not None:
                        row[u] = F.add(row[u], v) if u in row else v
                row = {u: v for u, v in row.items() if not F.is_zero(v)}
                if row:
                    rows.append(row)
    return rows


def _row_multiset(rows):
    return sorted(tuple(sorted(row.items())) for row in rows)


@pytest.mark.parametrize(
    "field,eta", [(PrimeField(13), HALF), (Q, Fraction(7, 10))], ids=["F13", "Q"]
)
@pytest.mark.parametrize("desc", ["S4", "3W:A2", "M3:2"])
def test_leibniz_builder_matches_naive_expansion(desc, field, eta):
    # over Q the rows are the naive rows times the scale of the integer table
    A = MatsuoAlgebra(space_of(parse_group(desc)), eta, field)
    scale = A.integer_table[0]
    naive = [{u: scale * v for u, v in row.items()} for row in _naive_leibniz_rows(A)]
    assert _row_multiset(build_leibniz_system(A)) == _row_multiset(naive)


@pytest.mark.parametrize("desc", ["S4", "3W:A2", "M3:2"])
def test_leibniz_rows_refuse_a_table_outside_the_prime_field(desc):
    # at eta = 1 + sqrt 3 the products hold sqrt 3, so no row has entries in F_7
    A = MatsuoAlgebra(space_of(parse_group(desc)), (1, 1), F7S3)
    with pytest.raises(BadEta, match="outside Fp:7,"):
        build_leibniz_system(A)
    with pytest.raises(BadEta):
        derivation_basis(A)


@pytest.mark.parametrize(
    "eta,scale", [(HALF, 4), (Fraction(7, 10), 20), (Fraction(-5, 3), 6), (Fraction(-1), 2)]
)
def test_integer_leibniz_rows_are_scaled_rows_over_q(eta, scale):
    # the table holds 1 and +-eta/2, so the scale is the denominator of eta/2
    A = MatsuoAlgebra(space_of(parse_group("3W:A2")), eta, Q)
    assert IntegerForm(Q, A.products.values()).scale == A.integer_table[0] == scale
    rows = build_leibniz_system(A)
    assert all(type(v) is int for row in rows for v in row.values())
    oracle = sorted(_generic_leibniz_rows(Q, A.dim, A.products), key=len)  # Fraction rows
    assert rows == [{u: scale * v for u, v in row.items()} for row in oracle]


@pytest.mark.parametrize(
    "field", [Q, PrimeField(13), PrimeField(MODULUS), QS3, F7S3],
    ids=["Q", "F13", f"F{MODULUS}", "Q(sqrt3)", "F7(sqrt3)"],
)
def test_r_system_is_integer_rows(field):
    # the eliminator reads unreduced integer rows over F_p too, so -1 stays -1;
    # over k(sqrt d) the rows are solved over k, so they are not coerced either
    A = _alg("S4", field)
    rows = list(build_r_system(A))
    assert rows == sorted(r_relations(A.fs), key=len)
    assert all(type(v) is int for row in rows for v in row.values())


@pytest.mark.parametrize("desc", [*CATALOG, "M3:4", "W:E7", "3W:E6"])
def test_r_source_streams_the_stable_sort_of_the_loops(desc):
    """Row for row and key for key the stable shortest-first sort of the loop order,
    on every pass; `len` counts the rows."""
    A = _alg(desc)
    source, oracle = build_r_system(A), sorted(r_relations(A.fs), key=len)
    assert len(source) == len(oracle)
    assert _items(source) == _items(oracle)
    assert _items(source) == _items(oracle)


def test_builders_share_one_int_per_unknown():
    """On 3W:D4 the 103,644 Leibniz entries and every (R1)-(R7) entry name at most
    n^2 distinct key objects (the keys are held, so no id is reused)."""
    A = _alg("3W:D4")
    leibniz = build_leibniz_system(A)
    keys = [u for row in leibniz for u in row] + [u for row in build_r_system(A) for u in row]
    assert sum(len(row) for row in leibniz) == 103644
    assert len({id(u) for u in keys}) <= A.dim * A.dim


def test_r_solve_holds_no_row_list():
    """Solving and certifying the 3W:D4 rows over Q peaks under 2 MB of Python memory."""
    A = _alg("3W:D4")
    tracemalloc.start()
    try:
        basis = derivation_basis(A, "r")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(basis) == DIMS["3W:D4"]
    assert peak < 2 * 1024 * 1024


def test_r_relations_have_small_integer_coefficients():
    for desc in ("S5", "3W:A3", "M3:3"):
        coeffs = {v for row in r_relations(_alg(desc).fs) for v in row.values()}
        assert coeffs <= {-2, -1, 1, 2}


def _r_relations_brute(fs):
    """(R1)-(R7) by a loop over all points, each row as often as the families name it."""
    n, third = fs.n, fs.third

    def coll(i, j):
        return third[i][j] >= 0

    for a in range(n):
        yield {a * n + a: 1}
        for b in range(n):
            if b != a:
                if coll(a, b):
                    yield {a * n + b: 1, a * n + third[a][b]: 1}
                else:
                    yield {a * n + b: 1}
    for a in range(n):
        for b in range(a + 1, n):
            if not coll(a, b):
                for c in range(n):
                    if coll(a, c) and coll(b, c):
                        cab = third[third[c][a]][b]
                        yield {a * n + c: 1, b * n + c: 1, a * n + cab: 1, b * n + cab: 1}
    for a in range(n):
        for b in range(n):
            if a == b or not coll(a, b):
                continue
            ab = third[a][b]
            for e in range(n):
                if e not in (a, b) and coll(a, e) and not coll(b, e):
                    yield {ab * n + e: 1, a * n + e: -1, b * n + third[e][a]: -1}
            for e in range(n):
                if e not in (a, b, ab) and coll(a, e) and coll(b, e) and coll(ab, e):
                    yield {ab * n + e: 1, a * n + third[e][b]: -1, b * n + third[e][a]: -1}
            row = {b * n + a: 2, a * n + b: 1, ab * n + a: 1}
            for e in range(n):
                if e != a and not coll(a, e) and coll(b, e):
                    row[b * n + e] = -1
            yield row


@pytest.mark.parametrize("desc", ["S5", "W:D4", "3W:A3", "3W:D4", "M3:3"])
def test_r_relations_yield_each_brute_force_row_once(desc):
    """The rows are the brute-force set, none twice: the first copy of each, in the
    order the brute-force loop first reaches it, with its coefficients in its order."""
    fs = space_of(parse_group(desc))
    rows = list(r_relations(fs))
    first = {}
    for row in _r_relations_brute(fs):
        first.setdefault(frozenset(row.items()), list(row.items()))
    assert len({frozenset(row.items()) for row in rows}) == len(rows)
    assert {frozenset(row.items()) for row in rows} == set(first)
    assert [list(row.items()) for row in rows] == list(first.values())


@pytest.mark.parametrize("desc", CATALOG)
def test_rows_naming_a_set_are_the_brute_force_rows_that_name_it(desc):
    """Given a set of unknowns, `r_relations` yields each brute-force row that names
    one of them, once, and no other row: for each single unknown on the groups of
    at most 18 points, else for the support of the lifted basis over Q and three
    seeded random sets."""
    fs = space_of(parse_group(desc))
    n = fs.n
    naming = defaultdict(set)  # unknown -> the brute-force rows that name it
    for row in _r_relations_brute(fs):
        for u in row:
            naming[u].add(frozenset(row.items()))
    if n <= 18:
        sets = [{u} for u in range(n * n)]
    else:
        support = set().union(*deriv._lifted_basis(build_r_system(_alg(desc)), n * n))
        rng = random.Random(n)
        sets = [support] + [set(rng.sample(range(n * n), k)) for k in (1, 10, 100)]
    for names in sets:
        rows = [frozenset(row.items()) for row in deriv.r_relations(fs, names)]
        assert len(set(rows)) == len(rows), names
        assert set(rows) == set().union(*(naming[u] for u in names)), names


def _generic_leibniz_rows(F, n, products):
    """Coordinate c of d(a)b + a d(b) - d(ab), a <= b, over F, with one table lookup per (y, b)."""

    def prod(i, j):
        return products.get((i, j) if i <= j else (j, i), {})

    rows = []
    for a in range(n):
        for b in range(a, n):
            byc = {}
            for y in range(n):
                for c, v in prod(y, b).items():
                    byc.setdefault(c, {})[a * n + y] = v
                if a != b:
                    for c, v in prod(a, y).items():
                        byc.setdefault(c, {})[b * n + y] = v
            if a == b:
                for c in byc:
                    byc[c] = {u: F.add(v, v) for u, v in byc[c].items()}
            for x, w in prod(a, b).items():
                w = F.neg(w)
                for c in range(n):
                    row = byc.setdefault(c, {})
                    u = x * n + c
                    v = F.add(row[u], w) if u in row else w
                    if F.is_zero(v):
                        del row[u]
                    else:
                        row[u] = v
            rows.extend(r for r in byc.values() if r)
    return rows


@pytest.mark.parametrize(
    "field", [Q, PrimeField(13), QS3, F7S3], ids=["Q", "F13", "Q(sqrt3)", "F7(sqrt3)"]
)
@pytest.mark.parametrize("desc", ["S4", "W:D4", "3W:A2", "M3:2"])
def test_leibniz_builder_keeps_the_generic_row_list(desc, field):
    """Row for row in the stable shortest-first order, each row's coefficients in
    their order, over the prime field k: over F_p the residues of the table are
    read, over Q and Q(sqrt 3) the rational parts of its integer form, and over
    F_7(sqrt 3) those parts are residues."""
    A = _alg(desc, field)
    if isinstance(field, PrimeField):
        products = A.products
    else:
        products = {ij: r for ij, (r, _) in A.integer_table[1].items()}
    rows = build_leibniz_system(A)
    oracle = sorted(_generic_leibniz_rows(base_field(field), A.dim, products), key=len)
    assert rows == oracle
    assert [list(row.items()) for row in rows] == [list(row.items()) for row in oracle]


@pytest.mark.parametrize("desc", ["W:D4", "M3:3", "W:E6"])
def test_nullspace_stops_feeding_rows_at_full_rank(monkeypatch, desc):
    """Der = 0 here: once every column is a pivot the rest of the rows are not read,
    and the solved form is the one the full run ends with."""
    A = _alg(desc)
    ncols = A.dim * A.dim
    Fp = PrimeField(MODULUS)
    for system in ("leibniz", "r"):
        rows = _rows(A, system)
        full = linalg._echelon(rows, Fp)
        assert full.rank == ncols
        inserts, insert = [], linalg.Echelon.insert
        monkeypatch.setattr(linalg.Echelon, "insert", lambda *a: inserts.append(a) or insert(*a))
        early = linalg._echelon(rows, Fp, ncols)
        monkeypatch.undo()
        assert early.solved == full.solved
        assert len(inserts) < len(rows)
        assert linalg.nullspace(rows, ncols, Fp) == []


@pytest.mark.parametrize("field", [Q, PrimeField(13)], ids=["Q", "F13"])
def test_rows_on_forced_zero_columns_are_not_reduced(monkeypatch, field):
    """On 3W:D4, 16,016 of the 37,944 rows of the two systems reach `reduce`; the
    rest lie on pivots whose solution is empty.  The solved forms, pivot order
    included, are those of a loop that reduces every row."""
    A = _alg("3W:D4", field)
    F = PrimeField(MODULUS) if field == Q else field
    reduced, rows_in, reduce = [], 0, linalg.Echelon.reduce
    for system in ("leibniz", "r"):
        rows = _rows(A, system)
        rows_in += len(rows)
        monkeypatch.setattr(linalg.Echelon, "reduce", lambda *a: reduced.append(a) or reduce(*a))
        ech = linalg._echelon(rows, F, A.dim * A.dim)
        monkeypatch.undo()
        ref = linalg.Echelon(F)
        for row in rows:  # the builders order the rows; the kernel feeds them as given
            if ref.reduce(row):
                ref.insert(row)
        assert list(ech.solved) == list(ref.solved)
        assert ech.solved == ref.solved
    assert (rows_in, len(reduced)) == (37944, 16016)


@pytest.mark.parametrize("system", ["leibniz", "r"])
@pytest.mark.parametrize("field", [QS3, F7S3], ids=["Q(sqrt3)", "F7(sqrt3)"])
@pytest.mark.parametrize("desc", ["S4", "3W:A2", "M3:2"])
def test_basis_over_an_extension_is_the_base_basis_coerced(desc, field, system):
    k_basis = derivation_basis(_alg(desc, field.base), system)
    coerced = [[{b: field.coerce(v) for b, v in col.items()} for col in d.cols] for d in k_basis]
    assert _entries(derivation_basis(_alg(desc, field), system)) == coerced


@pytest.mark.parametrize("field", ["Q(sqrt:3)", "F13(sqrt:2)"])
def test_derive_solves_no_row_over_an_extension(monkeypatch, capsys, field):
    fields, nullspace = [], linalg.nullspace

    def spy(rows, n, F, *check):
        fields.append(F)
        return nullspace(rows, n, F, *check)

    monkeypatch.setattr(linalg, "nullspace", spy)
    assert main(["derive", "3W:A2", "--field", field, "--system", "both"]) == EXIT_OK
    assert "dimension" in capsys.readouterr().out
    assert fields and not any(isinstance(F, QuadraticExtension) for F in fields)


@pytest.mark.parametrize("eta", [str(2**61), f"1/{MODULUS}"])
def test_derive_over_q_solves_only_mod_p_at_any_eta(monkeypatch, capsys, eta):
    """At an eta that is 1 mod p, or whose denominator p divides, the rows are still
    solved mod p and the lift certified: no solve over Q runs."""
    fields, nullspace = [], linalg.nullspace

    def spy(rows, n, F, *check):
        fields.append(F)
        return nullspace(rows, n, F, *check)

    monkeypatch.setattr(linalg, "nullspace", spy)
    assert main(["derive", "S4", "--system", "leibniz", "--eta", eta]) == EXIT_OK
    assert "dimension: {'leibniz': 0}" in capsys.readouterr().out
    assert fields == [PrimeField(MODULUS)]


def test_is_derivation_reads_the_integer_table_of_the_algebra(monkeypatch):
    """Once the table is cleared of its denominators, each check clears only the
    images of d: n vectors, where rebuilding the table would clear every product."""
    A = _alg("3W:A2")
    basis = derivation_basis(A, "leibniz") + derivation_basis(A, "r")
    table = A.integer_table
    cleared, vector = [], IntegerForm.vector
    monkeypatch.setattr(IntegerForm, "vector", lambda form, x: cleared.append(x) or vector(form, x))
    for d in basis:
        assert is_derivation(A, d)
    assert not is_derivation(A, LinearEndo(A.dim, [{a: 1} for a in range(A.dim)]))
    assert len(cleared) == (len(basis) + 1) * A.dim
    assert A.integer_table is table
