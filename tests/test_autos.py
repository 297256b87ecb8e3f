"""Automorphism constructions: model B, its isomorphism, torus, root maps, ZS_n."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from matsuo.algebra import BadCharacteristic, IntegerForm, MatsuoAlgebra
from matsuo.autos import (
    CircleRelationViolated,
    ModelB,
    NoSqrt3,
    NotRootAutomorphism,
    VerificationFailure,
    ZeroSumJordan,
    character_report,
    diagram_automorphism_matrix,
    model_b_iso,
    pythagorean_param,
    root_automorphism,
    so2_mul,
    symmetric_model_iso,
    torus_automorphism,
    verify_automorphism,
    weyl_reflection_matrix,
)
from matsuo.deriv import LinearEndo
from matsuo.fields import PrimeField, Rationals, parse_field
from matsuo.fischer import space_of
from matsuo.linalg import axpy, rank
from matsuo.roots import parse_root_system
from matsuo.transpo import parse_group

Q = Rationals()
F13 = PrimeField(13)
QS3 = parse_field("Q(sqrt:3)")
HALF = Fraction(1, 2)


def _matsuo(desc, field):
    return MatsuoAlgebra(space_of(parse_group(desc)), field.coerce(HALF), field)


# -- model B -------------------------------------------------------------------


def _theta(F, s3, r, cx, cy, power):
    """cx theta^power(x_r) + cy theta^power(y_r), for theta(x) = x/2 - (sqrt3/2) y and
    theta(y) = (sqrt3/2) x + y/2, the sixth-root rotation that twists model B."""
    half = F.div(F.one_raw(), F.coerce(2))
    h3 = F.mul(s3, half)
    if power < 0:
        h3 = F.neg(h3)
    nx = F.add(F.mul(cx, half), F.mul(cy, h3))
    ny = F.add(F.neg(F.mul(cx, h3)), F.mul(cy, half))
    return {k: v for k, v in ((3 * r + 1, nx), (3 * r + 2, ny)) if not F.is_zero(v)}


def _oracle_products(rs, F):
    """Model B's table built root by root: the pairing, the reflection and the root sum
    or difference from tuples, each twisted product from `_theta`."""
    s3 = F.sqrt_raw(F.coerce(3))
    half = F.div(F.one_raw(), F.coerce(2))
    nine_quarter = F.div(F.coerce(9), F.coerce(4))
    three_q = F.div(F.coerce(3), F.coerce(4))
    zero = F.zero_raw()
    products = {}

    def put(i, j, vec):
        key = (i, j) if i <= j else (j, i)
        products[key] = {k: v for k, v in vec.items() if not F.is_zero(v)}

    def positive(v):
        return v if rs.is_positive(v) else tuple(-c for c in v)

    roots = rs.positive_roots
    ridx = {a: r for r, a in enumerate(roots)}
    for r in range(len(roots)):
        u, x, y = 3 * r, 3 * r + 1, 3 * r + 2
        put(u, u, {u: F.one_raw()})
        put(u, x, {x: F.one_raw()})
        put(u, y, {y: F.one_raw()})
        put(x, x, {u: nine_quarter})
        put(y, y, {u: nine_quarter})
        put(x, y, {})
    for r, alpha in enumerate(roots):
        for s in range(r + 1, len(roots)):
            beta = roots[s]
            pair = rs.pairing(alpha, beta)
            if pair == 0:
                continue
            ua, xa, ya = 3 * r, 3 * r + 1, 3 * r + 2
            ub, xb, yb = 3 * s, 3 * s + 1, 3 * s + 2
            refl = ridx[positive(rs.reflect(beta, alpha))]
            put(ua, ub, {ua: half, ub: half, 3 * refl: F.neg(half)})
            put(ua, xb, {xb: half})
            put(ua, yb, {yb: half})
            put(ub, xa, {xa: half})
            put(ub, ya, {ya: half})
            if pair < 0:
                g = ridx[tuple(a + b for a, b in zip(alpha, beta))]
                put(xa, xb, _theta(F, s3, g, zero, F.neg(three_q), +1))
                put(xa, yb, _theta(F, s3, g, three_q, zero, +1))
                put(ya, xb, _theta(F, s3, g, three_q, zero, +1))
                put(ya, yb, _theta(F, s3, g, zero, three_q, +1))
            else:
                big, small = (r, s) if sum(alpha) > sum(beta) else (s, r)
                rem = ridx[tuple(a - b for a, b in zip(roots[big], roots[small]))]
                xg, yg = 3 * big + 1, 3 * big + 2
                xs, ys = 3 * small + 1, 3 * small + 2
                put(xg, xs, _theta(F, s3, rem, zero, three_q, -1))
                put(xg, ys, _theta(F, s3, rem, three_q, zero, -1))
                put(xs, yg, _theta(F, s3, rem, F.neg(three_q), zero, -1))
                put(ys, yg, _theta(F, s3, rem, zero, three_q, -1))
    return products


@pytest.mark.parametrize("fdesc", ["Q(sqrt:3)", "Q(sqrt:1/3)", "Fp:13", "Fp:11"])
@pytest.mark.parametrize("rstype", ["A1", "A2", "A3", "A4", "D4", "D5", "E6", "E7"])
def test_model_b_table_matches_the_theta_oracle(rstype, fdesc):
    rs, field = parse_root_system(rstype), parse_field(fdesc)
    assert ModelB(rs, field).products == _oracle_products(rs, field)


def test_model_b_dimension_and_block_structure():
    B = ModelB(parse_root_system("A3"), QS3)
    assert B.dim == 18  # 3 * |Phi+|
    one = QS3.one_raw()
    nine_quarter = QS3.div(QS3.coerce(9), QS3.coerce(4))
    for r in range(6):
        u, x, y = 3 * r, 3 * r + 1, 3 * r + 2
        assert B.basis_product(u, u) == {u: one}
        assert B.basis_product(u, x) == {x: one}
        # b(x, x) = b(y, y) = 9/2 and b(x, y) = 0, and v.w = (1/2) b(v, w) 1
        assert B.basis_product(x, x) == B.basis_product(y, y) == {u: nine_quarter}
        assert B.basis_product(x, y) == {}


def test_model_b_theta_is_a_sixth_root_of_rotation():
    B = ModelB(parse_root_system("A2"), QS3)
    vec = {1: QS3.coerce(5), 2: QS3.coerce(-2)}  # in block 0

    def theta(v, power):
        F = B.field
        cx = v.get(1, F.zero_raw())
        cy = v.get(2, F.zero_raw())
        return _theta(F, B.sqrt3, 0, cx, cy, power)

    v = dict(vec)
    for _ in range(3):
        v = theta(v, +1)
    assert B.sub(v, B.scale(QS3.coerce(-1), vec)) == {}  # theta^3 = -1
    for _ in range(3):
        v = theta(v, +1)
    assert B.sub(v, vec) == {}  # theta^6 = 1
    assert B.sub(theta(theta(vec, +1), -1), vec) == {}


def test_model_b_orthogonal_blocks_multiply_to_zero():
    rs = parse_root_system("A3")
    B = ModelB(rs, QS3)
    for r, alpha in enumerate(rs.positive_roots):
        for s, beta in enumerate(rs.positive_roots):
            if r != s and rs.pairing(alpha, beta) == 0:
                for i in range(3):
                    for j in range(3):
                        assert B.basis_product(3 * r + i, 3 * s + j) == {}


def test_model_b_x_product_rule():
    # x_a . x_b = -(3/4) theta(y_{a+b})
    rs = parse_root_system("A2")
    B = ModelB(rs, QS3)
    a, b = rs.positive_roots.index((1, 0)), rs.positive_roots.index((0, 1))
    g = rs.positive_roots.index((1, 1))
    F = QS3
    tq = F.div(F.coerce(3), F.coerce(4))
    expected = _theta(F, B.sqrt3, g, F.zero_raw(), F.neg(tq), +1)
    assert B.basis_product(3 * a + 1, 3 * b + 1) == expected


def test_model_b_requires_sqrt3_and_good_characteristic():
    with pytest.raises(NoSqrt3):
        ModelB(parse_root_system("A2"), Q)
    with pytest.raises(BadCharacteristic):
        ModelB(parse_root_system("A2"), PrimeField(3))


@pytest.mark.parametrize(
    "rstype,fdesc", [("A2", "Fp:13"), ("A2", "Q(sqrt:3)"), ("A3", "Fp:13"), ("A3", "Q(sqrt:3)")]
)
def test_model_b_iso_verified(rstype, fdesc):
    field = parse_field(fdesc)
    B = ModelB(parse_root_system(rstype), field)
    M = _matsuo(f"3W:{rstype}", field)
    cols = model_b_iso(B, M)
    assert len(cols) == M.dim
    # homomorphisms preserve idempotents: check the image of 1_alpha
    img = cols[0]
    assert M.sub(M.multiply(img, img), img) == {}


def test_model_b_is_commutative():
    B = ModelB(parse_root_system("A2"), F13)
    for i in range(B.dim):
        for j in range(B.dim):
            assert B.basis_product(i, j) == B.basis_product(j, i)


# -- torus ---------------------------------------------------------------------


def test_pythagorean_params_lie_on_circle():
    rng = random.Random(5)
    for field in (Q, F13, QS3):
        for _ in range(10):
            t = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            try:
                c, s = pythagorean_param(field, t)
            except CircleRelationViolated:
                continue
            assert field.add(field.mul(c, c), field.mul(s, s)) == field.one_raw()


def test_torus_identity_and_circle_enforcement():
    B = ModelB(parse_root_system("A2"), QS3)
    one, zero = QS3.one_raw(), QS3.zero_raw()
    ident = torus_automorphism(B, [(one, zero), (one, zero)])
    for i in range(B.dim):
        assert ident.cols[i] == {i: one}
    with pytest.raises(CircleRelationViolated):
        torus_automorphism(B, [(one, one), (one, zero)])


def test_torus_three_four_five_example():
    B = ModelB(parse_root_system("A2"), QS3)
    p = (QS3.coerce(Fraction(3, 5)), QS3.coerce(Fraction(4, 5)))
    rho = torus_automorphism(B, [p, (QS3.one_raw(), QS3.zero_raw())])
    verify_automorphism(B, rho)  # idempotent check, already done inside


def test_torus_composition_homomorphism():
    B = ModelB(parse_root_system("A3"), QS3)
    rng = random.Random(6)

    def params():
        return [pythagorean_param(QS3, Fraction(rng.randint(-9, 9), rng.randint(1, 5))) for _ in range(3)]

    for _ in range(5):
        p1, p2 = params(), params()
        r1 = torus_automorphism(B, p1)
        r2 = torus_automorphism(B, p2)
        r12 = torus_automorphism(B, [so2_mul(QS3, a, b) for a, b in zip(p1, p2)])
        comp = r1.compose(B, r2)
        assert all(B.sub(a, b) == {} for a, b in zip(comp.cols, r12.cols))
        inv = torus_automorphism(B, [(c, QS3.neg(s)) for c, s in p1])
        round_trip = r1.compose(B, inv)
        assert all(round_trip.cols[i] == {i: QS3.one_raw()} for i in range(B.dim))


def test_torus_fixes_unit_span_and_generic_fixed_space():
    B = ModelB(parse_root_system("A3"), QS3)
    params = [pythagorean_param(QS3, Fraction(k + 1, 2)) for k in range(3)]
    rho = torus_automorphism(B, params)
    fixed = [i for i in range(B.dim) if rho.cols[i] == {i: QS3.one_raw()}]
    assert fixed == [3 * r for r in range(6)]  # exactly the 1_alpha, dim |Phi+|


def test_theta_commutes_with_torus_blocks():
    B = ModelB(parse_root_system("A2"), F13)
    (c, s) = pythagorean_param(F13, 4)
    F = F13
    for r in range(3):
        x, y = 3 * r + 1, 3 * r + 2
        for vec in ({x: F.coerce(2), y: F.coerce(5)}, {x: F.one_raw()}):
            cx = vec.get(x, F.zero_raw())
            cy = vec.get(y, F.zero_raw())

            def rot(v):
                vx = v.get(x, F.zero_raw())
                vy = v.get(y, F.zero_raw())
                return {
                    x: F.add(F.mul(c, vx), F.neg(F.mul(s, vy))),
                    y: F.add(F.mul(s, vx), F.mul(c, vy)),
                }

            t_then_r = rot(_theta(F, B.sqrt3, r, cx, cy, +1))
            rv = rot(vec)
            r_then_t = _theta(F, B.sqrt3, r, rv.get(x, F.zero_raw()), rv.get(y, F.zero_raw()), +1)
            assert {k: v for k, v in t_then_r.items() if not F.is_zero(v)} == r_then_t


def test_torus_pushforward_fixes_vertical_sums():
    """Along the isomorphism, torus maps fix each vertical-line sum in M."""
    field = F13
    rs = parse_root_system("A2")
    B = ModelB(rs, field)
    M = _matsuo("3W:A2", field)
    cols = model_b_iso(B, M)
    rho = torus_automorphism(B, [pythagorean_param(field, t) for t in (2, 3)])
    # pushforward = iso . rho . iso^{-1}; check on psi(1_alpha), a multiple of
    # the vertical sum, without inverting: rho fixes 1_alpha exactly
    for r in range(len(rs.positive_roots)):
        assert rho.cols[3 * r] == {3 * r: field.one_raw()}
        img = cols[3 * r]
        assert M.sub(M.multiply(img, img), img) == {}


# -- root automorphisms ----------------------------------------------------------


def test_root_automorphism_identity_weyl_and_flip():
    field = QS3
    rs = parse_root_system("A3")
    M = _matsuo("3W:A3", field)
    ident = root_automorphism(M, rs.simple_roots())
    assert all(ident.cols[i] == {i: field.one_raw()} for i in range(M.dim))
    for s in rs.simple_roots():
        root_automorphism(M, weyl_reflection_matrix(rs, s))  # verifies inside
    flip = root_automorphism(M, diagram_automorphism_matrix(rs, [2, 1, 0]))
    square = flip.compose(M, flip)
    assert all(square.cols[i] == {i: field.one_raw()} for i in range(M.dim))


def test_root_automorphism_rejects_non_isometries():
    rs = parse_root_system("A3")
    M = _matsuo("3W:A3", QS3)
    simples = rs.simple_roots()
    with pytest.raises(NotRootAutomorphism):
        root_automorphism(M, [simples[0], simples[0], simples[2]])
    with pytest.raises(NotRootAutomorphism):
        root_automorphism(M, [(2, 0, 0), simples[1], simples[2]])


def test_root_automorphism_d4_triality_flip():
    rs = parse_root_system("D4")
    M = _matsuo("3W:D4", F13)
    # swap the two fork nodes of D4
    root_automorphism(M, diagram_automorphism_matrix(rs, [0, 1, 3, 2]))


@pytest.mark.parametrize("desc", ["S4", "3W:A2", "M3:3"])
def test_point_maps_that_preserve_third_are_automorphisms(desc):
    """The map check of `verify.fusion`'s orbit rule against the multiplicativity
    check in Python ints: each point map passes both, and so do their products;
    random permutations and a map that is not one get one verdict from both."""
    fs = space_of(parse_group(desc))
    A = MatsuoAlgebra(fs, HALF, Q)
    assert A.is_matsuo_table()
    maps = [[x if y < 0 else y for x, y in enumerate(row)] for row in fs.third]  # x -> x^a
    maps += [[s[t] for t in u] for s, u in zip(maps, maps[1:])]
    rng = random.Random(0)
    others = [rng.sample(range(fs.n), fs.n) for _ in range(30)] + [[0] * fs.n]
    if desc == "S4":  # all 720 permutations of the six points, 24 of them automorphisms
        others = [list(p) for p in itertools.permutations(range(fs.n))]
    verdicts = []
    for sigma in maps + others:
        endo = LinearEndo(fs.n, [{y: Q.one_raw()} for y in sigma])
        try:
            verify_automorphism(A, endo)
            verdicts.append(True)
        except VerificationFailure:
            verdicts.append(False)
        assert fs.preserves_third(sigma) == verdicts[-1], sigma
    assert all(verdicts[: len(maps)]) and not all(verdicts)


# -- zero-sum symmetric matrix model ----------------------------------------------


def test_zero_sum_jordan_dimension_and_idempotents():
    Z = ZeroSumJordan(5, Q)
    assert Z.dim == 10
    img = Z.transposition_image(1, 2)
    assert Z.is_zero_sum_symmetric(img)
    assert Z.multiply(img, img) == img  # rank-1 projection


@pytest.mark.parametrize("desc,field", [("S4", Q), ("S5", Q), ("S5", PrimeField(13))])
def test_symmetric_model_iso_verified(desc, field):
    M = _matsuo(desc, field)
    Z, cols = symmetric_model_iso(M)
    assert Z.dim == M.dim
    assert rank(cols, field) == M.dim


def test_symmetric_model_iso_verifies_when_p_divides_n():
    # the model needs only 1/2, so p | n is no obstacle; the map verifies itself
    for desc, p in (("S5", 5), ("S7", 7)):
        M = _matsuo(desc, PrimeField(p))
        Z, cols = symmetric_model_iso(M)
        assert Z.dim == M.dim
        assert rank(cols, M.field) == M.dim


def test_jordan_products_stay_zero_sum_symmetric():
    Z = ZeroSumJordan(4, Q)
    rng = random.Random(8)
    imgs = [Z.transposition_image(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    for _ in range(10):
        x, y = rng.choice(imgs), rng.choice(imgs)
        assert Z.is_zero_sum_symmetric(Z.multiply(x, y))


def _old_jordan_product(Z, x, y):
    """(xy + yx) / 2 by the explicit matrix formula ZeroSumJordan used before its table."""
    F = Z.field
    n = Z.n
    half = F.div(F.one_raw(), F.coerce(2))
    out: dict = {}
    for u, v in ((x, y), (y, x)):
        for k, w in u.items():
            r, c = divmod(k, n)  # u_rc e_rc . v = u_rc sum_m v_cm e_rm
            row_c = {r * n + m % n: z for m, z in v.items() if m // n == c}
            axpy(out, F.mul(half, w), row_c, F)
    return out


def _random_zero_sum_symmetric(Z, rng):
    F = Z.field
    n = Z.n
    x = {}
    for r in range(n):
        for c in range(r + 1, n):
            x[r * n + c] = x[c * n + r] = F.coerce(rng.randint(-4, 4))
    for r in range(n):
        acc = F.zero_raw()
        for c in range(n):
            if c != r:
                acc = F.add(acc, x[r * n + c])
        x[r * n + r] = F.neg(acc)
    return {k: v for k, v in x.items() if not F.is_zero(v)}


@pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("n", [4, 5, 7])
def test_zero_sum_jordan_table_matches_the_matrix_formula(n, field):
    Z = ZeroSumJordan(n, field)
    rng = random.Random(n)
    for _ in range(10):
        x, y = _random_zero_sum_symmetric(Z, rng), _random_zero_sum_symmetric(Z, rng)
        assert Z.is_zero_sum_symmetric(x)
        prod = Z.multiply(x, y)
        assert prod == _old_jordan_product(Z, x, y)
        assert Z.is_zero_sum_symmetric(prod)


# -- the integer multiplicativity check against plain field arithmetic --------------


def _reference_failing_pair(A, cols, T):
    """The first pair (i, j), i <= j, with phi(e_i e_j) != phi(e_i) phi(e_j) in T, or None."""
    F = T.field

    def add(out, key, v):
        out[key] = F.add(out.get(key, F.zero_raw()), v)

    for i in range(A.dim):
        for j in range(i, A.dim):
            lhs, rhs = {}, {}
            for k, x in A.products.get((i, j), {}).items():
                for key, v in cols[k].items():
                    add(lhs, key, F.mul(x, v))
            for a, x in cols[i].items():
                for b, y in cols[j].items():
                    for key, v in T.products.get((min(a, b), max(a, b)), {}).items():
                        add(rhs, key, F.mul(F.mul(x, y), v))
            zero = F.zero_raw()
            if any(not F.is_zero(F.sub(lhs.get(k, zero), rhs.get(k, zero))) for k in lhs | rhs):
                return (i, j)
    return None


def _checked_failing_pair(A, cols, T):
    """The pair `verify_automorphism` reports, or None when it passes."""
    try:
        verify_automorphism(A, LinearEndo(A.dim, cols), T)
    except VerificationFailure as e:
        m = re.fullmatch(r"multiplicativity fails on basis pair \((\d+), (\d+)\)", str(e))
        assert m, str(e)
        return (int(m[1]), int(m[2]))
    return None


@pytest.mark.parametrize("fdesc", ["Q", "Fp:13", "Q(sqrt:3)", "Q(sqrt:1/3)", "Fp:7(sqrt:3)"])
def test_integer_check_matches_field_arithmetic(fdesc):
    field = parse_field(fdesc)
    maps = []  # (source, map, target, a fresh build of the target)
    if fdesc != "Q":  # model B needs sqrt 3
        B = ModelB(parse_root_system("A2"), field)
        M = _matsuo("3W:A2", field)
        maps.append((B, model_b_iso(B, M), M, lambda: _matsuo("3W:A2", field)))
    S = _matsuo("S4", field)
    Z, cols = symmetric_model_iso(S)
    maps.append((S, cols, Z, lambda: ZeroSumJordan(Z.n, field)))
    for A, cols, T, fresh in maps:
        F = field
        assert _reference_failing_pair(A, cols, T) is None
        assert _checked_failing_pair(A, cols, T) is None
        # one entry of one column doubled
        bent = [dict(c) for c in cols]
        k = next(iter(bent[A.dim // 2]))
        bent[A.dim // 2][k] = F.add(bent[A.dim // 2][k], bent[A.dim // 2][k])
        want = _reference_failing_pair(A, bent, T)
        assert want is not None
        assert _checked_failing_pair(A, bent, T) == want
        # one entry of one product of a target that no check has read doubled: the
        # check reads `integer_table`, which is built from `products` once
        T = fresh()
        key = sorted(ij for ij, p in T.products.items() if p)[len(T.products) // 3]
        row = dict(T.products[key])
        c = next(iter(row))
        T.products[key] = {**row, c: F.add(row[c], row[c])}
        want = _reference_failing_pair(A, cols, T)
        assert want is not None
        assert _checked_failing_pair(A, cols, T) == want


def test_verify_automorphism_reads_the_integer_tables_of_the_algebras(monkeypatch):
    """Once both tables are cleared of their denominators, each check clears only the
    map's columns: n vectors, where rebuilding the tables would clear every product."""
    B = ModelB(parse_root_system("A2"), QS3)
    M = _matsuo("3W:A2", QS3)
    cols = model_b_iso(B, M)  # the first check builds both tables
    tables = B.integer_table, M.integer_table
    built, table = [], IntegerForm.table
    monkeypatch.setattr(IntegerForm, "table", lambda form, p: built.append(p) or table(form, p))
    cleared, vector = [], IntegerForm.vector
    monkeypatch.setattr(IntegerForm, "vector", lambda form, x: cleared.append(x) or vector(form, x))
    verify_automorphism(B, LinearEndo(B.dim, cols), M)
    bent = [dict(c) for c in cols]
    bent[0] = B.scale(QS3.coerce(2), bent[0])
    with pytest.raises(VerificationFailure):
        verify_automorphism(B, LinearEndo(B.dim, bent), M)
    assert built == []
    assert len(cleared) == 2 * B.dim
    assert B.integer_table is tables[0] and M.integer_table is tables[1]


# -- characters -------------------------------------------------------------------


def test_character_additivity_over_f13():
    B = ModelB(parse_root_system("A2"), F13)
    rng = random.Random(9)
    for _ in range(5):
        # t in {5, 8} has 1 + t^2 = 0 in F13 and parametrizes no point
        params = [
            pythagorean_param(F13, rng.choice([t for t in range(13) if t not in (5, 8)]))
            for _ in range(2)
        ]
        rep = character_report(B, params)
        assert rep["additive"]
        assert rep["pair_products_proportional"]


def test_identity_torus_has_trivial_characters():
    B = ModelB(parse_root_system("A2"), F13)
    rep = character_report(B, [(F13.one_raw(), F13.zero_raw())] * 2)
    assert set(rep["eigenvalues"]) == {"1"}


def test_character_report_verifies_the_torus_map():
    B = ModelB(parse_root_system("A2"), F13)
    x_a_x_b = B.products[(1, 4)]  # x of alpha_1 times x of alpha_2
    assert x_a_x_b
    B.products[(1, 4)] = {k: F13.add(v, v) for k, v in x_a_x_b.items()}
    with pytest.raises(VerificationFailure):
        character_report(B, [pythagorean_param(F13, 2)] * 2)
