"""3-transposition catalog: conjugation invariants and the closed-form special cases."""

from itertools import product

import pytest

from matsuo.roots import parse_root_system
from matsuo.transpo import (
    CATALOG,
    build_affine_weyl,
    build_moufang,
    build_symmetric,
    build_weyl,
    parse_group,
)


def _collinear(g, i, j):
    """Points i != j noncommute: i^j is not i."""
    return i != j and g.conj[i][j] != i


@pytest.fixture(scope="module", params=CATALOG)
def group(request):
    return parse_group(request.param)


def test_catalog_sizes():
    expected = {
        "S3": 3, "S4": 6, "S5": 10,
        "W:A2": 3, "W:A3": 6, "W:D4": 12,
        "3W:A1": 3, "3W:A2": 9, "3W:A3": 18, "3W:D4": 36,
        "M3:2": 9, "M3:3": 27,
    }
    for desc, size in expected.items():
        assert parse_group(desc).size == size, desc


def test_conjugation_invariants_exhaustive(group):
    g = group
    n = g.size
    for a in range(n):
        assert g.conj[a][a] == a
        for b in range(n):
            # involution
            assert g.conj[g.conj[b][a]][a] == b
            # fixed iff equal or commuting
            assert (g.conj[b][a] == b) == (not _collinear(g, a, b))
            if _collinear(g, a, b):
                # the third point of the line is well defined
                assert g.conj[a][b] == g.conj[b][a]


def test_conjugation_preserves_order(group):
    g = group
    n = g.size
    for a in range(n):
        for x in range(n):
            for y in range(x + 1, n):
                assert _collinear(g, g.conj[x][a], g.conj[y][a]) == _collinear(g, x, y)


def test_conjugation_is_an_automorphism(group):
    g = group
    n = g.size
    for c in range(n):
        for a in range(n):
            for b in range(n):
                if _collinear(g, a, b):
                    lhs = g.conj[g.conj[a][b]][c]
                    rhs = g.conj[g.conj[a][c]][g.conj[b][c]]
                    assert lhs == rhs


def test_affine_special_case_same_root():
    # (e1 a, s_a) ^ (e2 a, s_a) = (-(e1+e2) a, s_a)
    for t in ("A2", "A3", "D4"):
        g = build_affine_weyl(parse_root_system(t))
        for i, (e1, alpha) in enumerate(g.points):
            for j, (e2, beta) in enumerate(g.points):
                if alpha == beta:
                    assert g.points[g.conj[i][j]] == ((-(e1 + e2)) % 3, alpha)


def test_affine_special_case_root_sum():
    # (e1 a, s_a) ^ (e2 b, s_b) = ((e1+e2)(a+b), s_{a+b}) when a+b is a root
    for t in ("A2", "A3", "D4"):
        rs = parse_root_system(t)
        g = build_affine_weyl(rs)
        for i, (e1, alpha) in enumerate(g.points):
            for j, (e2, beta) in enumerate(g.points):
                s = tuple(x + y for x, y in zip(alpha, beta))
                if alpha != beta and rs.is_root(s):
                    assert g.points[g.conj[i][j]] == ((e1 + e2) % 3, s)


def test_moufang_conjugation_rule():
    g = build_moufang(2)
    for i, v in enumerate(g.points):
        for j, w in enumerate(g.points):
            expected = tuple((-x - y) % 3 for x, y in zip(v, w))
            assert g.points[g.conj[i][j]] == expected
            if i != j:
                assert _collinear(g, i, j)  # all distinct points noncommute


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_moufang_table_matches_minus_v_minus_w(n):
    """The base-3 digit recursion gives v^w = -v-w on F_3^n, points in product order."""
    g = build_moufang(n)
    assert list(g.points) == list(product(range(3), repeat=n))
    index = {v: i for i, v in enumerate(g.points)}
    for v, row in zip(g.points, g.conj):
        assert list(row) == [index[tuple((-x - y) % 3 for x, y in zip(v, w))] for w in g.points]


def test_symmetric_group_commuting_iff_disjoint():
    g = build_symmetric(5)
    for i, p in enumerate(g.points):
        for j, q in enumerate(g.points):
            if i != j:
                assert (not _collinear(g, i, j)) == (not set(p) & set(q))


def test_weyl_commuting_iff_orthogonal():
    rs = parse_root_system("D4")
    g = build_weyl(rs)
    for i, a in enumerate(g.points):
        for j, b in enumerate(g.points):
            if i != j:
                assert (not _collinear(g, i, j)) == (rs.pairing(a, b) == 0)


def _reflection_conj_tables(rs):
    """Conjugation tables of W and 3^n:W by reflecting vectors: the reference
    for the closed-form tables of `build_weyl` and `build_affine_weyl`."""
    roots = list(rs.positive_roots)

    def positive(v):
        return v if rs.is_positive(v) else tuple(-c for c in v)

    def weyl(a, b):
        return positive(rs.reflect(a, b))

    def affine(a, b):
        (e1, alpha), (e2, beta) = a, b
        v = tuple(e1 * c % 3 for c in alpha)
        w = tuple(e2 * c % 3 for c in beta)
        sw = rs.reflect(tuple(e2 * c for c in beta), alpha)
        inner = tuple((x - y + z) % 3 for x, y, z in zip(v, w, sw))
        vnew = tuple(c % 3 for c in rs.reflect(inner, beta))
        gamma = positive(rs.reflect(alpha, beta))
        (eps,) = [
            e for e in (0, 1, 2) if all((e * c - x) % 3 == 0 for c, x in zip(gamma, vnew))
        ]
        return (eps, gamma)

    def table(points, conj):
        index = {p: i for i, p in enumerate(points)}
        return tuple(tuple(index[conj(a, b)] for b in points) for a in points)

    points = [(eps, alpha) for alpha in roots for eps in (0, 1, 2)]
    return table(roots, weyl), table(points, affine)


@pytest.mark.parametrize("t", ["A1", "A2", "A3", "A4", "D4", "D5", "E6"])
def test_closed_form_tables_match_vector_reflections(t):
    rs = parse_root_system(t)
    weyl, affine = _reflection_conj_tables(rs)
    assert build_weyl(rs).conj == weyl
    assert build_affine_weyl(rs).conj == affine


def _noncommuting_pair_orbit(g):
    """Orbit of one noncommuting ordered pair under all conjugations."""
    n = g.size
    start = next(
        (a, b) for a in range(n) for b in range(n) if _collinear(g, a, b)
    )
    seen = {start}
    stack = [start]
    while stack:
        a, b = stack.pop()
        for c in range(n):
            img = (g.conj[a][c], g.conj[b][c])
            if img not in seen:
                seen.add(img)
                stack.append(img)
    return seen


@pytest.mark.parametrize("desc", ["S4", "S5", "W:A3", "W:D4"])
def test_transitive_on_noncommuting_pairs(desc):
    g = parse_group(desc)
    n = g.size
    total = sum(
        1 for a in range(n) for b in range(n) if _collinear(g, a, b)
    )
    assert len(_noncommuting_pair_orbit(g)) == total


def test_parse_group_rejects_unknown_descriptors():
    for bad in ("", "S1", "X:A3", "W:B3", "3W:", "M3:", "S"):
        with pytest.raises(ValueError):
            parse_group(bad)


def test_transpo_group_is_a_value():
    a, b = parse_group("3W:A2"), parse_group("3W:A2")
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != parse_group("M3:2")  # also 9 points
    for attr in ("label", "other"):
        with pytest.raises(AttributeError):
            setattr(a, attr, "x")
