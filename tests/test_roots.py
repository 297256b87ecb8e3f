"""Simply laced root systems: counts, pairing bounds, reflection involutions."""

import hashlib

import pytest

from matsuo.roots import RootSystem, build_root_system, parse_root_system


def positive_root_count(type_name: str, rank: int) -> int:
    """Classical |Phi^+| counts, an oracle independent of `build_root_system`."""
    if type_name == "A":
        return rank * (rank + 1) // 2
    if type_name == "D":
        return rank * (rank - 1)
    return {6: 36, 7: 63, 8: 120}[rank]


TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 5), ("D", 4), ("D", 5), ("E", 6)]


@pytest.mark.parametrize("type_name,rank", TYPES)
def test_positive_root_count_matches_classical_formula(type_name, rank):
    rs = build_root_system(type_name, rank)
    assert len(rs.positive_roots) == positive_root_count(type_name, rank)


@pytest.mark.parametrize("type_name,rank", TYPES)
def test_pairing_is_simply_laced(type_name, rank):
    rs = build_root_system(type_name, rank)
    for a in rs.positive_roots:
        assert rs.pairing(a, a) == 2
        for b in rs.positive_roots:
            if a != b:
                assert rs.pairing(a, b) in (-1, 0, 1)


@pytest.mark.parametrize("type_name,rank", [("A", 3), ("D", 4)])
def test_reflections_are_involutions_and_preserve_roots(type_name, rank):
    rs = build_root_system(type_name, rank)
    for a in rs.positive_roots:
        for b in rs.positive_roots:
            image = rs.reflect(a, b)
            assert rs.is_root(image)
            assert rs.reflect(image, b) == a


def test_positivity_is_all_or_nothing():
    rs = build_root_system("D", 4)
    for a in rs.positive_roots:
        assert RootSystem.is_positive(a)
        assert not RootSystem.is_positive(tuple(-c for c in a))
        assert all(c >= 0 for c in a)


def test_root_sum_closure_in_a3():
    rs = parse_root_system("A3")
    for a in rs.positive_roots:
        for b in rs.positive_roots:
            s = tuple(x + y for x, y in zip(a, b))
            # alpha + beta is a root exactly when the pairing is -1
            assert rs.is_root(s) == (a != b and rs.pairing(a, b) == -1)


def test_parse_root_system():
    assert parse_root_system("D4").name == "D4"
    assert parse_root_system("A1").rank == 1
    for bad in ("B3", "A", "E9", "D2", ""):
        with pytest.raises(ValueError):
            parse_root_system(bad)


def test_root_system_is_a_value():
    a, b = parse_root_system("D4"), build_root_system("D", 4)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != parse_root_system("A4")
    for attr in ("rank", "other"):
        with pytest.raises(AttributeError):
            setattr(a, attr, 5)


def test_e8_roots_are_pinned():
    """sha256 of the positive roots and of the sorted root set, recorded when
    `RootSystem` was a dataclass."""
    rs = parse_root_system("E8")
    assert len(rs.positive_roots) == 120 and len(rs.root_set) == 240
    digest = hashlib.sha256(repr(rs.positive_roots).encode()).hexdigest()
    assert digest == "76efb16389780ed20aea28d40b8e75c9d73c2adff870d571d525dd5daa3a8bb1"
    digest = hashlib.sha256(repr(sorted(rs.root_set)).encode()).hexdigest()
    assert digest == "cc474f17ffe7fb2e82ff30c4d0478f45d71bafac0b4e5ef5be0dd31716d493b5"
    assert all(rs.is_root(v) and rs.is_root(tuple(-c for c in v)) for v in rs.positive_roots)
    assert not rs.is_root((0,) * 8)


ALL_TYPES = [("A", r) for r in range(1, 9)] + [("D", r) for r in range(4, 9)]
ALL_TYPES += [("E", r) for r in (6, 7, 8)]


def _roots_by_reflection(rs):
    """Every root: the simple roots closed under the simple reflections by `reflect`."""
    roots = set(rs.simple_roots())
    frontier = list(roots)
    while frontier:
        frontier = [rs.reflect(a, s) for a in frontier for s in rs.simple_roots()]
        frontier = [b for b in set(frontier) if b not in roots]
        roots.update(frontier)
    return roots


def _reflections_by_pairing(rs):
    """The per-pair reference for `positive_reflections`: m = alpha^T C beta by dot
    products, and sigma_beta(alpha) = alpha - m beta as a tuple."""
    roots = rs.positive_roots
    index = {r: k for k, r in enumerate(roots)}
    table = []
    for alpha in roots:
        row = []
        for beta in roots:
            m = sum(a * c * b for a, crow in zip(alpha, rs.cartan) for c, b in zip(crow, beta))
            gamma = tuple(a - m * b for a, b in zip(alpha, beta))
            s = 1 if rs.is_positive(gamma) else -1
            row.append((m, index[tuple(s * c for c in gamma)], s))
        table.append(row)
    return table


@pytest.mark.parametrize("type_name,rank", ALL_TYPES)
def test_reflection_table_matches_the_pairing_definition(type_name, rank):
    """Root membership (keys with 8 bits per coordinate) gives the table of the
    pairing, and the Cartan-column reflections give every root."""
    rs = build_root_system(type_name, rank)
    assert len(rs.positive_roots) == positive_root_count(type_name, rank)
    assert rs.root_set == _roots_by_reflection(rs)
    assert rs.positive_reflections() == _reflections_by_pairing(rs)
