"""Fischer space geometry: closures, components, line orbits, near-solid lines."""

import csv
import io
import random
from fractions import Fraction

import pytest

from matsuo import cli
from matsuo.algebra import MatsuoAlgebra
from matsuo.fields import Rationals
from matsuo.fischer import FischerSpace, space_of
from matsuo.transpo import CATALOG, parse_group


def _space(desc):
    return space_of(parse_group(desc))


@pytest.mark.parametrize("desc", CATALOG)
def test_partial_linear_space_axiom(desc):
    fs = _space(desc)
    on_line = {}
    for line in fs.lines:
        for i in range(3):
            for j in range(i + 1, 3):
                pair = (line[i], line[j])
                assert pair not in on_line, "two lines through one pair"
                on_line[pair] = line
    # every collinear pair lies on exactly one line
    for a in range(fs.n):
        for b in range(a + 1, fs.n):
            assert ((a, b) in on_line) == fs.collinear(a, b)


@pytest.mark.parametrize("desc,lines", [("S4", 4), ("S5", 10), ("M3:3", 117), ("3W:A3", 42)])
def test_line_counts(desc, lines):
    assert len(_space(desc).lines) == lines


@pytest.mark.parametrize("desc", CATALOG)
def test_catalog_spaces_connected(desc):
    assert _space(desc).is_connected()


def test_commuting_points_are_two_components():
    fs = _space("S4")
    a, b = fs.labels.index("(12)"), fs.labels.index("(34)")
    assert fs.components({a, b}) == [frozenset({a}), frozenset({b})]
    assert not FischerSpace(2, [[-1, -1], [-1, -1]], ["p", "q"], "none").is_connected()


def test_closure_of_collinear_pair_is_line():
    fs = _space("S4")
    a, b, c = fs.lines[0]
    assert fs.closure({a, b}) == frozenset((a, b, c))


def test_two_intersecting_lines_in_s4_span_dual_affine_plane():
    fs = _space("S4")
    # (12),(13),(14) pairwise intersect in distinct lines
    pts = [fs.labels.index(s) for s in ("(12)", "(13)", "(14)")]
    assert len(fs.closure(pts)) == 6


def test_two_intersecting_lines_in_moufang_span_affine_plane():
    fs = _space("M3:2")
    g = fs.group
    pts = [g.points.index(v) for v in ((0, 0), (1, 0), (0, 1))]
    assert len(fs.closure(pts)) == 9


def test_four_gen_fingerprints():
    """Four generators span each of these spaces, and its size names its type."""
    for desc, seeds, kind in [
        ("S5", [(1, 2), (2, 3), (3, 4), (4, 5)], "S5"),
        ("W:D4", [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], "WD4"),
        ("3W:A3", [(0, (1, 0, 0)), (0, (0, 1, 0)), (0, (0, 0, 1)), (1, (1, 0, 0))], "AffA3"),
        ("M3:3", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], "Mou3"),
    ]:
        fs = _space(desc)
        span = fs.closure(fs.group.points.index(p) for p in seeds)
        assert len(span) == fs.n, desc
        assert fs._component_type(span) == kind
        assert fs._component_type(fs.closure(fs.lines[0])) == "ThreeGen"
    assert fs._component_type(frozenset(range(5))) == "Unknown(5)"


@pytest.mark.parametrize("desc,vertical", [("3W:A2", 3), ("3W:A3", 6), ("3W:D4", 12)])
def test_vertical_line_census(desc, vertical):
    fs = _space(desc)
    vert = [l for l in fs.lines if fs.line_orbit_class(l) == "vertical"]
    assert len(vert) == vertical
    for line in vert:
        roots = {fs.payloads[p][1] for p in line}
        eps = {fs.payloads[p][0] for p in line}
        assert len(roots) == 1 and eps == {0, 1, 2}


def test_line_orbit_class_rejects_other_families():
    fs = _space("S4")
    with pytest.raises(ValueError):
        fs.line_orbit_class(fs.lines[0])


def test_eighteen_point_components_occur_in_affine_weyl_spaces_only(monkeypatch):
    """`is_near_solid` reads an AffA3 component's lines with `line_orbit_class`,
    which only 3^n:W spaces have.  Elsewhere the closure of a line and two points
    is smaller: at most S5 (10 points) in S_n, a root subsystem of rank <= 4
    (1, 3, 6, 10 or 12 points) in W(ADE), an affine space of <= 27 points in 3^n:2."""
    types, kind = [], FischerSpace._component_type

    def recording(self, comp):
        types.append(kind(self, comp))
        return types[-1]

    monkeypatch.setattr(FischerSpace, "_component_type", recording)
    for desc in ("S6", "W:E6", "M3:4"):
        fs = _space(desc)
        for orbit in fs.line_orbits():  # as `classify-lines` does
            fs.is_near_solid(fs.lines[orbit[0]])
    assert types and "AffA3" not in types


def test_s5_all_lines_near_solid():
    fs = _space("S5")
    for line in fs.lines:
        ok, witness = fs.is_near_solid(line)
        assert ok and witness is None


@pytest.mark.parametrize("desc", ["W:D4", "M3:3"])
def test_no_near_solid_lines(desc):
    fs = _space(desc)
    for line in fs.lines:
        ok, witness = fs.is_near_solid(line)
        assert not ok
        assert witness is not None and witness["type"] in ("WD4", "Mou3", "AffA3")


@pytest.mark.parametrize("desc", ["3W:A3", "3W:D4"])
def test_near_solid_lines_are_the_vertical_spread(desc):
    fs = _space(desc)
    near = [l for l in fs.lines if fs.is_near_solid(l)[0]]
    assert near == [l for l in fs.lines if fs.line_orbit_class(l) == "vertical"]
    covered = [p for l in near for p in l]
    assert sorted(covered) == list(range(fs.n))  # pairwise disjoint cover


def test_near_solid_plane_homogeneity():
    """Planes through a near-solid line all have the same type."""
    for desc in ("S5", "3W:A3"):
        fs = _space(desc)
        for line in fs.lines:
            if not fs.is_near_solid(line)[0]:
                continue
            types = set()
            for p in range(fs.n):
                if p in line:
                    continue
                closure = fs.closure((line[0], line[1], p))
                if len(closure) in (6, 9):  # a plane
                    types.add(len(closure))
                else:  # p off the line's component; else the plane axiom fails
                    assert len(closure) == 4, (desc, line, p, len(closure))
                    assert len(fs.components(closure)) == 2, (desc, line, p)
            assert len(types) <= 1, (desc, line, types)


def test_small_spaces_have_only_trivially_allowed_lines():
    # 2- and 3-generated instances: every 4-generated overspace is 3-generated
    for desc in ("S3", "S4", "W:A2", "M3:2", "3W:A1"):
        fs = _space(desc)
        for line in fs.lines:
            ok, witness = fs.is_near_solid(line)
            if not ok:
                assert witness["type"] not in ("S5",), desc


def test_is_near_solid_rejects_triples_that_are_not_lines():
    fs = _space("S4")
    a, b, c = fs.lines[0]
    x, y, _ = next(line for line in fs.lines if line[2] == fs.n - 1)
    for bad in ((a, b), (a, a, b), (a, b, c, c), (x, y, -1), (a, b, fs.n)):
        with pytest.raises(ValueError):
            fs.is_near_solid(bad)
    noncollinear = next((x, y) for x in range(fs.n) for y in range(x + 1, fs.n)
                        if not fs.collinear(x, y))
    with pytest.raises(ValueError):
        fs.is_near_solid((*noncollinear, next(z for z in range(fs.n) if z not in noncollinear)))
    assert fs.is_near_solid((c, a, b)) == fs.is_near_solid(fs.lines[0])


def _plain_spans(fs, line):
    """(span, component, allowed) of every closure of line + {c, d} from scratch,
    d >= c outside the closure of line + {c}, in the order of `is_near_solid`."""
    lset = frozenset(line)
    for c in range(fs.n):
        base = fs.closure(lset | {c})
        for d in range(c, fs.n):
            if d in base:
                continue
            span = fs.closure(lset | {c, d})
            comp = fs.component_of(span, line[0])
            t = fs._component_type(comp)
            vertical = t == "AffA3" and fs.line_orbit_class(line) == "vertical"
            yield span, comp, t in ("ThreeGen", "S5") or vertical


def _near_solid_by_enumeration(fs, line):
    """The plain enumeration: the first component of a type not allowed."""
    for _, comp, allowed in _plain_spans(fs, line):
        if not allowed:
            return False, {"type": fs._component_type(comp), "points": sorted(comp)}
    return True, None


@pytest.mark.parametrize("desc", CATALOG + ("M3:4",))
def test_near_solid_classifies_each_distinct_span_once(desc, monkeypatch):
    """The sweep classifies the distinct spans of the plain enumeration, each once,
    in order of first appearance up to the first failure: skipping a pair of base
    closures met before loses no span."""
    fs = _space(desc)
    classified = []
    component_of = FischerSpace.component_of

    def recording(self, subset, start):
        classified.append(frozenset(subset))
        return component_of(self, subset, start)

    for orbit in fs.line_orbits():
        line = fs.lines[orbit[0]]
        expected, seen = [], set()
        for span, _, allowed in _plain_spans(fs, line):
            if span not in seen:
                seen.add(span)
                expected.append(span)
                if not allowed:
                    break
        with monkeypatch.context() as m:
            m.setattr(FischerSpace, "component_of", recording)
            classified.clear()
            fs.is_near_solid(line)
        assert classified == expected, (desc, line)


@pytest.mark.parametrize("desc", CATALOG + ("M3:4", "W:E7", "3W:E6"))
def test_near_solid_matches_the_plain_enumeration(desc):
    """Closures grown from the closure of line + {c}, each distinct one classified
    once, give the verdict and the witness of the enumeration from scratch."""
    fs = _space(desc)
    for orbit in fs.line_orbits():
        line = fs.lines[orbit[0]]
        assert fs.is_near_solid(line) == _near_solid_by_enumeration(fs, line), (desc, line)


@pytest.mark.parametrize("desc", ["S5", "W:D4", "3W:A3", "M3:3"])
def test_closure_grows_from_a_closed_subspace(desc):
    rng = random.Random(desc)
    fs = _space(desc)
    for _ in range(40):
        closed = fs.closure(rng.sample(range(fs.n), rng.randint(1, 3)))
        seed = set(rng.sample(range(fs.n), rng.randint(0, 3)))
        assert fs.closure(seed, closed) == fs.closure(seed | closed)
    assert fs.closure((), closed) == closed
    with pytest.raises(ValueError):
        fs.closure(())


def _point_map(fs, a, line):
    """The line {x^a : x in line}, where x^a = x when x is not collinear with a."""
    return tuple(sorted(x if fs.third[a][x] < 0 else fs.third[a][x] for x in line))


@pytest.mark.parametrize("desc", CATALOG + ("M3:4", "W:E7"))
def test_line_orbits_decide_near_solidity(desc):
    """Orbit oracle: the orbits partition the lines, each is closed under every
    point map, and the first line's verdict and witness type are those of
    every line in its orbit."""
    fs = _space(desc)
    orbits = fs.line_orbits()
    assert sorted(i for orbit in orbits for i in orbit) == list(range(len(fs.lines)))
    for orbit in orbits:
        assert orbit == sorted(orbit)
        members = {fs.lines[i] for i in orbit}
        for line in members:
            for a in range(fs.n):
                assert _point_map(fs, a, line) in members
        ok, witness = fs.is_near_solid(fs.lines[orbit[0]])
        for i in orbit:
            ok_i, witness_i = fs.is_near_solid(fs.lines[i])
            assert ok_i == ok
            assert (witness_i is None) == (witness is None)
            if witness is not None:
                assert witness_i["type"] == witness["type"], (desc, fs.lines[i])


def _line_orbits_under_every_map(fs):
    """The reference for `line_orbits`: breadth first under the maps of all n points."""
    index = {line: i for i, line in enumerate(fs.lines)}
    seen, orbits = set(), []
    for start in range(len(fs.lines)):
        if start not in seen:
            seen.add(start)
            orbit = [start]
            for i in orbit:
                for a in range(fs.n):
                    j = index[_point_map(fs, a, fs.lines[i])]
                    if j not in seen:
                        seen.add(j)
                        orbit.append(j)
            orbits.append(sorted(orbit))
    return orbits


@pytest.mark.parametrize("desc", CATALOG + ("M3:4", "W:E7", "3W:E6"))
def test_line_orbits_match_the_search_under_every_point_map(desc):
    """The maps of a checked generating set give the orbits of all n point maps."""
    fs = _space(desc)
    assert fs.line_orbits() == _line_orbits_under_every_map(fs)


def _lines_space(n, lines):
    """A space built by hand: the given lines on the points 0..n-1."""
    third = [[-1] * n for _ in range(n)]
    for line in lines:
        for x in line:
            for y in line:
                if x != y:
                    third[x][y] = sum(line) - x - y
    return FischerSpace(n, third, [str(x) for x in range(n)], "hand")


def test_line_orbits_refuse_a_point_map_that_moves_a_line_off_the_lines():
    """x -> x^0 swaps 1 and 2, so it maps the line {1, 3, 4} onto {2, 3, 4}, which
    is no line: the orbits are refused, naming point 0, not returned without the
    line {5, 6, 7} or with an index that is no line's."""
    fs = _lines_space(8, [(0, 1, 2), (1, 3, 4), (5, 6, 7)])
    assert fs.lines == [(0, 1, 2), (1, 3, 4), (5, 6, 7)]
    with pytest.raises(ValueError, match="point 0 "):
        fs.line_orbits()
    assert fs.point_orbits() is None


@pytest.mark.parametrize("desc", CATALOG)
def test_space_tables_match_the_pairwise_definition(desc):
    """`third`, `lines` and `adjacency` read off the conjugation rows are those of
    the pairwise definition: x, y collinear when x != y and x^y != x."""
    g = parse_group(desc)
    fs, n = space_of(g), g.size
    third = [[g.conj[i][j] if i != j and g.conj[i][j] != i else -1 for j in range(n)]
             for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(n) if third[i][j] >= 0]
    lines = {tuple(sorted((i, j, third[i][j]))) for i, j in pairs}
    assert fs.third == third
    assert fs.lines == sorted(lines)
    assert fs.adjacency == [frozenset(b for a, b in pairs if a == i) for i in range(n)]


@pytest.mark.parametrize(
    "desc,sizes",
    [("3W:D4", [12, 144]), ("3W:E6", [36, 1080]), ("W:E7", [336]), ("S7", [35])],
)
def test_line_orbit_sizes(desc, sizes):
    assert [len(o) for o in _space(desc).line_orbits()] == sizes


def test_moufang_m3_4_has_forty_line_orbits():
    # G = 3^4:2 is much smaller than AGL(4,3), so the 1,080 lines split
    orbits = _space("M3:4").line_orbits()
    assert len(orbits) == 40 and sum(map(len, orbits)) == 1080


MOUFANG = ("M3:1", "M3:2", "M3:3", "M3:4", "M3:5")


@pytest.mark.parametrize("desc", MOUFANG)
def test_moufang_symmetries_are_linear_collineations(desc):
    """The symmetries are the coordinate cycle and the transvection
    v -> v + v_2 e_1 (none for n = 1), and they preserve the third-point table."""
    g = parse_group(desc)
    fs, n = space_of(g), len(g.points[0])
    index = {v: i for i, v in enumerate(g.points)}
    cycle = [index[(*v[1:], v[0])] for v in g.points]
    transvection = [index[((v[0] + v[1]) % 3, *v[1:])] for v in g.points] if n > 1 else None
    assert list(g.symmetries) == ([cycle, transvection] if n > 1 else [])
    assert all(map(fs.preserves_third, g.symmetries))


@pytest.mark.parametrize("desc", MOUFANG[1:])
def test_moufang_lines_form_one_orbit_under_the_symmetries(desc):
    """With the translations and -1 among the point maps, the linear maps make
    the group transitive on the lines of AG(n, 3)."""
    g = parse_group(desc)
    fs = space_of(g)
    assert fs.line_orbits(g.symmetries) == [list(range(len(fs.lines)))]


def _classify(capsys, desc, fmt="--csv"):
    assert cli.main(["classify-lines", desc, fmt]) == cli.EXIT_OK
    return capsys.readouterr().out


@pytest.mark.parametrize("desc", MOUFANG[1:4])
def test_moufang_table_matches_one_line_per_point_map_orbit(desc, capsys, monkeypatch):
    """One line tested for all of AG(n, 3) gives the table of one line tested per
    orbit of the point maps alone."""
    table = _classify(capsys, desc)
    line_orbits = FischerSpace.line_orbits
    monkeypatch.setattr(FischerSpace, "line_orbits", lambda self, extra=(): line_orbits(self))
    assert _classify(capsys, desc) == table


def test_moufang_m3_3_table_matches_the_enumeration_on_every_line(capsys):
    fs = _space("M3:3")
    rows = list(csv.DictReader(io.StringIO(_classify(capsys, "M3:3"))))
    assert [row["points"] for row in rows] == [" ".join(fs.labels[p] for p in l) for l in fs.lines]
    for row, line in zip(rows, fs.lines):
        ok, witness = _near_solid_by_enumeration(fs, line)
        assert row["near_solid"] == str(ok), line
        assert row["witness_type"] == (witness["type"] if witness else ""), line


def test_a_tampered_symmetry_is_dropped(capsys, monkeypatch):
    """A symmetry that fails `preserves_third` is not used: the orbits, and with
    them the report bytes, are those of the point maps alone."""
    g = parse_group("M3:3")
    cycle, transvection = g.symmetries
    tampered = list(cycle)
    tampered[1], tampered[2] = tampered[2], tampered[1]
    bad = g._replace(symmetries=(tampered, transvection))
    fs = space_of(bad)
    assert not fs.preserves_third(tampered) and fs.preserves_third(transvection)
    assert fs.line_orbits(bad.symmetries) == fs.line_orbits()
    assert len(fs.line_orbits()) == 13
    reports = [_classify(capsys, "M3:3", fmt) for fmt in ("--json", "--csv")]
    monkeypatch.setattr(cli, "parse_group", lambda desc: bad)
    assert [_classify(capsys, "M3:3", fmt) for fmt in ("--json", "--csv")] == reports


def _line_isomorphism(fs1, fs2):
    """A point bijection carrying the lines of fs1 onto those of fs2, or None.

    Backtracks over images of points 0, 1, ...; the line {a, b, c} with
    a < b < c is checked when c gets its image, through the pair (a, c).
    """
    if fs1.n != fs2.n or len(fs1.lines) != len(fs2.lines):
        return None
    image = []

    def fits(i, p):
        for j, q in enumerate(image):
            if fs1.collinear(j, i) != fs2.collinear(q, p):
                return False
            k = fs1.third[j][i]
            if 0 <= k < i and fs2.third[q][p] != image[k]:
                return False
        return True

    def extend():
        i = len(image)
        if i == fs1.n:
            return True
        for p in range(fs2.n):
            if p not in image and fits(i, p):
                image.append(p)
                if extend():
                    return True
                image.pop()
        return False

    return image if extend() else None


def test_affine_weyl_a2_is_the_moufang_plane():
    """3W:A2 and M3:2 have the same Fischer space AG(2,3), hence the same
    Matsuo algebra: this is why dim Der M(3W:A2) is 8, that of M3:2."""
    aw, mou = _space("3W:A2"), _space("M3:2")
    for fs in (aw, mou):
        assert fs.n == 9 and len(fs.lines) == 12
        assert all(fs.collinear(a, b) for a in range(9) for b in range(a + 1, 9))
    f = _line_isomorphism(aw, mou)
    assert f is not None and sorted(f) == list(range(9))
    Q = Rationals()
    A = MatsuoAlgebra(aw, Fraction(1, 2), Q)
    B = MatsuoAlgebra(mou, Fraction(1, 2), Q)
    for i in range(9):
        for j in range(i, 9):
            mapped = {f[k]: v for k, v in A.basis_product(i, j).items()}
            assert mapped == B.basis_product(f[i], f[j])
