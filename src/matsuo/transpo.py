"""Catalog of finite 3-transposition groups, stored as the transposition set D.

The abstract group is never materialised; a TranspoGroup holds the points of
D with payloads, the conjugation action b^a as an index table, and the order
predicate o(ab) derived from it.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .roots import RootSystem, parse_root_system


class TranspoGroup(NamedTuple):
    label: str
    family: str  # "symmetric" | "weyl" | "affine_weyl" | "moufang"
    points: tuple  # payloads
    conj: tuple  # conj[i][j] = index of points[i] ^ points[j]
    root_system: RootSystem | None = None
    # point permutations expected to preserve the lines, beyond the maps x -> x^a;
    # FischerSpace.line_orbits checks them before use
    symmetries: tuple = ()

    @property
    def size(self) -> int:
        return len(self.points)

    def payload_str(self, i: int) -> str:
        p = self.points[i]
        if self.family == "symmetric":
            return f"({p[0]}{p[1]})" if max(p) < 10 else f"({p[0]},{p[1]})"
        if self.family == "weyl":
            return "r" + "".join(str(c) for c in p) if max(p) < 10 else str(p)
        if self.family == "affine_weyl":
            eps, alpha = p
            return f"{eps}|r" + "".join(str(c) for c in alpha)
        return "v" + "".join(str(c) for c in p)


def build_symmetric(n: int) -> TranspoGroup:
    """S_n acting on its transpositions {i, j}."""
    if n < 2:
        raise ValueError("build_symmetric needs n >= 2")
    points = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]

    def conj(a, b):
        # relabel a by the transposition b
        swap = {b[0]: b[1], b[1]: b[0]}
        x, y = swap.get(a[0], a[0]), swap.get(a[1], a[1])
        return (x, y) if x < y else (y, x)

    index = {p: i for i, p in enumerate(points)}
    table = tuple(tuple(index[conj(a, b)] for b in points) for a in points)
    return TranspoGroup(f"S{n}", "symmetric", tuple(points), table)


def build_weyl(rs: RootSystem) -> TranspoGroup:
    """Reflections of a simply laced Weyl group, identified with Phi^+."""
    table = tuple(tuple(k for _, k, _ in row) for row in rs.positive_reflections())
    return TranspoGroup(f"W:{rs.name}", "weyl", rs.positive_roots, table, rs)


def build_affine_weyl(rs: RootSystem) -> TranspoGroup:
    """3^n : W for a simply laced Weyl group W of rank n.

    Points are (eps, alpha) with alpha in Phi^+ and eps in F_3, standing for
    (eps*alpha, sigma_alpha) in the semidirect product Lambda/3Lambda x| W
    with the convention (v, g)(w, h) = (v + g.w, gh).  The identification
    (eps*(-alpha), sigma_alpha) = ((-eps)*alpha, sigma_alpha) is applied when
    canonicalising to a positive root.

    With m = <alpha, beta^vee> and sigma_beta(alpha) = s*gamma, gamma positive,
    (e1, alpha)^(e2, beta) = (s*(e1 - e2*m) mod 3, gamma); point (eps, alpha_k)
    has index 3k + eps.
    """
    points = tuple((eps, alpha) for alpha in rs.positive_roots for eps in (0, 1, 2))
    table = tuple(
        tuple(3 * k + s * (e1 - e2 * m) % 3 for m, k, s in refl for e2 in (0, 1, 2))
        for refl in rs.positive_reflections() for e1 in (0, 1, 2)
    )
    return TranspoGroup(f"3W:{rs.name}", "affine_weyl", points, table, rs)


def build_moufang(n: int) -> TranspoGroup:
    """3^n : 2, points identified with F_3^n, v^w = -v-w.

    Its Fischer space is AG(n, 3), so every linear map of F_3^n preserves the
    lines.  For n >= 2 the symmetries are the coordinate cycle and the
    transvection v -> v + v_2 e_1: they generate a group holding SL(n, 3),
    which with the translations and -1 among the maps x -> x^a is transitive
    on lines.
    """
    if n < 1:
        raise ValueError("build_moufang needs n >= 1")
    table = [[0]]
    for size in (3**t for t in range(n)):  # v = (d, u): -v-w is (-d-e, -u-u') digit by digit
        table = [[size * ((-d - e) % 3) + x for e in range(3) for x in row]
                 for d in range(3) for row in table]
    points = tuple(product(range(3), repeat=n))
    index = {v: i for i, v in enumerate(points)}
    linear = (lambda v: (*v[1:], v[0]), lambda v: ((v[0] + v[1]) % 3, *v[1:]))
    symmetries = tuple([index[f(v)] for v in points] for f in linear) if n >= 2 else ()
    return TranspoGroup(f"M3:{n}", "moufang", points, tuple(map(tuple, table)),
                        symmetries=symmetries)


def parse_group(desc: str) -> TranspoGroup:
    """Catalog descriptors: S<n>, W:<type><rank>, 3W:<type><rank>, M3:<n>."""
    desc = desc.strip()
    if desc.startswith("S") and desc[1:].isdigit():
        return build_symmetric(int(desc[1:]))
    if desc.startswith("W:"):
        return build_weyl(parse_root_system(desc[2:]))
    if desc.startswith("3W:"):
        return build_affine_weyl(parse_root_system(desc[3:]))
    if desc.startswith("M3:") and desc[3:].isdigit():
        return build_moufang(int(desc[3:]))
    raise ValueError(f"cannot parse group descriptor {desc!r}")


# Catalog instances used by the verification and acceptance suites.
CATALOG = (
    "S3",
    "S4",
    "S5",
    "W:A2",
    "W:A3",
    "W:D4",
    "3W:A1",
    "3W:A2",
    "3W:A3",
    "3W:D4",
    "M3:2",
    "M3:3",
)
