"""Point-line geometry of a 3-transposition group: closures, components, near-solid lines."""

from __future__ import annotations

from .transpo import TranspoGroup

# a connected closure is named by its size: 1, 3, 6 and 9 are the 3-generated
# ones (point, line, dual affine plane, affine plane), and the other realizable
# sizes are pairwise distinct within the catalog
_SIZE_TO_TYPE = {
    1: "ThreeGen", 3: "ThreeGen", 6: "ThreeGen", 9: "ThreeGen",
    10: "S5", 12: "WD4", 18: "AffA3", 27: "Mou3",
}


class FischerSpace:
    """Partial linear space with lines {a, b, b^a} over noncommuting pairs.

    `third[i][j]` is the third point of the line through i and j, or -1 for
    non-collinear pairs.
    """

    def __init__(self, n, third, labels, family, payloads=None, group=None):
        self.n = n
        self.third = third
        self.labels = labels
        self.family = family
        self.payloads = payloads
        self.group = group
        lines = set()
        for i in range(n):
            for j in range(i + 1, n):
                k = third[i][j]
                if k >= 0:
                    lines.add(tuple(sorted((i, j, k))))
        self.lines = sorted(lines)
        self.adjacency = [
            frozenset(j for j in range(n) if third[i][j] >= 0) for i in range(n)
        ]

    def collinear(self, i: int, j: int) -> bool:
        return self.third[i][j] >= 0

    # -- closures -----------------------------------------------------------

    def closure(self, seed, closed=frozenset()) -> frozenset:
        """Smallest subspace containing the seed and `closed` (third-point fixed point).

        `closed` must be a subspace: pairs inside it give no new point, so the
        pass starts at the first point outside it.
        """
        members = set(closed)
        elems = list(closed)
        start = len(elems)
        for x in seed:
            if x not in members:
                members.add(x)
                elems.append(x)
        if not members:
            raise ValueError("closure needs a nonempty seed")
        third = self.third
        i = start
        while i < len(elems):
            x = elems[i]
            row = third[x]
            for y in elems[:i]:
                z = row[y]
                if z >= 0 and z not in members:
                    members.add(z)
                    elems.append(z)
            i += 1
        return frozenset(members)

    def component_of(self, subset, start: int) -> frozenset:
        """Connected component of `start` in the collinearity graph on `subset`."""
        subset = set(subset)
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in self.adjacency[x] & subset:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return frozenset(seen)

    def components(self, subset=None) -> list[frozenset]:
        points = set(range(self.n)) if subset is None else set(subset)
        out = []
        while points:
            comp = self.component_of(points, next(iter(points)))
            out.append(comp)
            points -= comp
        return sorted(out, key=lambda c: (len(c), sorted(c)))

    def preserves_third(self, sigma: list[int]) -> bool:
        """Whether `sigma` permutes the points with third[sigma i][sigma j] =
        sigma(third[i][j]) for every pair, -1 kept as -1; n^2 lookups."""
        third = self.third
        return sorted(sigma) == list(range(self.n)) and all(
            [third[si][sj] for sj in sigma] == [t if t < 0 else sigma[t] for t in third[i]]
            for i, si in enumerate(sigma)
        )

    def point_orbits(self) -> list[list[int]] | None:
        """Orbits of the points under the maps x -> x^a that pass `preserves_third`,
        by smallest point, or None if one fails.  A union-find checks a map only
        where it joins classes, and stops at one class per component."""
        root = list(range(self.n))

        def find(x):
            while root[x] != x:
                root[x] = x = root[root[x]]
            return x

        classes, target = self.n, len(self.components())
        for a in range(self.n):
            if classes == target:
                break
            sigma = [x if y < 0 else y for x, y in enumerate(self.third[a])]  # x -> x^a
            joins = [(x, y) for x, y in enumerate(sigma) if find(x) != find(y)]
            if joins and not self.preserves_third(sigma):
                return None
            for x, y in joins:
                x, y = sorted((find(x), find(y)))
                if x != y:
                    root[y] = x  # a class is rooted at its smallest point
                    classes -= 1
        orbits: dict[int, list[int]] = {}
        for x in range(self.n):
            orbits.setdefault(find(x), []).append(x)
        return list(orbits.values())

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def _component_type(self, comp: frozenset) -> str:
        """The witness name of a connected closure, read off its size."""
        return _SIZE_TO_TYPE.get(len(comp), f"Unknown({len(comp)})")

    # -- near-solid machinery ------------------------------------------------

    def line_orbit_class(self, line) -> str:
        """Vertical/Horizontal split of lines in a 3^n:W Fischer space."""
        if self.family != "affine_weyl":
            raise ValueError("line orbits are defined for affine Weyl spaces only")
        roots = {self.payloads[i][1] for i in line}
        return "vertical" if len(roots) == 1 else "horizontal"

    def is_near_solid(self, line) -> tuple[bool, dict | None]:
        """Decide near-solidity of a line; on failure return the offending subspace.

        Enumerates closures of line + {c, d} over all point pairs, each grown
        from the closure of line + {c}, and classifies the connected component
        of the line in each distinct one: the first that is not allowed is the
        witness.
        """
        line = tuple(sorted(line))
        in_range = len(line) == 3 and line[0] >= 0 and line[2] < self.n
        if not in_range or self.third[line[0]][line[1]] != line[2]:
            raise ValueError("not a line of this space")
        lset = frozenset(line)
        a = line[0]
        allowed = set()  # closures met already, each with an allowed component
        for c in range(self.n):
            base = self.closure((c,), lset)
            for d in range(c, self.n):
                if d in base:
                    continue  # closure is 3-generated or less on top of the line
                span = self.closure((d,), base)
                if span in allowed:
                    continue
                comp = self.component_of(span, a)
                t = self._component_type(comp)
                # an 18-point closure of a line and two points occurs in 3^n:W only
                if t in ("ThreeGen", "S5") or (
                    t == "AffA3" and self.line_orbit_class(line) == "vertical"
                ):
                    allowed.add(span)
                    continue
                return False, {"type": t, "points": sorted(comp)}
        return True, None

    def line_orbits(self) -> list[list[int]]:
        """Orbits of lines under the point maps x -> x^a, as sorted lists of
        indices into `lines`.  x^a is third[a][x], or x when a and x are not
        collinear; these maps preserve lines and closures."""
        line_id = [[-1] * self.n for _ in range(self.n)]
        for i, (x, y, z) in enumerate(self.lines):
            for p, q in ((x, y), (y, x), (x, z), (z, x), (y, z), (z, y)):
                line_id[p][q] = i
        seen = [False] * len(self.lines)
        orbits = []
        for start in range(len(self.lines)):
            if seen[start]:
                continue
            seen[start] = True
            orbit = [start]
            for i in orbit:  # breadth first: the list grows while it is read
                x, y, _ = self.lines[i]
                for row in self.third:
                    u, v = row[x], row[y]
                    j = line_id[x if u < 0 else u][y if v < 0 else v]
                    if not seen[j]:
                        seen[j] = True
                        orbit.append(j)
            orbits.append(sorted(orbit))
        return orbits


def space_of(g: TranspoGroup) -> FischerSpace:
    """The Fischer space of g: collinear points x, y span the line {x, y, x^y}."""
    n = g.size
    third = [[g.conj[i][j] if g.collinear(i, j) else -1 for j in range(n)] for i in range(n)]
    labels = [g.payload_str(i) for i in range(n)]
    return FischerSpace(n, third, labels, g.family, payloads=g.points, group=g)
