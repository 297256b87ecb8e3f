"""Point-line geometry of a 3-transposition group: closures, components, near-solid lines."""

from __future__ import annotations

from operator import itemgetter

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
    non-collinear pairs; the line {i, j, k} is read as third[i][j] = k, i < j < k.
    """

    def __init__(self, n, third, labels, family, payloads=None, group=None):
        self.n = n
        self.third = third
        self.labels = labels
        self.family = family
        self.payloads = payloads
        self.group = group
        self.lines = [
            (i, j, k) for i, row in enumerate(third) for j, k in enumerate(row) if k > j > i
        ]
        self.adjacency = [frozenset(j for j, k in enumerate(row) if k >= 0) for row in third]

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

    def preserves_third(self, sigma: list[int]) -> bool:
        """Whether `sigma` permutes the points with third[sigma i][sigma j] =
        sigma(third[i][j]) for every pair, -1 kept as -1; n^2 lookups."""
        third, image = self.third, [*sigma, -1]  # image[-1] = -1
        return sorted(sigma) == list(range(self.n)) and all(
            itemgetter(*sigma)(third[si]) == itemgetter(*third[i])(image)
            for i, si in enumerate(sigma)
        )

    def point_maps(self) -> list[list[int]]:
        """The maps x -> x^a of greedy generators a, each the smallest point outside
        the closure of those before, until it is every point.  x^a is third[a][x], or x
        when a and x are not collinear.  They generate the maps of all points, as
        sigma_{a^b} = sigma_b sigma_a sigma_b when sigma_b passes `preserves_third`:
        each is checked to, else ValueError names a."""
        maps, span = [], frozenset()
        while len(span) < self.n:
            a = next(x for x in range(self.n) if x not in span)
            sigma = [x if y < 0 else y for x, y in enumerate(self.third[a])]
            if not self.preserves_third(sigma):
                raise ValueError(f"the map of point {self.labels[a]} does not preserve the lines")
            maps.append(sigma)
            span = self.closure((a,), span)
        return maps

    @staticmethod
    def _orbits(count: int, images) -> list[list[int]]:
        """Orbits of 0..count-1 as sorted lists, by smallest member; images(i) lists
        the images of i under the generators."""
        seen = [False] * count
        orbits = []
        for start in range(count):
            if not seen[start]:
                seen[start] = True
                orbit = [start]
                for i in orbit:  # breadth first: the list grows while it is read
                    for j in images(i):
                        if not seen[j]:
                            seen[j] = True
                            orbit.append(j)
                orbits.append(sorted(orbit))
        return orbits

    def point_orbits(self) -> list[list[int]] | None:
        """Orbits of the points under the point maps, or None if a generator's map
        fails `preserves_third`."""
        try:
            maps = self.point_maps()
        except ValueError:
            return None
        return self._orbits(self.n, lambda x: [sigma[x] for sigma in maps])

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.component_of(range(self.n), 0)) == self.n

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

        Enumerates closures of line + {c, d} over point pairs c <= d, d outside the
        base B_c (the closure of line + {c}), and classifies the connected component
        of the line in each distinct one: the first that is not allowed is the
        witness.  The closure of line + {c, d} is that of B_c and B_d, so it is grown
        from B_c once per pair of bases: a pair met before gave the same closure.
        """
        line = tuple(sorted(line))
        in_range = len(line) == 3 and line[0] >= 0 and line[2] < self.n
        if not in_range or self.third[line[0]][line[1]] != line[2]:
            raise ValueError("not a line of this space")
        lset = frozenset(line)
        a = line[0]
        bases = [self.closure((c,), lset) for c in range(self.n)]
        ids: dict = {}
        base_id = [ids.setdefault(base, len(ids)) for base in bases]
        allowed = set()  # closures met already, each with an allowed component
        met = set()  # pairs of base ids whose closure was grown
        for c, base in enumerate(bases):
            i = base_id[c]
            for d in range(c, self.n):
                if d in base:
                    continue  # closure is 3-generated or less on top of the line
                pair = (i, base_id[d]) if i <= base_id[d] else (base_id[d], i)
                if pair in met:
                    continue
                met.add(pair)
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

    def line_orbits(self, extra=()) -> list[list[int]]:
        """Orbits of lines under the point maps and the `extra` point permutations,
        as sorted lists of indices into `lines`; ValueError if a generator's map is
        not an automorphism.  The extra maps are used only if each passes
        `preserves_third`, else the orbits are those of the point maps alone."""
        maps, line_id = self.point_maps(), [[-1] * self.n for _ in range(self.n)]
        if all(map(self.preserves_third, extra)):
            maps += extra
        for i, (x, y, z) in enumerate(self.lines):
            for p, q in ((x, y), (y, x), (x, z), (z, x), (y, z), (z, y)):
                line_id[p][q] = i

        def images(i):
            x, y, _ = self.lines[i]
            return [line_id[sigma[x]][sigma[y]] for sigma in maps]

        return self._orbits(len(self.lines), images)


def space_of(g: TranspoGroup) -> FischerSpace:
    """The Fischer space of g: collinear points x, y span the line {x, y, x^y}, and
    x^y = x just when x = y or x, y commute."""
    third = [[-1 if k == i else k for k in row] for i, row in enumerate(g.conj)]
    return FischerSpace(g.size, third, g.labels, g.family, payloads=g.points, group=g)
