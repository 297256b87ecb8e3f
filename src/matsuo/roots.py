"""Simply laced root systems (A_n, D_n, E_6/7/8) in simple-root coordinates.

Roots are integer tuples in the simple-root basis.  Since all roots have the
same length, the Cartan pairing <alpha, beta^vee> equals the inner product
normalised so that (alpha, alpha) = 2, i.e. alpha^T C beta with C the Cartan
matrix.
"""

from __future__ import annotations

from typing import NamedTuple


def _edges(type_name: str, rank: int) -> list[tuple[int, int]]:
    if type_name == "A":
        if rank < 1:
            raise ValueError("A_n needs n >= 1")
        return [(i, i + 1) for i in range(rank - 1)]
    if type_name == "D":
        if rank < 3:
            raise ValueError("D_n needs n >= 3")
        return [(i, i + 1) for i in range(rank - 2)] + [(rank - 3, rank - 1)]
    if type_name == "E":
        if rank not in (6, 7, 8):
            raise ValueError("E_n needs n in {6, 7, 8}")
        chain = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
        return [(a, b) for a, b in chain if a < rank and b < rank] + [(1, 3)]
    raise ValueError(f"unsupported root system type {type_name!r}")


class RootSystem(NamedTuple):
    type_name: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]
    root_set: frozenset = frozenset()

    @property
    def name(self) -> str:
        return f"{self.type_name}{self.rank}"

    def simple_roots(self) -> list[tuple[int, ...]]:
        n = self.rank
        return [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]

    def pairing(self, alpha, beta) -> int:
        """<alpha, beta^vee> = alpha^T C beta."""
        C = self.cartan
        n = self.rank
        return sum(
            alpha[i] * C[i][j] * beta[j] for i in range(n) for j in range(n) if alpha[i] and beta[j]
        )

    def reflect(self, alpha, beta):
        """sigma_beta(alpha) = alpha - <alpha, beta^vee> beta."""
        m = self.pairing(alpha, beta)
        return tuple(a - m * b for a, b in zip(alpha, beta))

    def positive_reflections(self) -> list[list[tuple[int, int, int]]]:
        """Entry [i][j] is (m, k, s) with m = <alpha_i, alpha_j^vee> and
        sigma_{alpha_j}(alpha_i) = s * alpha_k, indices into positive_roots.  Simply
        laced, m is 2 when i = j, 1 when alpha_i - alpha_j is a root, -1 when
        alpha_i + alpha_j is one, else 0.  A root's key holds 8 bits per coordinate,
        so the key of a sum or difference of roots is the sum or difference of keys."""
        keys = [sum(c << 8 * t for t, c in enumerate(r)) for r in self.positive_roots]
        diff = {}
        for k, g in enumerate(keys):
            diff[g], diff[-g] = (1, k, 1), (1, k, -1)
        plus = {g: (-1, k, 1) for k, g in enumerate(keys)}
        table = []
        for i, a in enumerate(keys):
            table.append([diff.get(a - b) or plus.get(a + b) or (0, i, 1) for b in keys])
            table[i][i] = (2, i, -1)
        return table

    def is_root(self, v) -> bool:
        return v in self.root_set

    @staticmethod
    def is_positive(v) -> bool:
        for c in v:
            if c:
                return c > 0
        return False


def build_root_system(type_name: str, rank: int) -> RootSystem:
    edges = _edges(type_name, rank)
    cartan = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for a, b in edges:
        cartan[a][b] = cartan[b][a] = -1
    cartan_t = tuple(tuple(row) for row in cartan)

    simples = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]

    roots = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for alpha in frontier:  # sigma_i(alpha) = alpha - <alpha, alpha_i^vee> alpha_i
            for i, col in enumerate(cartan_t):
                m = sum(a * c for a, c in zip(alpha, col) if a)
                beta = alpha[:i] + (alpha[i] - m,) + alpha[i + 1 :]
                if beta not in roots:
                    roots.add(beta)
                    nxt.append(beta)
        frontier = nxt
    positives = sorted(v for v in roots if RootSystem.is_positive(v))
    return RootSystem(type_name, rank, cartan_t, tuple(positives), frozenset(roots))


def parse_root_system(desc: str) -> RootSystem:
    """Parse a type descriptor like A3, D4, E6."""
    desc = desc.strip()
    if len(desc) < 2 or desc[0] not in "ADE" or not desc[1:].isdigit():
        raise ValueError(f"cannot parse root system descriptor {desc!r}")
    return build_root_system(desc[0], int(desc[1:]))
