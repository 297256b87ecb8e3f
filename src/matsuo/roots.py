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
        sigma_{alpha_j}(alpha_i) = s * alpha_k, indices into positive_roots."""
        roots = self.positive_roots
        index = {r: k for k, r in enumerate(roots)}
        c_beta = [[sum(c * b for c, b in zip(row, beta)) for row in self.cartan] for beta in roots]
        table = [[] for _ in roots]
        for alpha, row in zip(roots, table):
            for beta, cb in zip(roots, c_beta):
                m = sum(a * c for a, c in zip(alpha, cb))
                gamma = tuple(a - m * b for a, b in zip(alpha, beta))
                s = 1 if self.is_positive(gamma) else -1
                row.append((m, index[tuple(s * c for c in gamma)], s))
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
    rs = RootSystem(type_name, rank, cartan_t, tuple(simples))

    roots = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for alpha in frontier:
            for s in simples:
                beta = rs.reflect(alpha, s)
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
