"""The verification suites behind `matsuo verify`.

Each suite checks one group (fusion, equivalence) or one root type (model,
torus, section) and returns `(passed, detail)`.  `run` builds the ledger; a
check that raises an algebra, automorphism or field error fails with detail
`{"error": message}`.

Over K = k(sqrt d), fusion, equivalence and section build the algebra over k
(`base_field`): fusion and the derivation nullity are rank conditions, and the
random maps and root automorphisms have integer entries, so each verdict over
k is the verdict over K.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import AlgebraError, AutosError, MatsuoAlgebra
from .deriv import derivation_basis, is_derivation, satisfies_r_system, spans_agree
from .fields import DivisionByZero, Field, FieldError, base_field
from .fischer import space_of
from .linalg import apply
from .roots import RootSystem, parse_root_system
from .transpo import parse_group


def _algebra(desc: str, field: Field) -> MatsuoAlgebra:
    """The Matsuo algebra of a group descriptor at eta = 1/2."""
    return MatsuoAlgebra(space_of(parse_group(desc)), field.coerce(Fraction(1, 2)), field)


def _param(field: Field, rng: random.Random, nontrivial: bool = False):
    """A random point (c, s) on the circle from t = a/b, with s != 0 when `nontrivial`."""
    from . import autos

    while True:
        t = Fraction(rng.randrange(-20, 21), rng.randrange(1, 12))
        try:
            p = autos.pythagorean_param(field, t)
        except (autos.CircleRelationViolated, DivisionByZero):
            continue
        if not (nontrivial and field.is_zero(p[1])):
            return p


def _diagram_flip(rs: RootSystem) -> list | None:
    """A nontrivial Dynkin diagram permutation of A_n (n >= 2) or D_n, else None."""
    n = rs.rank
    if rs.type_name == "A" and n >= 2:
        return list(range(n - 1, -1, -1))
    if rs.type_name == "D":
        return [*range(n - 2), n - 1, n - 2]
    return None


# -- suites: (field, group or type, rng, trials) -> (passed, detail) ------------


def fusion(field: Field, desc: str, rng, trials) -> tuple[bool, list]:
    """The Jordan fusion law at the smallest axis of each orbit of the point maps,
    which are automorphisms when `products` is the table of `third` and each map
    used preserves `third`; a failing orbit, or every axis without those checks,
    is checked at every axis.  The detail lists the first three violations."""
    A = _algebra(desc, base_field(field))
    orbits = A.is_matsuo_table() and A.fs.point_orbits() or [[a] for a in range(A.dim)]
    bad = []
    for orbit in orbits:
        found = A.check_fusion(orbit[0])
        if found:
            found += [v for a in orbit[1:] for v in A.check_fusion(a)]
        bad += found
    bad.sort(key=lambda v: v["axis"])  # stable: each axis keeps its own order
    return not bad, bad[:3]


def equivalence(field: Field, desc: str, rng: random.Random, trials: int) -> tuple[bool, dict]:
    """Leibniz and (R1)-(R7) agree on the derivation space and on `trials` random maps."""
    A = _algebra(desc, base_field(field))
    F, n = A.field, A.dim
    b1 = derivation_basis(A, system="leibniz")
    b2 = derivation_basis(A, system="r")
    ok = spans_agree(A, b1, b2)
    detail = {"leibniz": len(b1), "r": len(b2)}
    for _ in range(trials):
        d = {}  # a random map's coefficient vector: up to 3 entries in each column
        for a in range(n):
            for b in rng.sample(range(n), min(3, n)):
                if not F.is_zero(v := F.coerce(rng.randrange(-3, 4))):
                    d[a * n + b] = v
        if satisfies_r_system(A, d) != is_derivation(A, d):
            ok = False
            detail["random_map_disagreement"] = True
            break
    return ok, detail


def model(field: Field, t: str, rng, trials) -> tuple[bool, dict]:
    """Model B of the root type is isomorphic to M(3^n:W)."""
    from . import autos

    B = autos.ModelB(parse_root_system(t), field)
    autos.model_b_iso(B, _algebra(f"3W:{t}", field))
    return True, {"dim": B.dim}


def torus(field: Field, t: str, rng: random.Random, trials: int) -> tuple[bool, dict]:
    """Torus elements compose as their SO_2 parameters multiply, on `trials` random pairs."""
    from . import autos

    B = autos.ModelB(parse_root_system(t), field)
    rank = B.rs.rank
    for _ in range(trials):
        p1 = [_param(field, rng) for _ in range(rank)]
        p2 = [_param(field, rng) for _ in range(rank)]
        r1 = autos.torus_automorphism(B, p1)
        r2 = autos.torus_automorphism(B, p2)
        r12 = autos.torus_automorphism(B, [autos.so2_mul(field, a, b) for a, b in zip(p1, p2)])
        comp = [apply(r1, c, field) for c in r2]
        if any(B.sub(a, b) for a, b in zip(comp, r12)):
            raise autos.VerificationFailure("homomorphism property failed")
    # a block is fixed pointwise exactly when its rotation is the identity
    draws = [_param(field, rng, nontrivial=True) for _ in range(rank)]
    identity = (field.one_raw(), field.zero_raw())
    moved = sum(1 for p in autos.torus_params_for_roots(B, draws) if p != identity)
    return True, {"trials": trials, "fixed_space_dim": B.dim - 2 * moved}


def section(field: Field, t: str, rng: random.Random, trials) -> tuple[bool, dict]:
    """Weyl reflections and the diagram flip act on M(3^n:W); torus characters are additive."""
    from . import autos

    rs = parse_root_system(t)
    M = _algebra(f"3W:{t}", base_field(field))
    for s in rs.simple_roots():
        autos.root_automorphism(M, autos.weyl_reflection_matrix(rs, s))
    detail = {"weyl_reflections": rs.rank}
    flip = _diagram_flip(rs)
    if flip is not None:
        autos.root_automorphism(M, autos.diagram_automorphism_matrix(rs, flip))
        detail["diagram_flip"] = True
    if field.sqrt_raw(field.coerce(-1)) is None or field.sqrt_raw(field.coerce(3)) is None:
        return True, detail
    # every draw gives one verdict: c - i s is a character, and e_a e_b involves no torus
    params = [_param(field, rng, nontrivial=True) for _ in range(rs.rank)]
    rep = autos.character_report(autos.ModelB(rs, field), params)
    detail["character_additivity"] = rep["additive"]
    detail["pair_products_proportional"] = rep["pair_products_proportional"]
    return rep["additive"] and rep["pair_products_proportional"], detail


# suite name -> (check, what it runs over), in the order `run` applies them
SUITES = {
    "fusion": (fusion, "groups"),
    "equivalence": (equivalence, "groups"),
    "model": (model, "types"),
    "torus": (torus, "types"),
    "section": (section, "types"),
}


def run(suite: str, field: Field, groups, types, rng: random.Random, trials: int) -> list[dict]:
    """The ledger of `suite` ("all" for every suite): one entry per group or type."""
    targets = {"groups": groups, "types": types}
    ledger = []
    for name in SUITES if suite == "all" else (suite,):
        check, over = SUITES[name]
        for target in targets[over]:
            try:
                passed, detail = check(field, target, rng, trials)
            except (AlgebraError, AutosError, FieldError) as e:
                passed, detail = False, {"error": str(e)}
            ledger.append({"check": f"{name} {target}", "passed": passed, "detail": detail})
    return ledger
