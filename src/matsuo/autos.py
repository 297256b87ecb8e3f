"""Automorphism constructions for M(3^n:W).

Covers the block model of M(3^n:W) over a field containing sqrt(3), its
explicit isomorphism, the torus of rotation automorphisms, root-system-induced
automorphisms, and the character bookkeeping of the torus action.

Every map built here passes `verify_automorphism`, which checks it on every
basis pair in Python ints: it reads the integer table that each algebra
caches (`SparseAlgebra.integer_table`), clears only the map's columns, and
over F_p reduces the difference mod p only where it is compared with zero.
Both algebras, the Matsuo algebra and model B, are structure-constant tables
(`SparseAlgebra`), so the check reads the same kind of table for every source
and target.
"""

from __future__ import annotations

from .algebra import AutosError, BadCharacteristic, IntegerForm, MatsuoAlgebra, SparseAlgebra
from .deriv import LinearEndo
from .fields import Field
from .linalg import rank
from .roots import RootSystem


class NoSqrt3(AutosError):
    pass


class CircleRelationViolated(AutosError):
    pass


class NotRootAutomorphism(AutosError):
    pass


class VerificationFailure(AutosError):
    """A constructed map failed its exact multiplicativity check."""


# -- model B ---------------------------------------------------------------


class ModelB(SparseAlgebra):
    """Block algebra on {1_a, x_a, y_a : a in Phi+} isomorphic to M(3^n:W).

    Basis index 3r is the block unit, 3r+1 and 3r+2 the x/y vectors of the
    r-th positive root.  Each block is the Jordan algebra of a bilinear form
    with b(x, x) = b(y, y) = 9/2, b(x, y) = 0; cross products between
    non-orthogonal blocks twist by the sixth-root rotation theta.
    """

    def __init__(self, rs: RootSystem, field: Field):
        if field.characteristic in (2, 3):
            raise BadCharacteristic("model B needs char k not in {2, 3}")
        s3 = field.sqrt_raw(field.coerce(3))
        if s3 is None:
            raise NoSqrt3(f"3 is not a square in {field}")
        self.rs = rs
        self.field = field
        self.sqrt3 = s3
        m = len(rs.positive_roots)
        self.dim = 3 * m
        F = field
        one, half = F.one_raw(), F.div(F.one_raw(), F.coerce(2))
        # in-block Jordan product: v . w = (1/2) b(v, w) 1, so x.x = (9/4) 1
        nine_quarter = F.div(F.coerce(9), F.coerce(4))
        # a twisted product is (3/4) theta^(+-1) of x_k or y_k, where
        # theta(x) = x/2 - (sqrt3/2) y and theta(y) = (sqrt3/2) x + y/2
        a = F.div(F.coerce(3), F.coerce(8))
        b = F.mul(s3, a)
        na, nb = F.neg(a), F.neg(b)

        products: dict = {}

        def put(i, j, vec):
            products[(i, j) if i <= j else (j, i)] = vec

        for r in range(m):
            u, x, y = 3 * r, 3 * r + 1, 3 * r + 2
            put(u, u, {u: one})
            put(u, x, {x: one})
            put(u, y, {y: one})
            put(x, x, {u: nine_quarter})
            put(y, y, {u: nine_quarter})
            put(x, y, {})
        for r, row in enumerate(rs.positive_reflections()):
            ua, xa, ya = 3 * r, 3 * r + 1, 3 * r + 2
            for s in range(r + 1, m):
                # <alpha, beta^vee> = pair and alpha - pair * beta = sign * alpha_k,
                # so sigma_alpha(beta) = beta - pair * alpha = +-alpha_k as well
                pair, k, sign = row[s]
                if pair == 0:
                    continue
                ub, xb, yb = 3 * s, 3 * s + 1, 3 * s + 2
                xk, yk = 3 * k + 1, 3 * k + 2
                put(ua, ub, {ua: half, ub: half, 3 * k: F.neg(half)})
                put(ua, xb, {xb: half})
                put(ua, yb, {yb: half})
                put(ub, xa, {xa: half})
                put(ub, ya, {ya: half})
                if pair < 0:
                    # alpha_k = alpha + beta: x_a x_b = -(3/4) theta(y_k),
                    # x_a y_b = y_a x_b = (3/4) theta(x_k), y_a y_b = (3/4) theta(y_k)
                    put(xa, xb, {xk: nb, yk: na})
                    put(xa, yb, {xk: a, yk: nb})
                    put(ya, xb, {xk: a, yk: nb})
                    put(ya, yb, {xk: b, yk: a})
                else:
                    # alpha_k is the higher root g minus the lower l:
                    # x_g x_l = y_l y_g = (3/4) theta^-1(y_k),
                    # x_g y_l = (3/4) theta^-1(x_k), x_l y_g = -(3/4) theta^-1(x_k)
                    xg, yg, xl, yl = (xa, ya, xb, yb) if sign > 0 else (xb, yb, xa, ya)
                    put(xg, xl, {xk: nb, yk: a})
                    put(xg, yl, {xk: a, yk: b})
                    put(xl, yg, {xk: na, yk: nb})
                    put(yl, yg, {xk: nb, yk: a})
        self.products = products


# -- generic verification ---------------------------------------------------


def verify_automorphism(A, endo: LinearEndo, target=None) -> None:
    """Raise VerificationFailure unless `endo` is multiplicative on all basis
    pairs of A and bijective onto `target` (A itself when omitted).

    Multiplicativity is checked in Python ints: with the cached tables of A
    and the target times Ts and Tt (`integer_table`) and the images times S,
    Ts phi(e_i) phi(e_j) and Tt S phi(e_i e_j) both come out times Ts Tt S^2.
    """
    target = A if target is None else target
    F = target.field
    ts, src = A.integer_table
    tt, tgt = target.integer_table
    form = IntegerForm(F, endo.cols)
    cols = [form.vector(c) for c in endo.cols]

    def residual(i, j):
        acc = ({}, {})
        form.add_product(acc, ts, tgt, cols[i], cols[j])
        if (i, j) in src:
            form.add_image(acc, -tt * form.scale, cols, src[(i, j)])
        return acc

    pair = form.failing_pair(A.dim, residual)
    if pair is not None:
        raise VerificationFailure(f"multiplicativity fails on basis pair {pair}")
    if A.dim != target.dim or rank(endo.cols, F) != A.dim:
        raise VerificationFailure("map is not bijective")


# -- model B isomorphism -----------------------------------------------------


def model_b_iso(B: ModelB, M: MatsuoAlgebra) -> list[dict]:
    """The basis map B -> M(3^n:W); verified multiplicative and bijective.

    Images: 1_a -> (2/3)((0) + (+a) + (-a)), x_a -> sqrt3((0) - (+a)),
    y_a -> 2(-a) - (0) - (+a).
    """
    if M.field != B.field:
        raise AutosError("both algebras must live over the same field")
    F = B.field
    rs = B.rs
    payloads = M.fs.payloads
    if payloads is None or M.fs.family != "affine_weyl":
        raise AutosError("target must be a Matsuo algebra of 3^n:W type")
    pt = {p: i for i, p in enumerate(payloads)}
    two_thirds = F.div(F.coerce(2), F.coerce(3))
    cols: list[dict] = []
    for alpha in rs.positive_roots:
        z, p, m = pt[(0, alpha)], pt[(1, alpha)], pt[(2, alpha)]
        cols.append({z: two_thirds, p: two_thirds, m: two_thirds})
        cols.append({z: B.sqrt3, p: F.neg(B.sqrt3)})
        cols.append({m: F.coerce(2), z: F.coerce(-1), p: F.coerce(-1)})
    verify_automorphism(B, LinearEndo(B.dim, cols), M)
    return cols


# -- the torus ---------------------------------------------------------------


def so2_mul(field: Field, a, b):
    (c1, s1), (c2, s2) = a, b
    F = field
    return (
        F.sub(F.mul(c1, c2), F.mul(s1, s2)),
        F.add(F.mul(c1, s2), F.mul(s1, c2)),
    )


def check_circle(field: Field, param) -> None:
    c, s = param
    F = field
    if F.add(F.mul(c, c), F.mul(s, s)) != F.one_raw():
        raise CircleRelationViolated(f"c^2 + s^2 != 1 for {F.format(c)}, {F.format(s)}")


def pythagorean_param(field: Field, t):
    """Exact point on c^2 + s^2 = 1 from a rational parameter t."""
    F = field
    t = F.coerce(t)
    denom = F.add(F.one_raw(), F.mul(t, t))
    if F.is_zero(denom):
        raise CircleRelationViolated("1 + t^2 = 0 has no Pythagorean point")
    return (
        F.div(F.sub(F.one_raw(), F.mul(t, t)), denom),
        F.div(F.add(t, t), denom),
    )


def torus_params_for_roots(B: ModelB, simple_params) -> list:
    """Extend SO_2 parameters on the simple roots to all positive roots."""
    F = B.field
    rs = B.rs
    for p in simple_params:
        check_circle(F, p)
    params = []
    # positive roots have nonnegative simple-root coordinates e_i, so
    # rho_alpha = prod_i rho_i^{e_i}; SO_2 is abelian, so the order is immaterial
    for alpha in rs.positive_roots:
        rho = (F.one_raw(), F.zero_raw())
        for p, e in zip(simple_params, alpha):
            for _ in range(e):
                rho = so2_mul(F, rho, p)
        params.append(rho)
    return params


def torus_automorphism(B: ModelB, simple_params) -> LinearEndo:
    """The unique automorphism restricting to the given rotations on simple blocks; verified."""
    F = B.field
    params = torus_params_for_roots(B, simple_params)
    cols = [{} for _ in range(B.dim)]
    for r, (c, s) in enumerate(params):
        u, x, y = 3 * r, 3 * r + 1, 3 * r + 2
        cols[u] = {u: F.one_raw()}
        xi = {x: c, y: s}
        yi = {x: F.neg(s), y: c}
        cols[x] = {k: v for k, v in xi.items() if not F.is_zero(v)}
        cols[y] = {k: v for k, v in yi.items() if not F.is_zero(v)}
    endo = LinearEndo(B.dim, cols)
    verify_automorphism(B, endo)
    return endo


# -- root-system-induced automorphisms ---------------------------------------


def weyl_reflection_matrix(rs: RootSystem, root) -> list:
    """Images of the simple roots under sigma_root."""
    return [rs.reflect(s, root) for s in rs.simple_roots()]


def diagram_automorphism_matrix(rs: RootSystem, perm) -> list:
    """Images of the simple roots under a permutation of the Dynkin diagram."""
    simples = rs.simple_roots()
    return [simples[perm[i]] for i in range(rs.rank)]


def _apply_matrix(mat, v):
    out = [0] * len(mat[0])
    for c, e in zip(mat, v):
        if e:
            for k, x in enumerate(c):
                out[k] += e * x
    return tuple(out)


def root_automorphism(M: MatsuoAlgebra, mat) -> LinearEndo:
    """Automorphism of M(3^n:W) induced by an automorphism of the root system.

    `mat` lists the images of the simple roots (in simple-root coordinates).
    """
    fs = M.fs
    if fs.family != "affine_weyl" or fs.payloads is None:
        raise AutosError("root automorphisms act on 3^n:W Matsuo algebras")
    rs = fs.group.root_system
    simples = rs.simple_roots()
    for a in mat:
        if not rs.is_root(tuple(a)):
            raise NotRootAutomorphism("a simple root is not mapped to a root")
    for i in range(rs.rank):
        for j in range(rs.rank):
            if rs.pairing(tuple(mat[i]), tuple(mat[j])) != rs.pairing(
                simples[i], simples[j]
            ):
                raise NotRootAutomorphism("the Cartan pairing is not preserved")
    pt = {p: i for i, p in enumerate(fs.payloads)}
    F = M.field
    cols = [{} for _ in range(M.dim)]
    for i, (eps, alpha) in enumerate(fs.payloads):
        image = _apply_matrix(mat, alpha)
        if not rs.is_root(image):
            raise NotRootAutomorphism(f"{alpha} is not mapped to a root")
        if RootSystem.is_positive(image):
            target = (eps, image)
        else:
            target = ((-eps) % 3, tuple(-c for c in image))
        cols[i] = {pt[target]: F.one_raw()}
    endo = LinearEndo(M.dim, cols)
    verify_automorphism(M, endo)
    return endo


# -- torus characters ----------------------------------------------------------


def character_report(B: ModelB, simple_params) -> dict:
    """Eigenvalues of a torus element on e_a = x_a + i y_a and their additivity."""
    F = B.field
    i_raw = F.sqrt_raw(F.coerce(-1))
    if i_raw is None:
        raise AutosError(f"-1 is not a square in {F}")
    endo = torus_automorphism(B, simple_params)
    rs = B.rs
    lambdas = []
    for r in range(len(rs.positive_roots)):
        x, y = 3 * r + 1, 3 * r + 2
        # the verified map sends x_r to c x_r + s y_r
        c, s = endo.cols[x].get(x, F.zero_raw()), endo.cols[x].get(y, F.zero_raw())
        e_vec = {x: F.one_raw(), y: i_raw}
        f_vec = {x: F.one_raw(), y: F.neg(i_raw)}
        lam = F.sub(c, F.mul(i_raw, s))
        for vec, ev in ((e_vec, lam), (f_vec, F.inv(lam))):
            got = endo.apply(B, vec)
            want = B.scale(ev, vec)
            if B.sub(got, want):
                raise VerificationFailure("torus element does not act diagonally")
        lambdas.append(lam)
    additive = True
    proportional = True
    for r, row in enumerate(rs.positive_reflections()):
        for s, (pair, t, _) in enumerate(row):
            if pair != -1:  # alpha_r + alpha_s is a root, alpha_t, just when the pairing is -1
                continue
            if F.mul(lambdas[r], lambdas[s]) != lambdas[t]:
                additive = False
            e_a = {3 * r + 1: F.one_raw(), 3 * r + 2: i_raw}
            e_b = {3 * s + 1: F.one_raw(), 3 * s + 2: i_raw}
            prod = B.multiply(e_a, e_b)
            # proportionality to e_gamma: prod = mu * (x + i y)
            mu = prod.get(3 * t + 1, F.zero_raw())
            want = {3 * t + 1: mu, 3 * t + 2: F.mul(mu, i_raw)}
            if B.sub(prod, want) or F.is_zero(mu):
                proportional = False
    return {
        "eigenvalues": [F.format(l) for l in lambdas],
        "additive": additive,
        "pair_products_proportional": proportional,
    }
