"""Explicit m-torsion of elliptic curves over prime fields.

Given E: y^2 = x^3 + Ax + B over F_q and 2 <= m <= 13 coprime to q, build the
full torsion field F_q(E[m]) as an explicit extension, a deterministic basis
(P1, P2) of E[m], the matrix of the q-power Frobenius in that basis, the Weil
pairing, and degree queries of the form "how large is the subfield generated
by this set of coordinates".

Strategy: factor the primitive part of the m-th division polynomial over F_q.
Each irreducible factor of degree d contributes a point defined over F_{q^d}
or its quadratic extension (checked by an Euler criterion on x^3 + Ax + B),
and the torsion field degree n is the lcm of those contributions.  Some
factor always realises the full degree n when m is a prime power or odd
(short argument: of the exact-order vectors e1, e2, e1+e2 at least one avoids
the at most two proper "prematurely fixed by Frobenius" subgroups), so the
torsion field can be presented as F_q[x]/(that factor), possibly extended by
a square root of f(x1).  For m in {6, 10} the 2-part and the odd part are
built separately and glued.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .curve import DivisionPolynomials, EllipticCurve, count_points_prime
from .finitefield import (
    ExtField,
    PrimeField,
    QuadExt,
    factor_squarefree,
    find_irreducible,
    is_prime,
    is_square_mod,
    poly_deg,
    poly_divmod,
    pow_elt,
)
from .gl2 import divisors, factor_int, mat_mul, mat_order

MAX_M = 13

# Largest q whose int64 kernel stays exact: the longest dot product is a
# ModRing contraction over the degree-84 primitive 13-division polynomial,
# with 84 terms below (q - 1)^2 (see finitefield).
MAX_Q = 1 + math.isqrt((2**63 - 1) // ((MAX_M * MAX_M - 1) // 2))

# divisor x-polynomials to strip so that only exact-order-m abscissas remain
_PRIM_STRIP = {4: (), 6: (3,), 8: (4,), 9: (3,), 10: (5,), 12: (6, 4)}


class TorsionConstructionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# generic-coefficient polynomial helpers (lists of field elements)
#
# Only used on tiny degrees (<= 12) when a root of an F_q-polynomial has to
# be located inside an already-built extension; the hot paths stay on the
# numpy F_q[x] layer.
# ---------------------------------------------------------------------------

def _gtrim(c):
    while len(c) > 1 and not c[-1]:
        c = c[:-1]
    return c


def _gmul(F, a, b):
    out = [F.zero() for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return _gtrim(out)


def _gmod(F, a, g):
    g = _gtrim(list(g))
    dg = len(g) - 1
    if dg == 0:
        return [F.zero()]  # division by a unit
    inv_lead = g[-1].inverse()
    a = _gtrim(list(a))
    while len(a) - 1 >= dg:
        coef = a[-1] * inv_lead
        shift = len(a) - 1 - dg
        for i in range(dg):
            a[shift + i] = a[shift + i] - coef * g[i]
        a = _gtrim(a[:-1])
    return a


def _gpowmod(F, a, e: int, g):
    result = [F.one()]
    base = _gmod(F, a, g)
    while e:
        if e & 1:
            result = _gmod(F, _gmul(F, result, base), g)
        base = _gmod(F, _gmul(F, base, base), g)
        e >>= 1
    return result


def _ggcd(F, a, b):
    a, b = _gtrim(list(a)), _gtrim(list(b))
    while len(b) > 1 or b[0]:
        a, b = b, _gmod(F, a, b)
    # monic
    if a[-1] != F.one():
        inv = a[-1].inverse()
        a = [c * inv for c in a]
    return a


def _groots(F, g, rng: random.Random) -> list:
    """All roots in F of a squarefree polynomial that splits completely in F.

    Cantor–Zassenhaus splitting with random shifts; the coefficients are
    field elements.  Degrees here never exceed 12.
    """
    g = _gtrim(list(g))
    if len(g) == 1:
        return []
    if len(g) == 2:
        return [-(g[0] / g[1])]
    half = (F.order() - 1) // 2
    for _ in range(200):
        shift = F.nth_element(rng.randrange(F.order()))
        h = _gpowmod(F, [shift, F.one()], half, g)
        h = _gtrim([h[0] - F.one()] + list(h[1:]))
        d = _ggcd(F, h, g)
        if 1 < len(d) < len(g):
            q, _ = _gdivmod_exact(F, g, d)
            return _groots(F, d, rng) + _groots(F, q, rng)
    raise TorsionConstructionError("root splitting failed to converge")


def _gdivmod_exact(F, a, g):
    g = _gtrim(list(g))
    dg = len(g) - 1
    inv_lead = g[-1].inverse()
    a = _gtrim(list(a))
    q = [F.zero() for _ in range(max(1, len(a) - dg))]
    while len(a) - 1 >= dg:
        coef = a[-1] * inv_lead
        shift = len(a) - 1 - dg
        q[shift] = coef
        for i in range(dg):
            a[shift + i] = a[shift + i] - coef * g[i]
        a = _gtrim(a[:-1])
    return _gtrim(q), a


# ---------------------------------------------------------------------------
# Jacobian-coordinate scalar ladder (used for huge cofactor multiplications)
# ---------------------------------------------------------------------------

def _jac_double(F, A_coeff, P):
    X1, Y1, Z1 = P
    if not Y1:
        return None
    XX = X1 * X1
    YY = Y1 * Y1
    YYYY = YY * YY
    ZZ = Z1 * Z1
    S = (X1 + YY) * (X1 + YY) - XX - YYYY
    S = S + S
    M = XX + XX + XX + A_coeff * (ZZ * ZZ)
    X3 = M * M - S - S
    eight = F.from_int(8)
    Y3 = M * (S - X3) - eight * YYYY
    Z3 = (Y1 + Z1) * (Y1 + Z1) - YY - ZZ
    return (X3, Y3, Z3)


def _jac_add_affine(F, A_coeff, P, Q_affine):
    """Mixed addition of jacobian P and affine Q."""
    if P is None:
        x2, y2 = Q_affine
        return (x2, y2, F.one())
    X1, Y1, Z1 = P
    x2, y2 = Q_affine
    Z1Z1 = Z1 * Z1
    U2 = x2 * Z1Z1
    S2 = y2 * Z1 * Z1Z1
    H = U2 - X1
    r = S2 - Y1
    r = r + r
    if not H:
        if not r:
            return _jac_double(F, A_coeff, P)
        return None
    HH = H * H
    I = HH + HH + HH + HH
    J = H * I
    V = X1 * I
    X3 = r * r - J - V - V
    YJ = Y1 * J
    Y3 = r * (V - X3) - YJ - YJ
    Z3 = (Z1 + H) * (Z1 + H) - Z1Z1 - HH
    return (X3, Y3, Z3)


def _jac_mul(E: EllipticCurve, P, k: int):
    """k*P for affine P, returning affine, via jacobian double-and-add."""
    if k == 0 or P is None:
        return None
    F = E.field
    A_coeff = E.A
    R = None
    for bit in bin(k)[2:]:
        if R is not None:
            R = _jac_double(F, A_coeff, R)
        if bit == "1":
            R = _jac_add_affine(F, A_coeff, R, P)
    if R is None:
        return None
    X, Y, Z = R
    if not Z:
        return None
    zi = Z.inverse()
    zi2 = zi * zi
    return (X * zi2, Y * zi2 * zi)


# ---------------------------------------------------------------------------
# Weil pairing (Miller's algorithm, numerator/denominator split)
# ---------------------------------------------------------------------------

def _line_value(E: EllipticCurve, R, S, T):
    """Value at T of the line through R and S (tangent if R == S)."""
    F = E.field
    if R is None and S is None:
        return F.one()
    if R is None:
        return T[0] - S[0]
    if S is None:
        return T[0] - R[0]
    x1, y1 = R
    x2, y2 = S
    if x1 == x2:
        if y1 == -y2:
            return T[0] - x1
        num = (x1 * x1 + x1 * x1 + x1 * x1) + E.A
        lam = num / (y1 + y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    return (T[1] - y1) - lam * (T[0] - x1)


def _vertical_value(E, R, T):
    if R is None:
        return E.field.one()
    return T[0] - R[0]


def _miller_both(E: EllipticCurve, P, m: int, T1, T2):
    """f_{m,P}(T1) and f_{m,P}(T2) as (num, den) pairs."""
    F = E.field
    n1 = d1 = n2 = d2 = F.one()
    R = P
    for bit in bin(m)[3:]:
        twoR = E.add(R, R)
        l1 = _line_value(E, R, R, T1)
        l2 = _line_value(E, R, R, T2)
        v1 = _vertical_value(E, twoR, T1)
        v2 = _vertical_value(E, twoR, T2)
        n1 = n1 * n1 * l1
        d1 = d1 * d1 * v1
        n2 = n2 * n2 * l2
        d2 = d2 * d2 * v2
        R = twoR
        if bit == "1":
            RP = E.add(R, P)
            l1 = _line_value(E, R, P, T1)
            l2 = _line_value(E, R, P, T2)
            v1 = _vertical_value(E, RP, T1)
            v2 = _vertical_value(E, RP, T2)
            n1 = n1 * l1
            d1 = d1 * v1
            n2 = n2 * l2
            d2 = d2 * v2
            R = RP
    assert R is None, "point order does not divide the pairing level"
    return (n1, d1), (n2, d2)


def _points_equal(P, Q) -> bool:
    if P is None or Q is None:
        return P is None and Q is None
    return P[0] == Q[0] and P[1] == Q[1]


def weil_pairing(E: EllipticCurve, P, Q, m: int):
    """The m-th Weil pairing e_m(P, Q); both points must have order | m."""
    F = E.field
    if P is None or Q is None:
        return F.one()
    PmQ = E.add(P, E.neg(Q))
    excluded = [None, P, E.neg(Q), PmQ]
    for c in range(5000):
        x = F.nth_element(c)
        fx = E.f(x)
        if not fx:
            continue
        y = F.sqrt(fx)
        if y is None:
            continue
        S = (x, y)
        if any(_points_equal(S, Z) for Z in excluded):
            continue
        QS = E.add(Q, S)
        mS = E.neg(S)
        PmS = E.add(P, mS)
        (a1, b1), (a2, b2) = _miller_both(E, P, m, QS, S)
        (a3, b3), (a4, b4) = _miller_both(E, Q, m, PmS, mS)
        num = a1 * b2 * b3 * a4
        den = b1 * a2 * a3 * b4
        if not num or not den:
            continue  # offset hit a zero of a line; rescan
        return num / den
    raise TorsionConstructionError("no usable pairing offset found")


# ---------------------------------------------------------------------------
# batch inversion
# ---------------------------------------------------------------------------

def _batch_inverses(F, vals):
    prefix = []
    acc = F.one()
    for v in vals:
        acc = acc * v
        prefix.append(acc)
    inv = prefix[-1].inverse()
    out = [None] * len(vals)
    for i in range(len(vals) - 1, 0, -1):
        out[i] = inv * prefix[i - 1]
        inv = inv * vals[i]
    out[0] = inv
    return out


# ---------------------------------------------------------------------------
# the torsion datum
# ---------------------------------------------------------------------------

def _encode_point(P):
    if P is None:
        return ("O",)
    return (P[0].encode(), P[1].encode())


@dataclass
class TorsionData:
    """E[m] over an explicit model of F_q(E[m])."""

    q: int
    A: int
    B: int
    m: int
    n: int                      # [F_q(E[m]) : F_q]
    field: object
    curve: EllipticCurve
    P1: tuple
    P2: tuple
    frobenius: tuple            # (a, b, c, d): pi(P1) = a P1 + c P2, pi(P2) = b P1 + d P2
    zeta: object                # e_m(P1, P2), a primitive m-th root of unity
    table: dict
    _decomp: dict

    def point(self, i: int, j: int):
        return self.table[(i % self.m, j % self.m)]

    def decompose(self, P) -> tuple[int, int]:
        return self._decomp[_encode_point(P)]

    def frobenius_point(self, P, k: int = 1):
        if P is None:
            return None
        F = self.field
        return (F.frobenius_power(P[0], k), F.frobenius_power(P[1], k))

    def subfield_degree(self, gens) -> int:
        """[F_q(gens) : F_q]: least k | n with Frobenius^k fixing every gen."""
        F = self.field
        gens = list(gens)
        for k in divisors(self.n):
            if all(F.fixed_by(g, k) for g in gens):
                return k
        raise AssertionError("no fixing power found below n")

    def weil(self, P, Q, level: int | None = None):
        return weil_pairing(self.curve, P, Q, self.m if level is None else level)

    def zeta_d(self, d: int):
        """A primitive d-th root of unity from the pairing, for d | m."""
        assert self.m % d == 0 and d >= 2
        return self.weil(self.point(self.m // d, 0), self.point(0, self.m // d), d)

    @property
    def x1(self):
        return self.P1[0]

    @property
    def y1(self):
        return self.P1[1]

    @property
    def x2(self):
        return self.P2[0]

    @property
    def y2(self):
        return self.P2[1]


def rebase(td: TorsionData, U: tuple) -> TorsionData:
    """The same E[m] seen in the basis P1' = a*P1 + c*P2, P2' = b*P1 + d*P2.

    U = (a, b, c, d) must be invertible mod m; its columns are the new basis
    vectors, matching the column convention of the Frobenius matrix.  The
    Frobenius matrix conjugates, and the pairing root becomes zeta^det(U).
    """
    m = td.m
    a, b, c, d = (x % m for x in U)
    det = (a * d - b * c) % m
    assert math.gcd(det, m) == 1, "columns of U do not form a basis"
    di = pow(det, -1, m)
    Ui = ((d * di) % m, (-b * di) % m, (-c * di) % m, (a * di) % m)
    table = {
        (i, j): td.point(a * i + b * j, c * i + d * j)
        for i in range(m) for j in range(m)
    }
    decomp = {
        key: ((Ui[0] * i + Ui[1] * j) % m, (Ui[2] * i + Ui[3] * j) % m)
        for key, (i, j) in td._decomp.items()
    }
    frob = mat_mul(mat_mul(Ui, td.frobenius, m), U, m)
    return TorsionData(
        q=td.q, A=td.A, B=td.B, m=m, n=td.n, field=td.field, curve=td.curve,
        P1=table[(1, 0)], P2=table[(0, 1)], frobenius=frob,
        zeta=pow_elt(td.zeta, det), table=table, _decomp=decomp,
    )


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _primitive_x_poly(D: DivisionPolynomials, m: int) -> np.ndarray:
    xp, _ = D.torsion_x_polynomial(m)
    for d in _PRIM_STRIP.get(m, ()):
        xpd, _ = D.torsion_x_polynomial(d)
        xp, r = poly_divmod(xp, xpd, D.p)
        assert not r.any(), "divisor polynomial did not divide"
    return xp


def _exact_order(E: EllipticCurve, P, m: int) -> bool:
    if E.mul(P, m) is not None:
        return False
    return all(E.mul(P, m // ell) is not None for ell in factor_int(m))


def _group_order_over_ext(q: int, A: int, B: int, n: int) -> int:
    """|E(F_{q^n})| from |E(F_q)| via the Frobenius trace recurrence."""
    aq = q + 1 - count_points_prime(q, A, B)
    s_prev, s_cur = 2, aq
    for _ in range(n - 1):
        s_prev, s_cur = s_cur, aq * s_cur - q * s_prev
    if n == 0:
        s_cur = 2
    return q ** n + 1 - s_cur


def _random_exact_order_points(E: EllipticCurve, q, A, B, m, n, rng):
    """Yield points of exact order m found through random curve points.

    A random point is pushed into the part of E(F) supported on the primes
    of m (multiplying by the complementary cofactor), its exact order there
    is measured, and a multiple of exact order m is taken.
    """
    F = E.field
    N = _group_order_over_ext(q, A, B, n)
    assert N % (m * m) == 0, "E[m] not rational over the built field"
    ells = factor_int(m)
    M, L = N, 1
    for ell in ells:
        while M % ell == 0:
            M //= ell
            L *= ell
    for _ in range(400):
        x = F.nth_element(rng.randrange(F.order()))
        fx = E.f(x)
        if not fx:
            continue
        y = F.sqrt(fx)
        if y is None:
            continue
        Q = _jac_mul(E, (x, y), M)
        if Q is None:
            continue
        o = L
        for ell in ells:
            while o % ell == 0 and _jac_mul(E, Q, o // ell) is None:
                o //= ell
        if o % m:
            continue
        cand = _jac_mul(E, Q, o // m)
        if cand is not None and _exact_order(E, cand, m):
            yield cand


def _independent(E: EllipticCurve, P1, P2, m: int) -> bool:
    """Do P1, P2 form a basis of E[m]?  (Reduction mod each prime factor.)"""
    for ell in factor_int(m):
        k = m // ell
        Q1 = E.mul(P1, k)
        Q2 = E.mul(P2, k)
        if Q2 is None:
            return False
        xs = set()
        R = Q1
        for _ in range(ell - 1):
            xs.add(R[0].encode())
            R = E.add(R, Q1)
        if Q2[0].encode() in xs:
            return False
    return True


def _complete_basis(E: EllipticCurve, P1, q, A, B, m, n, rng):
    """Find P2 with (P1, P2) a basis of E[m]."""
    cand = (E.field.frobenius_power(P1[0], 1), E.field.frobenius_power(P1[1], 1))
    if _independent(E, P1, cand, m):
        return cand
    for cand in _random_exact_order_points(E, q, A, B, m, n, rng):
        if _independent(E, P1, cand, m):
            return cand
    raise TorsionConstructionError("no independent second generator found")


def _build_table(E: EllipticCurve, P1, P2, m: int):
    """All i*P1 + j*P2 with one batched inversion for the mixed sums."""
    F = E.field
    mults1 = [None] * m
    mults2 = [None] * m
    for i in range(1, m):
        mults1[i] = E.add(mults1[i - 1], P1) if i > 1 else P1
        mults2[i] = E.add(mults2[i - 1], P2) if i > 1 else P2
    table = {}
    for i in range(m):
        table[(i, 0)] = mults1[i]
        table[(0, i)] = mults2[i]
    pairs = [(i, j) for i in range(1, m) for j in range(1, m)]
    dens = [mults2[j][0] - mults1[i][0] for i, j in pairs]
    assert all(bool(d) for d in dens), "basis multiples share an abscissa"
    invs = _batch_inverses(F, dens)
    for (i, j), inv in zip(pairs, invs):
        x1, y1 = mults1[i]
        x2, y2 = mults2[j]
        lam = (y2 - y1) * inv
        x3 = lam * lam - x1 - x2
        y3 = lam * (x1 - x3) - y1
        table[(i, j)] = (x3, y3)
    return table


def _finalize(q, A, B, m, n, E: EllipticCurve, P1, P2) -> TorsionData:
    """Canonical basis, table, Frobenius matrix and pairing root."""
    table = _build_table(E, P1, P2, m)
    enc = {key: _encode_point(pt) for key, pt in table.items()}
    assert len(set(enc.values())) == m * m, "generators were not independent"

    # deterministic re-pick of the basis from the sorted point table
    order_of = {key: m // math.gcd(math.gcd(key[0], key[1]), m) for key in table}
    candidates = sorted((enc[key], key) for key in table if key != (0, 0))
    first = next(key for _, key in candidates if order_of[key] == m)
    i1, j1 = first
    second = next(
        key for _, key in candidates
        if math.gcd(i1 * key[1] - key[0] * j1, m) == 1
    )
    i2, j2 = second
    new_table = {
        (a, b): table[((a * i1 + b * i2) % m, (a * j1 + b * j2) % m)]
        for a in range(m) for b in range(m)
    }
    P1n = new_table[(1, 0)]
    P2n = new_table[(0, 1)]
    decomp = {_encode_point(pt): key for key, pt in new_table.items()}

    F = E.field
    frob = {}
    for tag, P in (("1", P1n), ("2", P2n)):
        img = (F.frobenius_power(P[0], 1), F.frobenius_power(P[1], 1))
        frob[tag] = decomp[_encode_point(img)]
    a, c = frob["1"]
    b, d = frob["2"]
    mat = (a, b, c, d)
    assert (a * d - b * c) % m == q % m, "pairing equivariance broken: det != q"
    assert mat_order(mat, m) == n, "frobenius order does not match field degree"

    zeta = weil_pairing(E, P1n, P2n, m)
    assert pow_elt(zeta, m) == F.one()
    for ell in factor_int(m):
        assert pow_elt(zeta, m // ell) != F.one(), "pairing of a basis must be primitive"

    return TorsionData(
        q=q, A=A, B=B, m=m, n=n, field=F, curve=E, P1=P1n, P2=P2n,
        frobenius=mat, zeta=zeta, table=new_table, _decomp=decomp,
    )


def _two_torsion_roots(q, A, B, rng):
    """(n2, field-or-None, roots): the 2-torsion abscissas over F_q.

    When the splitting field is F_q itself the field slot is None and the
    roots are ints; otherwise an ExtField of degree n2 is returned with the
    roots as its elements (no root-finding: the cubic is depressed, so the
    third root is minus the sum of the other two).
    """
    D = DivisionPolynomials(q, A, B)
    facs = factor_squarefree(D.curve_poly, q, rng)
    degs = sorted(poly_deg(g) for g in facs)
    n2 = math.lcm(*degs)
    if n2 == 1:
        roots = sorted((-int(g[0])) % q for g in facs)
        return 1, None, roots
    big = max(facs, key=poly_deg)
    F = ExtField(q, big)
    r1 = F.gen()
    if degs == [1, 2]:
        lin = min(facs, key=poly_deg)
        r0 = F.from_int(-int(lin[0]))
        return 2, F, [r0, r1, -r0 - r1]
    # irreducible cubic: the conjugate is a second root
    r2 = F.frobenius_power(r1, 1)
    return 3, F, [r1, r2, -r1 - r2]


def _construct_via_division_poly(q, A, B, m, rng):
    """Main path for m with a guaranteed full-degree factor (all m but 6, 10)."""
    D = DivisionPolynomials(q, A, B)
    prim = _primitive_x_poly(D, m)
    facs = factor_squarefree(prim, q, rng)
    exps = []
    for g in facs:
        d = poly_deg(g)
        exps.append(d if is_square_mod(D.curve_poly, g, q) else 2 * d)
    n = math.lcm(*exps)
    pick = next((i for i, e in enumerate(exps) if e == n), None)
    if pick is None:
        raise TorsionConstructionError("no full-degree factor (unexpected for this m)")
    g_star = facs[pick]
    d_star = poly_deg(g_star)
    e_star = exps[pick]

    y1 = None
    if e_star == d_star:
        if d_star == 1:
            F = PrimeField(q)
            x1 = F.from_int(-int(g_star[0]))
        else:
            F = ExtField(q, g_star)
            x1 = F.gen()
    else:
        if d_star == 1:
            base = PrimeField(q)
            xb = base.from_int(-int(g_star[0]))
        else:
            base = ExtField(q, g_star)
            xb = base.gen()
        t = xb * xb * xb + base.from_int(A) * xb + base.from_int(B)
        F = QuadExt(base, t)
        x1 = F.elt(xb, base.zero())
        y1 = F.gen()  # Y^2 = f(x1) by construction

    E = EllipticCurve(F, F.from_int(A), F.from_int(B))
    if y1 is None:
        y1 = F.sqrt(E.f(x1))
        assert y1 is not None, "Euler criterion promised a square"
    P1 = (x1, y1)
    if not _exact_order(E, P1, m):
        raise TorsionConstructionError("primitive factor produced a non-exact point")
    return F, E, n, P1


def _construct_glued(q, A, B, m, rng):
    """m in {6, 10}: glue E[2] and E[m/2] inside a common field."""
    modd = m // 2
    Fo, Eo, nodd, P1o = _construct_via_division_poly(q, A, B, modd, rng)
    n2, F2, roots2 = _two_torsion_roots(q, A, B, rng)
    n = math.lcm(nodd, n2)

    if n == nodd:
        F, E = Fo, Eo
        odd_pt = P1o
        if n2 == 1:
            T = [(F.from_int(r), F.zero()) for r in roots2]
        else:
            # locate 2-torsion abscissas inside F by factoring the cubic there
            D = DivisionPolynomials(q, A, B)
            cubic = [F.from_int(int(c)) for c in D.curve_poly]
            rs = _groots(F, cubic, rng)
            assert len(rs) == 3
            T = [(r, F.zero()) for r in sorted(rs, key=lambda r: r.encode())]
    else:
        if n == n2:
            F = F2
        else:
            F = ExtField(q, find_irreducible(q, n))
        E = EllipticCurve(F, F.from_int(A), F.from_int(B))
        # embed the odd part: root of its defining polynomial inside F
        D = DivisionPolynomials(q, A, B)
        prim = _primitive_x_poly(D, modd)
        facs = factor_squarefree(prim, q, rng)
        exps = [poly_deg(g) if is_square_mod(D.curve_poly, g, q) else 2 * poly_deg(g)
                for g in facs]
        g_star = facs[exps.index(nodd)] if nodd in exps else facs[0]
        gpoly = [F.from_int(int(c)) for c in g_star]
        xs = _groots(F, gpoly, rng)
        xo = sorted(xs, key=lambda r: r.encode())[0]
        yo = F.sqrt(E.f(xo))
        assert yo is not None
        odd_pt = (xo, yo)
        assert _exact_order(E, odd_pt, modd)
        cubic = [F.from_int(int(c)) for c in D.curve_poly]
        rs = _groots(F, cubic, rng)
        assert len(rs) == 3
        T = [(r, F.zero()) for r in sorted(rs, key=lambda r: r.encode())]

    P1 = E.add(T[0], odd_pt)
    # second generator: glue the other 2-torsion point with a second odd point
    odd2 = _complete_basis(E, odd_pt, q, A, B, modd, n, rng)
    P2 = E.add(T[1], odd2)
    if not _independent(E, P1, P2, m):
        raise TorsionConstructionError("glued generators were dependent")
    return F, E, n, P1, P2


def _construct_two_torsion_only(q, A, B, rng):
    n2, F2, roots2 = _two_torsion_roots(q, A, B, rng)
    if F2 is None:
        F = PrimeField(q)
        T = [(F.from_int(r), F.zero()) for r in roots2]
    else:
        F = F2
        T = [(r, F.zero()) for r in roots2]
    E = EllipticCurve(F, F.from_int(A), F.from_int(B))
    return F, E, n2, T[0], T[1]


def torsion_data(q: int, A: int, B: int, m: int) -> TorsionData:
    """Build E[m] with its field, basis, Frobenius matrix and pairing root."""
    if not (2 <= m <= MAX_M):
        raise TorsionConstructionError(f"m = {m} out of supported range")
    if not is_prime(q) or q in (2, 3):
        raise TorsionConstructionError("q must be a prime >= 5")
    if q > MAX_Q:
        raise TorsionConstructionError(f"q must be at most {MAX_Q}")
    if m % q == 0:
        raise TorsionConstructionError("q divides m")
    if (4 * A ** 3 + 27 * B ** 2) % q == 0:
        raise TorsionConstructionError("curve is singular mod q")
    rng = random.Random(f"torsion-{q}-{A}-{B}-{m}")
    if m == 2:
        F, E, n, P1, P2 = _construct_two_torsion_only(q, A, B, rng)
    elif m in (6, 10):
        F, E, n, P1, P2 = _construct_glued(q, A, B, m, rng)
    else:
        F, E, n, P1 = _construct_via_division_poly(q, A, B, m, rng)
        P2 = _complete_basis(E, P1, q, A, B, m, n, rng)
    return _finalize(q, A, B, m, n, E, P1, P2)
