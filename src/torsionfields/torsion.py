"""Explicit m-torsion of elliptic curves over prime fields.

Given E: y^2 = x^3 + Ax + B over F_q and 2 <= m <= 13 coprime to q, build the
full torsion field F_q(E[m]) as an explicit extension, a deterministic basis
(P1, P2) of E[m], the matrix of the q-power Frobenius in that basis, the Weil
pairing, and degree queries of the form "how large is the subfield generated
by this set of coordinates".

Strategy: each irreducible factor of degree d of the primitive part of the
m-th division polynomial over F_q contributes a point defined over F_{q^d}
or its quadratic extension (by an Euler criterion on x^3 + Ax + B), and the
torsion field degree n is the lcm of those contributions.  The distinct-degree
blocks give n without factoring: each block P_d splits into S_d, the product
of its factors on which x^3 + Ax + B is a square (exponent d), and P_d / S_d
(exponent 2d).  Only the sub-block that holds the chosen factor g*, the least
of exponent n by (degree, coefficients), is split into its factors.  Some
factor always realises the full degree n for m >= 3.  For a prime power, of
the exact-order vectors e1, e2, e1+e2 at least one avoids the at most two
proper "prematurely fixed by Frobenius" subgroups.  For composite m, a point
is the sum of its prime-power parts and its degree is the lcm of theirs, so
the sum of full-degree points of each part has degree n.  The torsion field
is presented as F_q[x]/(g*), possibly extended by a square root of
f(x1).  The second generator is the Frobenius image of P1 or, failing that,
a uniform point of E[m]; a candidate completes the basis iff its Weil pairing
with P1 is a primitive m-th root, and that root is kept.  The sampler takes a
random point of E(F) into the m-primary part by the cofactor, a scalar of
about n log2 q bits, written in powers of the q-power Frobenius pi (pi^2 =
a pi - q for the trace a of E over F_q, and pi^n = 1 on E(F)), so it costs
about log2 q doublings where a binary ladder took n log2 q.  For m = 2 the
field is the splitting field of the curve cubic.

The table of all i P1 + j P2 is built from -P = (x, -y): the multiples past
m/2 are negations, and one batched inverse per class {+-(i, j), +-(i, -j)}
with 1 <= i, j <= m/2 serves the chords of both pairs.  At m = 13 that is
10 multiples, 72 chords and a 36-element batch inversion.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .curve import DivisionPolynomials, EllipticCurve, count_points_prime, discriminant
from .finitefield import (
    ExtField,
    PrimeField,
    QuadExt,
    distinct_degree_blocks,
    equal_degree_split,
    factor_squarefree,
    is_prime,
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
# Weil pairing (Miller's algorithm on the chord-and-tangent step of the curve)
# ---------------------------------------------------------------------------

def _miller(E: EllipticCurve, P, m: int, T):
    """f_{m,P}(T) as a (num, den) pair, for the normalized Miller function.

    Each step evaluates the line through R and S from the slope of
    ``E.chord``, so one division serves it and R + S."""
    one = E.field.one()

    def step(R, S):
        U, lam = E.chord(R, S)
        vertical = one if U is None else T[0] - U[0]
        if lam is not None:
            return U, (T[1] - R[1]) - lam * (T[0] - R[0]), vertical
        if R is None or S is None:      # the line through O and U is its vertical
            return U, vertical, vertical
        return U, T[0] - R[0], vertical

    num = den = one
    R = P
    for bit in bin(m)[3:]:
        R, line, vertical = step(R, R)
        num = num * num * line
        den = den * den * vertical
        if bit == "1":
            R, line, vertical = step(R, P)
            num = num * line
            den = den * vertical
    if R is not None:
        raise TorsionConstructionError("point order does not divide the pairing level")
    return num, den


def weil_pairing(E: EllipticCurve, P, Q, m: int):
    """The m-th Weil pairing e_m(P, Q); both points must have order | m.

    e_m(P, Q) = (-1)^m f_{m,P}(Q) / f_{m,Q}(P) for the normalized Miller
    functions (Miller, J. Cryptology 17, 2004).  A line or vertical of either
    loop vanishes at the other point only if one point is a multiple of the
    other, and then the pairing is 1.
    """
    F = E.field
    if P is None or Q is None:
        return F.one()
    a, b = _miller(E, P, m, Q)
    c, d = _miller(E, Q, m, P)
    num, den = a * d, b * c
    if not num or not den:
        return F.one()
    return -(num / den) if m % 2 else num / den


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


def _frobenius_point(F, P, k: int = 1):
    """The image of P under the (q^k)-power Frobenius of F."""
    if P is None:
        return None
    return (F.frobenius_power(P[0], k), F.frobenius_power(P[1], k))


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
        return _frobenius_point(self.field, P, k)

    def subfield_degree(self, gens) -> int:
        """[F_q(gens) : F_q]: least k | n with Frobenius^k fixing every gen."""
        F = self.field
        gens = list(gens)
        for k in divisors(self.n):
            if all(F.fixed_by(g, k) for g in gens):
                return k
        raise AssertionError("no fixing power found below n")

    def weil(self, P, Q):
        return weil_pairing(self.curve, P, Q, self.m)

    def zeta_d(self, d: int):
        """A primitive d-th root of unity from the pairing, for d | m:
        e_d((m/d) P1, (m/d) P2) = zeta^(m/d) by compatibility."""
        if self.m % d or d < 2:
            raise ValueError(f"d = {d} is not a divisor >= 2 of m = {self.m}")
        return pow_elt(self.zeta, self.m // d)

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
    if math.gcd(det, m) != 1:
        raise ValueError("columns of U do not form a basis")
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
    xp = D.torsion_x_polynomial(m)
    for d in _PRIM_STRIP.get(m, ()):
        xp, r = poly_divmod(xp, D.torsion_x_polynomial(d), D.p)
        if r.any():
            raise TorsionConstructionError("divisor polynomial did not divide")
    return xp


def _group_order_over_ext(q: int, a: int, n: int) -> int:
    """|E(F_{q^n})| from the trace a = q + 1 - |E(F_q)| via the Frobenius
    trace recurrence."""
    s_prev, s_cur = 2, a
    for _ in range(n - 1):
        s_prev, s_cur = s_cur, a * s_cur - q * s_prev
    return q ** n + 1 - s_cur


def _ell_chain(E: EllipticCurve, Q, ell: int) -> list:
    """[Q, ell Q, ell^2 Q, ...] down to the last nonzero multiple.

    Its length c is the exponent of Q's order ell^c (Q in the ell-part)."""
    chain = []
    while Q is not None:
        chain.append(Q)
        Q = E.mul(Q, ell)
    return chain


def _multiples(E: EllipticCurve, P, m: int) -> list:
    """[O, P, 2P, ..., (m-1)P]: chords up to m/2, then (m-i)P = -(iP).

    Raises when iP = O for some 0 < i <= m/2: P has no order m then."""
    mults = [None, P]
    for _ in range(2, m // 2 + 1):
        mults.append(E.add(mults[-1], P))
    if None in mults[1:]:
        raise TorsionConstructionError(f"a point of order below {m}")
    return mults + [E.neg(mults[m - i]) for i in range(len(mults), m)]


def _torsion_points(E: EllipticCurve, q, A, B, m, n, rng):
    """Yield uniformly random points of E[m], which must lie in E(F).

    One point count over F_q gives the trace and with it N = |E(F)|.  A
    random point R of E(F) times M, N without its primes of m, is uniform in
    the m-primary part; M R is one ``EllipticCurve.frobenius_mul`` over the
    conjugates of R, and the small multiples below are ``mul``.  For each
    l^k || m, that point is pushed into the l-part E(F)[l^v] ~ Z/l^a x Z/l^b
    (a >= b, v = a + b) by the cofactor (N / M) / l^v.  There g is a point of
    the largest order l^a seen so far.  While Q has order l^c > l^b,
    l^(c-1) Q = j l^(a-1) g for some j in [1, l), and subtracting j l^(a-c) g
    clears the lowest base-l digit of Q's <g>-component.  Once g has the
    largest order, what is left is uniform in E[l^b], so l^(b-k) Q is uniform
    in E[l^k].  The sum over the primes of m is uniform in E[m].
    """
    F = E.field
    trace = q + 1 - count_points_prime(q, A, B)
    N = _group_order_over_ext(q, trace, n)
    if N % (m * m):
        raise TorsionConstructionError("E[m] not rational over the built field")
    M, parts = N, []
    for ell, k in factor_int(m).items():
        v = 0
        while M % ell == 0:
            M //= ell
            v += 1
        parts.append((ell, k, v))
    # per prime: the chain of g, {j l^(a-1) g: j}, cached steps j l^s g
    gens = {ell: ([], {}, {}) for ell, _, _ in parts}
    for _ in range(400):
        x = F.nth_element(rng.randrange(F.order()))
        fx = E.f(x)
        if not fx:
            continue
        y = F.sqrt(fx)
        if y is None:
            continue
        if rng.randrange(2):
            y = -y
        R = E.frobenius_mul((x, y), M, trace)
        P = None
        for ell, k, v in parts:
            chain = _ell_chain(E, E.mul(R, (N // M) // ell ** v), ell)
            if len(chain) > len(gens[ell][0]):
                mults = _multiples(E, chain[-1], ell)
                low = {_encode_point(mults[j]): j for j in range(1, ell)}
                gens[ell] = (chain, low, {})
            g, low, steps = gens[ell]
            a = len(g)
            b = v - a
            while len(chain) > b:
                s = a - len(chain)
                j = low.get(_encode_point(chain[-1]))
                if j is None:
                    raise TorsionConstructionError("l-part is not Z/l^a x Z/l^b")
                if (s, j) not in steps:
                    steps[s, j] = E.neg(E.mul(g[s], j))
                chain = _ell_chain(E, E.add(chain[0], steps[s, j]), ell)
            if chain:
                P = E.add(P, E.mul(chain[0], ell ** (b - k)))
        yield P


def _primitive_pairing(E: EllipticCurve, P, Q, m: int):
    """e_m(P, Q) if it is a primitive m-th root of unity, else None.

    This is the basis test: e_m(aR + cS, bR + dS) = e_m(R, S)^(ad - bc) for a
    basis (R, S), so the root is primitive iff (P, Q) is a basis of E[m]."""
    zeta = weil_pairing(E, P, Q, m)
    one = E.field.one()
    if pow_elt(zeta, m) != one or any(pow_elt(zeta, m // ell) == one for ell in factor_int(m)):
        return None
    return zeta


def _complete_basis(E: EllipticCurve, P1, q, A, B, m, n, rng):
    """(P2, e_m(P1, P2)) for the first candidate P2 that completes a basis:
    the Frobenius image of P1, then uniform points of E[m]."""
    cands = _torsion_points(E, q, A, B, m, n, rng)
    for cand in itertools.chain([_frobenius_point(E.field, P1)], cands):
        zeta = _primitive_pairing(E, P1, cand, m)
        if zeta is not None:
            return cand, zeta
    raise TorsionConstructionError("no independent second generator found")


def _build_table(E: EllipticCurve, P1, P2, m: int):
    """All i*P1 + j*P2, from chords for i, j <= m/2 and -P = (x, -y).

    The multiples i*P1 and j*P2 past m/2 are negations, so each basis costs
    floor(m/2) - 1 chords.  For 1 <= i, j <= m/2 the denominator
    x(jP2) - x(iP1) enters one batched inversion, and its inverse gives the
    chords for (i, j) and (i, -j), whose negations are (-i, -j) and (-i, j).
    When i or j is m/2 (even m) the class has two points and one chord.  At
    m = 13 that is 10 multiples, 72 chords and 36 batched inverses, where
    one chord per entry took 22, 144 and 144.
    """
    h = m // 2
    mults1 = _multiples(E, P1, m)
    mults2 = _multiples(E, P2, m)
    table = {(0, 0): None}
    for i in range(1, m):
        table[(i, 0)] = mults1[i]
        table[(0, i)] = mults2[i]
    pairs = [(i, j) for i in range(1, h + 1) for j in range(1, h + 1)]
    dens = [mults2[j][0] - mults1[i][0] for i, j in pairs]
    if not all(dens):
        raise TorsionConstructionError("basis multiples share an abscissa")
    invs = _batch_inverses(E.field, dens)
    for (i, j), inv in zip(pairs, invs):
        x1, y1 = mults1[i]
        x2, y2 = mults2[j]
        ys = [(j, y2)] if 2 * i == m or 2 * j == m else [(j, y2), (m - j, -y2)]
        for jj, y in ys:
            lam = (y - y1) * inv
            x3 = lam * lam - x1 - x2
            R = (x3, lam * (x1 - x3) - y1)
            table[(m - i, m - jj)] = E.neg(R)
            table[(i, jj)] = R
    return table


def _finalize(q, A, B, m, n, E: EllipticCurve, P1, P2, zeta) -> TorsionData:
    """Table and Frobenius matrix, checked in the basis (P1, P2), and the
    pairing root zeta = e_m(P1, P2), rebased to the canonical basis: the first
    point of order m in the sorted table and the first point after it that
    completes a basis.

    zeta comes from the basis test ``_primitive_pairing``, which
    ``_complete_basis`` (m >= 3) or ``torsion_data`` (m = 2) has passed.  Its
    Miller loops raise unless m P1 = m P2 = O, and it rejects a basis point of
    order below m.  The table's multiples raise on such a point too, since
    its order divides m/l <= m/2 for a prime l | m.
    """
    table = _build_table(E, P1, P2, m)
    enc = {key: _encode_point(pt) for key, pt in table.items()}
    decomp = {code: key for key, code in enc.items()}
    if len(decomp) != m * m:
        raise TorsionConstructionError("generators were not independent")

    F = E.field
    (a, c), (b, d) = (decomp[_encode_point(_frobenius_point(F, P))] for P in (P1, P2))
    mat = (a, b, c, d)
    if (a * d - b * c - q) % m:
        raise TorsionConstructionError("pairing equivariance broken: det != q")
    if mat_order(mat, m) != n:
        raise TorsionConstructionError("frobenius order does not match field degree")

    candidates = sorted((code, key) for key, code in enc.items() if key != (0, 0))
    i1, j1 = next(key for _, key in candidates if math.gcd(*key, m) == 1)
    i2, j2 = next(
        key for _, key in candidates
        if math.gcd(i1 * key[1] - key[0] * j1, m) == 1
    )
    td = TorsionData(
        q=q, A=A, B=B, m=m, n=n, field=F, curve=E, P1=P1, P2=P2,
        frobenius=mat, zeta=zeta, table=table, _decomp=decomp,
    )
    return rebase(td, (i1, i2, j1, j2))


def _construct_two_torsion(q, A, B, rng):
    """m = 2: E[2] over the splitting field of the curve cubic.

    No root-finding is needed: with one linear factor the other roots
    generate the quadratic factor's field, and an irreducible cubic has its
    conjugate as a second root.
    """
    D = DivisionPolynomials(q, A, B)
    facs = factor_squarefree(D.curve_poly, q, rng)
    degs = sorted(poly_deg(g) for g in facs)
    n = math.lcm(*degs)
    if n == 1:
        F = PrimeField(q)
        r0, r1, _ = (F.from_int(r) for r in sorted((-int(g[0])) % q for g in facs))
    else:
        F = ExtField(q, max(facs, key=poly_deg))
        r1 = F.gen()
        if degs == [1, 2]:
            r0 = F.from_int(-int(min(facs, key=poly_deg)[0]))
        else:
            r0, r1 = r1, F.frobenius_power(r1, 1)
    E = EllipticCurve(F, F.from_int(A), F.from_int(B))
    return E, n, (r0, F.zero()), (r1, F.zero())


def _construct_via_division_poly(q, A, B, m, rng):
    """E over F_q(E[m]), the degree n and a point P1 of exact order m (m >= 3)."""
    D = DivisionPolynomials(q, A, B)
    blocks = list(distinct_degree_blocks(_primitive_x_poly(D, m), q, D.curve_poly))
    # a degree-d factor has exponent d where f(x) is a square on it, else 2d
    exps = []
    for d, part, squares in blocks:
        if poly_deg(squares) > 0:
            exps.append(d)
        if poly_deg(squares) < poly_deg(part):
            exps.append(2 * d)
    n = math.lcm(*exps)
    # g* is the least factor of exponent n by (degree, coefficients)
    for d_star, part, squares in blocks:
        if 2 * d_star == n and poly_deg(squares) < poly_deg(part):
            sub = poly_divmod(part, squares, q)[0]
            break
        if d_star == n and poly_deg(squares) > 0:
            sub = squares
            break
    else:
        raise TorsionConstructionError("no full-degree factor")
    g_star = min(equal_degree_split(sub, d_star, q, rng), key=lambda f: f.tolist())

    if d_star == 1:
        base = PrimeField(q)
        x1 = base.from_int(-int(g_star[0]))
    else:
        base = ExtField(q, g_star)
        x1 = base.gen()
    F, y1 = base, None
    if n == 2 * d_star:
        F = QuadExt(base, x1 * x1 * x1 + base.from_int(A) * x1 + base.from_int(B))
        x1, y1 = F.elt(x1, base.zero()), F.gen()  # Y^2 = f(x1) by construction

    E = EllipticCurve(F, F.from_int(A), F.from_int(B))
    if y1 is None:
        y1 = F.sqrt(E.f(x1))
        if y1 is None:
            raise TorsionConstructionError("Euler criterion promised a square")
    return E, n, (x1, y1)


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
    if discriminant(A, B) % q == 0:
        raise TorsionConstructionError("curve is singular mod q")
    rng = random.Random(f"torsion-{q}-{A}-{B}-{m}")
    if m == 2:
        E, n, P1, P2 = _construct_two_torsion(q, A, B, rng)
        zeta = _primitive_pairing(E, P1, P2, m)
        if zeta is None:
            raise TorsionConstructionError("pairing of a basis must be a primitive m-th root")
    else:
        E, n, P1 = _construct_via_division_poly(q, A, B, m, rng)
        P2, zeta = _complete_basis(E, P1, q, A, B, m, n, rng)
    return _finalize(q, A, B, m, n, E, P1, P2, zeta)
