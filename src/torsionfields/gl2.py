"""2x2 matrix groups over Z/m: orders, distinguished subgroups, and
classification of Frobenius data.

Matrices are plain 4-tuples (a, b, c, d) = [[a, b], [c, d]] with entries
reduced mod m.  Everything here is small enough to brute force, which is the
point: these groups are the yardstick the curve computations are measured
against.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice

import numpy as np

# ---------------------------------------------------------------------------
# integer helpers
# ---------------------------------------------------------------------------

def factor_int(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factor_int(n).items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


# ---------------------------------------------------------------------------
# matrix arithmetic mod m
# ---------------------------------------------------------------------------

I2 = (1, 0, 0, 1)


def mat_mul(M, N, m: int):
    a, b, c, d = M
    e, f, g, h = N
    return ((a * e + b * g) % m, (a * f + b * h) % m,
            (c * e + d * g) % m, (c * f + d * h) % m)


def mat_pow(M, k: int, m: int):
    R = (1, 0, 0, 1)
    B = tuple(x % m for x in M)
    while k:
        if k & 1:
            R = mat_mul(R, B, m)
        B = mat_mul(B, B, m)
        k >>= 1
    return R


def mat_det(M, m: int) -> int:
    return (M[0] * M[3] - M[1] * M[2]) % m


def mat_trace(M, m: int) -> int:
    return (M[0] + M[3]) % m


def mat_order(M, m: int) -> int:
    cur = tuple(x % m for x in M)
    for k in range(1, m ** 4 + 1):
        if cur == I2:
            return k
        cur = mat_mul(cur, M, m)
    raise ValueError(f"{M} is not invertible mod {m}")


def is_invertible(M, m: int) -> bool:
    from math import gcd
    return gcd(mat_det(M, m), m) == 1


# ---------------------------------------------------------------------------
# group orders
# ---------------------------------------------------------------------------

def gl2_order(m: int) -> int:
    """|GL_2(Z/m)|, multiplicative over prime powers."""
    total = 1
    for p, e in factor_int(m).items():
        total *= p ** (4 * (e - 1)) * (p * p - 1) * (p * p - p)
    return total


def gl2_elements(m: int) -> list[tuple]:
    """Every invertible matrix mod m (use only for small m)."""
    if m > 6:
        raise ValueError("full enumeration is meant for tiny m")
    out = []
    for a in range(m):
        for b in range(m):
            for c in range(m):
                for d in range(m):
                    M = (a, b, c, d)
                    if is_invertible(M, m):
                        out.append(M)
    return out


# ---------------------------------------------------------------------------
# the unipotent-like generator [[-1, 1], [0, -1]] and its powers
# ---------------------------------------------------------------------------

ETA = (-1, 1, 0, -1)


def eta_power(k: int, m: int):
    """ETA^k mod m in closed form: [[1, -k], [0, 1]] or [[-1, k], [0, -1]]."""
    if k % 2 == 0:
        return (1 % m, (-k) % m, 0, 1 % m)
    return ((-1) % m, k % m, 0, (-1) % m)


# ---------------------------------------------------------------------------
# level 4 vs level 2
# ---------------------------------------------------------------------------

def h42_kernel() -> list[tuple]:
    """The kernel of reduction GL_2(Z/4) -> GL_2(Z/2): all I + 2M."""
    return [M for M in gl2_elements(4)
            if tuple(x % 2 for x in M) == (1, 0, 0, 1)]


def lift_gl2f2(M2: tuple) -> tuple:
    """Section GL_2(F_2) -> GL_2(Z/4) acting row-wise:
    (1,0) -> (1,0), (0,1) -> (0,1), (1,1) -> (3,3)."""
    lift_row = {(1, 0): (1, 0), (0, 1): (0, 1), (1, 1): (3, 3)}
    r1 = lift_row[(M2[0] % 2, M2[1] % 2)]
    r2 = lift_row[(M2[2] % 2, M2[3] % 2)]
    return (r1[0], r1[1], r2[0], r2[1])


# ---------------------------------------------------------------------------
# single-matrix classification over F_p
# ---------------------------------------------------------------------------

def classify_cyclic_image(M, p: int) -> str:
    """Where the group generated by one matrix must live, by discriminant.

    'split': distinct rational eigenvalues (inside a split Cartan);
    'nonsplit': irreducible characteristic polynomial (nonsplit Cartan);
    'borel': repeated eigenvalue (Borel after conjugation).
    """
    tr = mat_trace(M, p)
    det = mat_det(M, p)
    disc = (tr * tr - 4 * det) % p
    s = legendre(disc, p)
    if s == 1:
        return "split"
    if s == -1:
        return "nonsplit"
    return "borel"


def _ratio_powers(tr: int, det: int, p: int):
    """r, r^2, r^3, ... for the ratio r of the eigenvalues of a matrix with
    trace tr, determinant det and nonzero discriminant, computed in
    F_p[T]/(T^2 - tr*T + det)."""
    tr %= p
    det %= p
    disc = (tr * tr - 4 * det) % p
    if disc == 0:
        raise ValueError("ratio undefined for repeated eigenvalues")

    def mul(u, v):
        # (u0 + u1 T)(v0 + v1 T) with T^2 = tr*T - det
        w0 = u[0] * v[0] - det * u[1] * v[1]
        w1 = u[0] * v[1] + u[1] * v[0] + tr * u[1] * v[1]
        return (w0 % p, w1 % p)

    # r = T / (tr - T); invert by multiplying with the conjugate
    # (tr - T) has conjugate T, and (tr - T)*T = det
    r = mul((0, 1), (0, 1))  # T^2
    dinv = pow(det, -1, p)
    r = (r[0] * dinv % p, r[1] * dinv % p)  # T^2/det = T/(tr-T)
    cur = r
    while True:
        yield cur
        cur = mul(cur, r)


def projective_order_semisimple(tr: int, det: int, p: int) -> int:
    """Order in PGL_2(F_p) of a matrix with trace tr, determinant det and
    nonzero discriminant: the multiplicative order of the eigenvalue ratio,
    which divides p - 1 or p + 1."""
    for k, power in enumerate(_ratio_powers(tr, det, p), 1):
        if power == (1, 0):
            return k
        if k == p + 1:
            raise AssertionError("eigenvalue ratio order exceeded p+1")


def surjectivity_heuristic(samples, p: int) -> str:
    """'Full' or 'Unknown' from (trace, det) pairs of Frobenius elements.

    Sound for p >= 5: a subgroup of GL_2(F_p) with surjective determinant
    that is contained in a Borel, in the normalizer of a (split or nonsplit)
    Cartan, or in an exceptional group cannot produce all three witnesses:

      * an element with nonsquare discriminant and nonzero trace
        (impossible inside Borel and N(split): the outer coset has trace 0),
      * an element with nonzero square discriminant and nonzero trace
        (impossible inside N(nonsplit)),
      * an element of projective order > 5
        (impossible for the exceptional images A4, S4, A5).

    'Unknown' is returned otherwise; the test never rules the full group out.
    """
    if p < 5:
        raise ValueError(f"p = {p} is below 5")
    seen = 0
    for tr, det in samples:
        seen |= surjectivity_witnesses(tr, det, p)
        if seen == ALL_WITNESSES:
            return "Full"
    return "Unknown"


ALL_WITNESSES = 0b111


def surjectivity_witnesses(tr: int, det: int, p: int) -> int:
    """Bits 1, 2, 4: the witnesses of ``surjectivity_heuristic``, in its
    order, that one (trace, det) pair gives.  ORed over a list, they make
    ALL_WITNESSES exactly when the heuristic says 'Full'."""
    tr, det = tr % p, det % p
    s = legendre((tr * tr - 4 * det) % p, p)
    big_order = s != 0 and (1, 0) not in islice(_ratio_powers(tr, det, p), 5)
    return (tr != 0 and s == -1) | (tr != 0 and s == 1) << 1 | big_order << 2


# ---------------------------------------------------------------------------
# subgroups of GL_2(Z/m) with surjective determinant, up to conjugacy
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def subgroup_catalog(m: int) -> tuple:
    """All det-surjective subgroups up to conjugacy, smallest first.

    Returns a tuple of (order, frozenset-of-matrices).  Breadth-first closure
    search over the subgroup lattice with conjugacy canonicalisation; meant
    for m in {2, 3, 4} where |GL_2| <= 96.
    """
    G = gl2_elements(m)
    k = len(G)
    index = {M: i for i, M in enumerate(G)}
    mul = np.empty((k, k), dtype=np.int16)
    for i, Mi in enumerate(G):
        for j, Mj in enumerate(G):
            mul[i, j] = index[mat_mul(Mi, Mj, m)]
    inv = np.empty(k, dtype=np.int16)
    for i, Mi in enumerate(G):
        d = mat_det(Mi, m)
        di = pow(d, -1, m)
        adj = (Mi[3] * di % m, -Mi[1] * di % m, -Mi[2] * di % m, Mi[0] * di % m)
        inv[i] = index[tuple(x % m for x in adj)]
    # conjugation permutations: conj[g][x] = g x g^-1
    conj = np.empty((k, k), dtype=np.int16)
    for g in range(k):
        gi = inv[g]
        for x in range(k):
            conj[g, x] = mul[mul[g, x], gi]
    id_idx = index[(1, 0, 0, 1)]
    units = sorted({mat_det(M, m) for M in G})
    dets = np.array([mat_det(M, m) for M in G])

    def close(idxs: np.ndarray, extra: int) -> np.ndarray:
        mask = np.zeros(k, dtype=bool)
        mask[idxs] = True
        mask[extra] = True
        while True:
            members = np.nonzero(mask)[0]
            prods = mul[np.ix_(members, members)].ravel()
            before = mask.sum()
            mask[prods] = True
            if mask.sum() == before:
                return members

    def canonical(members: np.ndarray) -> bytes:
        # the least sorted image over all conjugates, one sort for all of them
        return min(row.tobytes() for row in np.sort(conj[:, members], axis=1))

    seen = {}
    start = np.array([id_idx], dtype=np.int64)
    frontier = [start]
    seen[canonical(start)] = start
    while frontier:
        nxt = []
        for S in frontier:
            covered = np.zeros(k, dtype=bool)
            covered[S] = True
            for g in range(k):
                if covered[g]:
                    continue
                covered[mul[S, g]] = True  # <S, g'> is the same for g' in S*g
                T = close(S, g)
                key = canonical(T)
                if key not in seen:
                    seen[key] = T
                    nxt.append(T)
        frontier = nxt

    out = []
    for members in seen.values():
        if sorted(set(dets[members])) != units:
            continue
        sub = frozenset(G[i] for i in members)
        out.append((len(sub), sub))
    out.sort(key=lambda t: (t[0], sorted(t[1])))
    return tuple(out)
