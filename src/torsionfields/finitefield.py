"""Finite field arithmetic: F_p, dense extensions F_{p^n}, quadratic liftings.

Polynomials cross every interface as numpy int64 coefficient vectors (lowest
degree first, reduced mod p).  All products modulo a polynomial go through one
kernel, ``ModRing``, on int64: a convolution, a ``% p``, and a contraction of
the high half against the precomputed rows x^{n+i} mod g.  Every dot product
it forms has at most n terms below (p - 1)^2, plus one reduced term, so it
stays exact while n (p - 1)^2 + p - 1 < 2^63; ``ModRing`` refuses larger
moduli, and ``torsion.torsion_data`` refuses q above the bound for n = 84,
the degree of its largest modulus (q <= 331363921).

A product in a quadratic lift F_p[x]/(g)(Y), Y^2 = t, is one kernel call,
``ModRing.quad_mul``: a Kronecker substitution (von zur Gathen & Gerhard,
*Modern Computer Algebra*, sec. 8.4) packs a + bY as [a | 0^{n-1} | b], so
two convolutions give ac, bc, ad and bd side by side without overlap, and
one ``% p`` and one contraction against the rows reduce all four.  The
product t bd is a matrix-vector product by the precomputed matrix of
h -> t h, n terms below (p - 1)^2, to which ac adds the one reduced term.

Square tests descend by norms instead of raising to (q - 1)/2: a + bY is a
square iff its norm a^2 - t b^2 is a square in the base, and an element of
F_{p^n} iff its norm to F_p is, which the Itoh-Tsujii chain of the inverse
computes (Itoh & Tsujii, *Inf. Comput.* 78, 1988).  A square root then costs
one exponentiation, not two.

The Euclid layer (``poly_divmod``, ``poly_mod``, ``poly_gcd``) runs on
Python-int lists inside the same interface, converting once each way: it
takes one leading coefficient at a time, where numpy's cost per call
outweighs its arithmetic, and needs no overflow bound.

Factoring reads every power x^{p^d} off one Frobenius matrix (von zur Gathen &
Shoup, *Comput. Complexity* 2, 1992).  ``distinct_degree_blocks`` takes one gcd
per interval of degrees and refines only the intervals that hit (Kaltofen &
Shoup, *Math. Comp.* 67, 1998), and reports with each block the product of its
factors on which a given t is a square.  ``equal_degree_split`` splits one
block into its factors, so a caller that needs one factor splits one block.

The three field classes (PrimeField, ExtField, QuadExt) expose one duck-typed
protocol used by the curve/torsion layers:

    field.zero(), field.one(), field.from_int(k), field.nth_element(i)
    field.order(), field.degree, field.p
    field.sqrt(elt) -> elt | None          (canonical choice of root)
    field.frobenius_power(elt, k)          (elt -> elt^(p^k); elt when degree | k)
    field.fixed_by(elt, k)                 (elt^(p^k) == elt; True when degree | k)

and elements support +, -, *, /, ==, bool, .encode() (a tuple of ints usable
as a sort key or dict key).
"""

from __future__ import annotations

import math
import random

import numpy as np

# ---------------------------------------------------------------------------
# integer utilities
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for everything below 3.3 * 10^24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], by sieve."""
    if hi < 2:
        return []
    sieve = np.ones(hi + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, int(hi ** 0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    return [int(q) for q in np.nonzero(sieve)[0] if q >= lo]


# ---------------------------------------------------------------------------
# dense polynomials over F_p
# ---------------------------------------------------------------------------

def poly_trim(a: np.ndarray) -> np.ndarray:
    """Strip trailing zero coefficients (zero polynomial -> length-1 [0])."""
    nz = np.nonzero(a)[0]
    if len(nz) == 0:
        return np.zeros(1, dtype=np.int64)
    return a[: nz[-1] + 1]


def poly_deg(a: np.ndarray) -> int:
    nz = np.nonzero(a)[0]
    return -1 if len(nz) == 0 else int(nz[-1])


_X = np.array([0, 1], dtype=np.int64)


def poly_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return np.convolve(a, b) % p


def poly_sub(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    out = np.zeros(max(len(a), len(b)), dtype=np.int64)
    out[: len(a)] += a
    out[: len(b)] -= b
    return out % p


def poly_make_monic(a: np.ndarray, p: int) -> np.ndarray:
    a = poly_trim(a % p)
    lead = int(a[-1])
    if lead == 1:
        return a
    return a * pow(lead, p - 2, p) % p


def poly_divmod(a: np.ndarray, g: np.ndarray, p: int):
    """Quotient and remainder by monic g."""
    n = poly_deg(g)
    if n < 0 or int(g[n]) != 1:
        raise ValueError("divisor must be monic")
    q, r = _divmod(_reduced(a.tolist(), p), g[: n + 1].tolist(), p)
    return _as_array(q), _as_array(r)


def poly_mod(a: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    return poly_divmod(a, g, p)[1]


def poly_gcd(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Monic gcd; [0] when both are zero."""
    a, b = _reduced(a.tolist(), p), _reduced(b.tolist(), p)
    while b:
        a, b = b, _divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p) if a else 0
    return _as_array([x * inv % p for x in a])


def _reduced(c: list[int], p: int) -> list[int]:
    """c mod p without trailing zeros ([] is zero), the Euclid layer's form."""
    c = [x % p for x in c]
    while c and not c[-1]:
        c.pop()
    return c


def _as_array(c: list[int]) -> np.ndarray:
    return np.array(c or [0], dtype=np.int64)


def _divmod(a: list[int], b: list[int], p: int):
    """(quotient, remainder) of a by nonzero b; a is overwritten, and a and
    b are reduced mod p only where they are read."""
    n = len(b) - 1
    if len(a) <= n:
        return [], a
    inv = pow(b[-1], -1, p)
    q = [0] * (len(a) - n)
    for d in range(len(a) - 1, n - 1, -1):
        q[d - n] = c = a[d] * inv % p
        if c:
            a[d - n : d] = [x - c * y for x, y in zip(a[d - n : d], b)]
    return q, _reduced(a[:n], p)


def poly_pow_mod(a: np.ndarray, e: int, g: np.ndarray, p: int) -> np.ndarray:
    return ModRing(g, p).pow(a, e)


class ModRing:
    """F_p[x]/(g) for monic g of degree n, on length-n int64 vectors.

    A product is a convolution reduced mod p whose high half is contracted
    against the rows x^{n+i} mod g (i < n - 1), then reduced again: every dot
    product has at most n terms below (p - 1)^2, plus one reduced term (von
    zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 8).
    """

    def __init__(self, g: np.ndarray, p: int):
        n = poly_deg(g)
        if n * (p - 1) ** 2 + p > 2**63:
            raise OverflowError(f"F_{p}[x] modulo degree {n} overflows int64")
        self.g, self.p, self.n = g, p, n
        self._gap = np.zeros(max(n - 1, 0), dtype=np.int64)
        self.rows = np.zeros((max(n - 1, 0), n), dtype=np.int64)
        top = (-g[:n]) % p  # x^n mod g
        cur = top
        for i in range(n - 1):
            self.rows[i] = cur
            cur = (np.concatenate(([0], cur[:-1])) + int(cur[-1]) * top) % p

    def reduce(self, a: np.ndarray) -> np.ndarray:
        """Length-n residue of any polynomial a."""
        if len(a) > self.n:
            a = poly_mod(a, self.g, self.p)
        out = np.zeros(self.n, dtype=np.int64)
        out[: len(a)] = a % self.p
        return out

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        c = np.convolve(a, b) % self.p
        return (c[: self.n] + c[self.n :] @ self.rows) % self.p

    def times_matrix(self, t: np.ndarray) -> np.ndarray:
        """The n x n matrix of h -> t h mod g: column j is t x^j mod g."""
        return np.array([self.mul(t, e) for e in np.eye(self.n, dtype=np.int64)]).T

    def quad_mul(self, a, b, c, d, tmat: np.ndarray):
        """(ac + t bd, ad + bc): the product (a + bY)(c + dY) with Y^2 = t.

        All four are length-n residues and tmat is ``times_matrix(t)``.  The
        n - 1 zeros between a and b keep the segments ac, bc of u c and ad,
        bd of u d apart, so each coefficient is a sum of at most n products.
        """
        n, p = self.n, self.p
        u = np.concatenate((a, self._gap, b))
        prods = np.concatenate((np.convolve(u, c), np.convolve(u, d))).reshape(4, 2 * n - 1) % p
        ac, bc, ad, bd = (prods[:, :n] + prods[:, n:] @ self.rows) % p
        return (ac + tmat @ bd) % p, (ad + bc) % p

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        """a^e mod g, trimmed."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        result = self.reduce(np.ones(1, dtype=np.int64))
        base = self.reduce(a)
        while e:
            if e & 1:
                result = self.mul(result, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return poly_trim(result)

    def frobenius_matrix(self) -> np.ndarray:
        """The n x n matrix of h -> h^p: column j is x^{jp} mod g.

        Its entries are below p, so ``Q @ h % p`` forms dot products of n
        terms below (p - 1)^2 and keeps the int64 bound of ``mul``.
        """
        xp = self.reduce(self.pow(_X, self.p))
        m = np.zeros((self.n, self.n), dtype=np.int64)
        m[0, 0] = 1
        col = m[:, 0]
        for j in range(1, self.n):
            col = self.mul(col, xp)
            m[:, j] = col
        return m


def poly_is_irreducible(f: np.ndarray, p: int) -> bool:
    """Irreducibility over F_p: the first distinct-degree block is f itself.

    A repeated factor has degree at most deg(f)/2, so it shows up in an
    earlier block even when f is not squarefree.
    """
    k = poly_deg(poly_make_monic(f, p))
    if k <= 0:
        return False
    return next(distinct_degree_blocks(f, p))[0] == k


# ---------------------------------------------------------------------------
# squarefree factorization over F_p (distinct degree + Cantor-Zassenhaus)
# ---------------------------------------------------------------------------

def distinct_degree_blocks(g: np.ndarray, p: int, t: np.ndarray | None = None):
    """Distinct-degree blocks (d, P_d, S_d) of squarefree g over F_p, d increasing.

    P_d is the product of the degree-d irreducible factors of g, for every d
    that has one; the blocks multiply to monic g.  When g is not squarefree,
    only the first d is meaningful: the least degree of a factor of g.  The
    powers h_d = x^{p^d} mod g are matrix-vector products with the Frobenius
    matrix of g, which is built once: gcd(h_d - x, rest) does not change when
    h_d is reduced mod g rather than mod the shrinking rest.

    The degrees are taken in intervals of width floor(sqrt(deg g / 2)): one
    gcd of rest with the product of h_d - x over the interval finds every
    factor of a degree in it, and only an interval that hits is refined,
    degree by degree, against that gcd G.  Once deg G < 2d, G is one
    irreducible factor (von zur Gathen & Shoup, Comput. Complexity 2, 1992;
    Kaltofen & Shoup, Math. Comp. 67, 1998).

    With t given, S_d = gcd(W_d - 1, P_d) is the product of the factors of
    P_d on which t is a nonzero square, W_d = t^{(p^d - 1)/2} mod g.  W_d is
    the product of sigma^i(u) over i < d, u = t^{(p-1)/2}, sigma the
    Frobenius (von zur Gathen & Gerhard, *Modern Computer Algebra*, sec.
    14.2-14.3); S_d is None without t.
    """
    g = poly_make_monic(g, p)
    n = poly_deg(g)
    if n <= 0:
        return
    ring = ModRing(g, p)
    frob = ring.frobenius_matrix()
    width = max(1, math.isqrt(n // 2))
    if t is not None:
        sigma_u = ring.reduce(ring.pow(t, (p - 1) // 2))
        w, w_deg = ring.reduce(np.ones(1, dtype=np.int64)), 0

    def block(d, part):
        nonlocal sigma_u, w, w_deg
        if t is None:
            return d, part, None
        while w_deg < d:
            if w_deg:
                sigma_u = frob @ sigma_u % p
            w, w_deg = ring.mul(w, sigma_u), w_deg + 1
        w_minus_1 = w.copy()
        w_minus_1[0] -= 1
        return d, part, poly_gcd(w_minus_1, part, p)

    h = ring.reduce(_X)
    rest, done = g, 0  # rest has no factor of degree <= done
    while poly_deg(rest) > 0:
        if 2 * (done + 1) > poly_deg(rest):
            # no factor of degree <= deg/2 is left: rest is irreducible
            yield block(poly_deg(rest), rest)
            return
        hs, prod = [], None
        for d in range(done + 1, min(done + width, poly_deg(rest) // 2) + 1):
            h = frob @ h % p
            h_minus_x = poly_sub(h, _X, p)
            hs.append((d, h_minus_x))
            prod = h_minus_x if prod is None else ring.mul(prod, h_minus_x)
        done = hs[-1][0]
        G = poly_gcd(prod, rest, p)
        if poly_deg(G) <= 0:
            continue
        rest = poly_divmod(rest, G, p)[0]
        for d, h_minus_x in hs:
            if poly_deg(G) < 2 * d:
                # every factor of G has degree >= d: G is one of them
                if poly_deg(G) > 0:
                    yield block(poly_deg(G), G)
                break
            part = poly_gcd(h_minus_x, G, p)
            if poly_deg(part) > 0:
                yield block(d, part)
                G = poly_divmod(G, part, p)[0]


def factor_squarefree(g: np.ndarray, p: int, rng: random.Random) -> list[np.ndarray]:
    """Irreducible factors of a squarefree monic g over F_p.

    Each distinct-degree block is split by ``equal_degree_split`` in block
    order.  Returned factors are monic, sorted by (degree, coefficient tuple)
    so the factorization is deterministic even though the equal-degree
    splitting uses the supplied rng.  A caller that needs only some factors
    splits only their blocks instead, as ``torsion`` does for m >= 3.
    """
    out: list[np.ndarray] = []
    for d, part, _ in distinct_degree_blocks(g, p):
        out.extend(equal_degree_split(part, d, p, rng))
    out.sort(key=lambda f: (poly_deg(f), tuple(int(c) for c in f)))
    return out


def equal_degree_split(part: np.ndarray, d: int, p: int, rng: random.Random) -> list[np.ndarray]:
    """The irreducible factors of part, a product of distinct monic degree-d
    irreducibles over F_p (Cantor-Zassenhaus), in no fixed order.

    A random r splits part by gcd(r^{(p^d - 1)/2} - 1, part).  The power is
    the product of sigma^i(r^{(p-1)/2}) over i < d, with sigma the Frobenius
    matrix of part: a powmod of exponent (p - 1)/2 and d - 1 mat-vecs, not a
    powmod of d log2 p bits (von zur Gathen & Shoup, Comput. Complexity 2,
    1992).  The recursion works modulo part throughout and shares the matrix:
    the gcd with a sub-block sees only the residue mod that sub-block.
    """
    if poly_deg(part) == d:
        return [part]
    ring = ModRing(part, p)
    frob = ring.frobenius_matrix() if d > 1 else None
    e = (p - 1) // 2

    def split(sub):
        n = poly_deg(sub)
        if n == d:
            return [sub]
        while True:
            r = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
            if poly_deg(r) < 1:
                continue
            s = v = ring.reduce(ring.pow(r, e))
            for _ in range(d - 1):
                v = frob @ v % p
                s = ring.mul(s, v)
            s[0] = (s[0] - 1) % p
            cand = poly_gcd(s, sub, p)
            if 0 < poly_deg(cand) < n:
                return split(cand) + split(poly_divmod(sub, cand, p)[0])

    return split(part)


def poly_roots(g: np.ndarray, p: int) -> list[int]:
    """Roots in F_p of g (no multiplicities), ascending.

    The linear part gcd(x^p - x, g) is split into its roots by equal-degree
    splitting with a fixed seed, so the cost grows with log p, not p.
    """
    g = poly_make_monic(g, p)
    xp = poly_pow_mod(_X, p, g, p)
    lin = poly_gcd(poly_sub(xp, _X, p), g, p)
    if poly_deg(lin) <= 0:
        return []
    return sorted((-int(f[0])) % p for f in equal_degree_split(lin, 1, p, random.Random(0)))


# ---------------------------------------------------------------------------
# F_p as a field object
# ---------------------------------------------------------------------------

class PrimeField:
    """F_p for a prime p not in {2, 3}."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p in (2, 3):
            raise ValueError("characteristics 2 and 3 are not supported")
        self.p = p
        self.degree = 1

    def order(self) -> int:
        return self.p

    def elt(self, v: int) -> "PrimeFieldElement":
        return PrimeFieldElement(self, v % self.p)

    from_int = elt

    def nth_element(self, i: int) -> "PrimeFieldElement":
        return self.elt(i)

    def zero(self):
        return self.elt(0)

    def one(self):
        return self.elt(1)

    def sqrt(self, a: "PrimeFieldElement"):
        return ts_sqrt(self, a)

    def quadratic_product(self, t: "PrimeFieldElement"):
        """(a, b, c, d) -> the coordinates of (a + bY)(c + dY), Y^2 = t."""
        p, tv = self.p, t.v

        def mul(a, b, c, d):
            return (PrimeFieldElement(self, (a.v * c.v + tv * b.v * d.v) % p),
                    PrimeFieldElement(self, (a.v * d.v + b.v * c.v) % p))

        return mul

    def frobenius_power(self, a, k: int):
        return a

    def fixed_by(self, a, k: int) -> bool:
        return True

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"F_{self.p}"


class PrimeFieldElement:
    __slots__ = ("field", "v")

    def __init__(self, field: PrimeField, v: int):
        self.field = field
        self.v = v

    def __add__(self, other):
        return PrimeFieldElement(self.field, (self.v + other.v) % self.field.p)

    def __sub__(self, other):
        return PrimeFieldElement(self.field, (self.v - other.v) % self.field.p)

    def __neg__(self):
        return PrimeFieldElement(self.field, -self.v % self.field.p)

    def __mul__(self, other):
        return PrimeFieldElement(self.field, self.v * other.v % self.field.p)

    def inverse(self):
        if self.v == 0:
            raise ZeroDivisionError
        return PrimeFieldElement(self.field, pow(self.v, self.field.p - 2, self.field.p))

    def __truediv__(self, other):
        return self * other.inverse()

    def __eq__(self, other):
        return isinstance(other, PrimeFieldElement) and self.v == other.v and self.field.p == other.field.p

    def __bool__(self):
        return self.v != 0

    def __hash__(self):
        return hash((self.field.p, self.v))

    def encode(self) -> tuple[int, ...]:
        return (self.v,)

    def __repr__(self):
        return f"{self.v}"


# ---------------------------------------------------------------------------
# F_{p^n} = F_p[x]/(g)
# ---------------------------------------------------------------------------

class ExtField:
    """F_p[x]/(g) for monic irreducible g of degree n >= 2.

    Multiplication is the ``ModRing`` kernel; the p-power Frobenius is a
    precomputed n x n matrix so that subfield membership questions are single
    mat-vec products.  Inversion is Itoh-Tsujii on the same matrices (at
    most 2 log2 n products and as many mat-vecs), and so is the norm to F_p
    that square tests read.  g must be irreducible;
    ``check_irreducible`` makes sure of it, and without it a reducible g
    still never yields a wrong inverse: an element whose norm is not a
    nonzero constant raises ZeroDivisionError.
    """

    def __init__(self, p: int, modulus: np.ndarray, check_irreducible: bool = False):
        self.p = p
        g = poly_make_monic(modulus, p)
        self.modulus = g
        self.degree = poly_deg(g)
        if self.degree < 2:
            raise ValueError("modulus must have degree at least 2")
        if check_irreducible and not poly_is_irreducible(g, p):
            raise ValueError("modulus must be irreducible")
        self._ring = ModRing(g, p)
        self._frob_mats: dict[int, np.ndarray] = {}

    # -- element plumbing ---------------------------------------------------

    def elt(self, coeffs) -> "ExtFieldElement":
        return ExtFieldElement(self, self._ring.reduce(np.asarray(coeffs, dtype=np.int64)))

    def from_int(self, k: int) -> "ExtFieldElement":
        return self.elt([k])

    def nth_element(self, i: int) -> "ExtFieldElement":
        digits = []
        for _ in range(self.degree):
            digits.append(i % self.p)
            i //= self.p
        return self.elt(digits)

    def gen(self) -> "ExtFieldElement":
        return self.elt([0, 1])

    def zero(self):
        return self.elt([])

    def one(self):
        return self.elt([1])

    def order(self) -> int:
        return self.p ** self.degree

    # -- arithmetic kernels -------------------------------------------------

    def _norm_chain(self, a: np.ndarray):
        """(a^{r-1}, N(a)) with r = (p^n - 1)/(p - 1) (Itoh-Tsujii).

        u_k = a^{1 + p + ... + p^{k-1}} follows the binary digits of n - 1:
        u_{2k} = u_k Frob^k(u_k) and u_{k+1} = Frob(u_k) a.  Then a^{r-1} =
        Frob(u_{n-1}) and N(a) = a^{r-1} a, a constant when g is irreducible.
        """
        p, mul, frob = self.p, self._ring.mul, self.frobenius_power_matrix
        u, k = a, 1
        for bit in bin(self.degree - 1)[3:]:
            u, k = mul(u, frob(k) @ u % p), 2 * k
            if bit == "1":
                u, k = mul(frob(1) @ u % p, a), k + 1
        b = frob(1) @ u % p
        return b, mul(b, a)

    def norm(self, a: "ExtFieldElement") -> int:
        """N(a) = a^{(p^n - 1)/(p - 1)}, an integer mod p."""
        norm = self._norm_chain(a.c)[1]
        if norm[1:].any():
            raise ArithmeticError("the modulus is reducible")
        return int(norm[0])

    def _inv(self, a: np.ndarray) -> np.ndarray:
        """a^{-1} = a^{r-1} / N(a).  A nonzero constant N proves a^{r-1} / N
        an inverse in any ring, so anything else raises."""
        b, norm = self._norm_chain(a)
        if not norm[0] or norm[1:].any():
            raise ZeroDivisionError("element not invertible")
        return b * pow(int(norm[0]), self.p - 2, self.p) % self.p

    # -- Frobenius ----------------------------------------------------------

    def frobenius_power_matrix(self, k: int) -> np.ndarray:
        k %= self.degree
        if k in self._frob_mats:
            return self._frob_mats[k]
        if 1 not in self._frob_mats:
            m = self._ring.frobenius_matrix()
            self._frob_mats[1] = m
            if k != 1:
                m = self.frobenius_power_matrix(k)
        else:
            base = self._frob_mats[1]
            m = np.eye(self.degree, dtype=np.int64)
            e = k
            while e:
                if e & 1:
                    m = (m @ base) % self.p
                base = (base @ base) % self.p
                e >>= 1
        self._frob_mats[k] = m
        return m

    def frobenius_power(self, a: "ExtFieldElement", k: int) -> "ExtFieldElement":
        if k % self.degree == 0:
            return a
        m = self.frobenius_power_matrix(k)
        return ExtFieldElement(self, (m @ a.c) % self.p)

    def fixed_by(self, a: "ExtFieldElement", k: int) -> bool:
        if k % self.degree == 0:
            return True
        m = self.frobenius_power_matrix(k)
        return ((m @ a.c) % self.p).tobytes() == a.c.tobytes()

    def sqrt(self, a: "ExtFieldElement"):
        return ts_sqrt(self, a)

    def quadratic_product(self, t: "ExtFieldElement"):
        """(a, b, c, d) -> the coordinates of (a + bY)(c + dY), Y^2 = t, by
        one ``ModRing.quad_mul`` call."""
        ring, tmat = self._ring, self._ring.times_matrix(t.c)

        def mul(a, b, c, d):
            e, f = ring.quad_mul(a.c, b.c, c.c, d.c, tmat)
            return ExtFieldElement(self, e), ExtFieldElement(self, f)

        return mul

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and other.p == self.p
            and np.array_equal(other.modulus, self.modulus)
        )

    def __hash__(self):
        return hash(("ExtField", self.p, tuple(int(c) for c in self.modulus)))

    def __repr__(self):
        return f"F_{self.p}^{self.degree}"


class ExtFieldElement:
    """c is the length-n int64 residue, so equal elements have equal bytes."""

    __slots__ = ("field", "c")

    def __init__(self, field: ExtField, c: np.ndarray):
        self.field = field
        self.c = c

    def __add__(self, other):
        return ExtFieldElement(self.field, (self.c + other.c) % self.field.p)

    def __sub__(self, other):
        return ExtFieldElement(self.field, (self.c - other.c) % self.field.p)

    def __neg__(self):
        return ExtFieldElement(self.field, (-self.c) % self.field.p)

    def __mul__(self, other):
        return ExtFieldElement(self.field, self.field._ring.mul(self.c, other.c))

    def inverse(self):
        return ExtFieldElement(self.field, self.field._inv(self.c))

    def __truediv__(self, other):
        return self * other.inverse()

    def __eq__(self, other):
        return (
            isinstance(other, ExtFieldElement)
            and self.field.p == other.field.p
            and self.c.tobytes() == other.c.tobytes()
        )

    def __bool__(self):
        return bool(np.any(self.c))

    def __hash__(self):
        return hash(self.encode())

    def encode(self) -> tuple[int, ...]:
        return tuple(self.c.tolist())

    def __repr__(self):
        return "poly" + str(self.encode())


# ---------------------------------------------------------------------------
# quadratic lift F(sqrt(t))
# ---------------------------------------------------------------------------

class QuadExt:
    """F(Y)/(Y^2 - t) over a PrimeField or ExtField base, t a nonsquare.

    Used when a torsion point's ordinate generates a quadratic extension of
    the field of its abscissa.  Products, the norm a^2 - t b^2 and inverses
    go through the base's ``quadratic_product(t)``, asked for once: the
    integer formula over F_p, one ``ModRing.quad_mul`` call over F_{p^n}.
    An element is a square iff its norm is a square in the base.  Frobenius
    acts componentwise twisted by s_k = Y^{p^k - 1} = t^{(p^k - 1)/2},
    computed iteratively.
    """

    def __init__(self, base, t):
        self.base = base
        self.t = t
        self.p = base.p
        self.degree = 2 * base.degree
        self._mul = base.quadratic_product(t)
        self._s: dict[int, object] = {0: base.one()}

    def elt(self, a, b) -> "QuadExtElement":
        return QuadExtElement(self, a, b)

    def from_int(self, k: int):
        return self.elt(self.base.from_int(k), self.base.zero())

    def nth_element(self, i: int):
        q = self.base.order()
        return self.elt(self.base.nth_element(i % q), self.base.nth_element(i // q))

    def zero(self):
        return self.elt(self.base.zero(), self.base.zero())

    def one(self):
        return self.elt(self.base.one(), self.base.zero())

    def gen(self):
        """The adjoined square root Y itself."""
        return self.elt(self.base.zero(), self.base.one())

    def order(self) -> int:
        return self.base.order() ** 2

    def _s_k(self, k: int):
        k %= self.degree
        if k in self._s:
            return self._s[k]
        kk = max(i for i in self._s if i <= k)
        s = self._s[kk]
        if 1 not in self._s:
            self._s[1] = pow_elt(self.t, (self.p - 1) // 2)
        s1 = self._s[1]
        while kk < k:
            s = self.base.frobenius_power(s, 1) * s1
            kk += 1
            self._s[kk] = s
        return s

    def frobenius_power(self, x: "QuadExtElement", k: int):
        if k % self.degree == 0:
            return x
        a = self.base.frobenius_power(x.a, k)
        b = self.base.frobenius_power(x.b, k) * self._s_k(k)
        return self.elt(a, b)

    def fixed_by(self, x: "QuadExtElement", k: int) -> bool:
        if k % self.degree == 0:
            return True
        if not self.base.fixed_by(x.a, k):
            return False
        return self.base.frobenius_power(x.b, k) * self._s_k(k) == x.b

    def norm(self, x: "QuadExtElement"):
        """N(x) = (a + bY)(a - bY) = a^2 - t b^2, in the base."""
        return self._mul(x.a, x.b, x.a, -x.b)[0]

    def sqrt(self, x: "QuadExtElement"):
        """Square root by descent to the base field; None if x is nonsquare.

        For x = a + bY with Y^2 = t: a root s + uY needs s^2 + u^2 t = a and
        2su = b, so s^2 is a root of 4Z^2 - 4aZ + b^2 t, i.e. (a +- w)/2 with
        w^2 = a^2 - b^2 t = N(x).  The norm being a base square is necessary,
        and one of the two sign choices yields a base square for s^2.
        """
        base = self.base
        a, b = x.a, x.b
        if not x:
            return self.zero()
        if not b:
            r = base.sqrt(a)
            if r is not None:
                return _canonical_root(self.elt(r, base.zero()))
            # a nonsquare in the base differs from t by a square factor
            r = base.sqrt(a / self.t)
            if r is None:
                raise ArithmeticError("the adjoined element is a square in the base")
            return _canonical_root(self.elt(base.zero(), r))
        w = base.sqrt(self.norm(x))
        if w is None:
            return None
        half = base.one() / base.from_int(2)
        for ww in (w, -w):
            s2 = (a + ww) * half
            s = base.sqrt(s2)
            if s is not None and s:
                u = b * half / s
                root = self.elt(s, u)
                if root * root == x:
                    return _canonical_root(root)
        return None

    def __eq__(self, other):
        return isinstance(other, QuadExt) and other.base == self.base and other.t == self.t

    def __hash__(self):
        return hash(("QuadExt", self.base, self.t.encode()))

    def __repr__(self):
        return f"{self.base!r}(sqrt)"


class QuadExtElement:
    __slots__ = ("field", "a", "b")

    def __init__(self, field: QuadExt, a, b):
        self.field = field
        self.a = a
        self.b = b

    def __add__(self, other):
        return QuadExtElement(self.field, self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return QuadExtElement(self.field, self.a - other.a, self.b - other.b)

    def __neg__(self):
        return QuadExtElement(self.field, -self.a, -self.b)

    def __mul__(self, other):
        return QuadExtElement(self.field, *self.field._mul(self.a, self.b, other.a, other.b))

    def inverse(self):
        ninv = self.field.norm(self).inverse()
        return QuadExtElement(self.field, self.a * ninv, -(self.b * ninv))

    def __truediv__(self, other):
        return self * other.inverse()

    def __eq__(self, other):
        return isinstance(other, QuadExtElement) and self.a == other.a and self.b == other.b

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __hash__(self):
        return hash(self.encode())

    def encode(self) -> tuple[int, ...]:
        return self.a.encode() + self.b.encode()

    def __repr__(self):
        return f"({self.a!r}) + ({self.b!r})*Y"


# ---------------------------------------------------------------------------
# generic element helpers
# ---------------------------------------------------------------------------

def pow_elt(x, e: int):
    """x^e for any field element (e >= 0); built-in pow on F_p."""
    if isinstance(x, PrimeFieldElement):
        return PrimeFieldElement(x.field, pow(x.v, e, x.field.p))
    if not hasattr(x, "field"):
        raise ValueError(f"not a field element: {x!r}")
    result = x.field.one()
    while e:
        if e & 1:
            result = result * x
        x = x * x
        e >>= 1
    return result


def is_square_elt(x) -> bool:
    """Is x a square in its field?  By norms down to F_p, then Euler.

    x^{(q^2 - 1)/2} = N(x)^{(q - 1)/2} for the norm of a quadratic lift of
    F_q, and x^{(p^n - 1)/2} = N(x)^{(p - 1)/2} for the norm of F_{p^n}."""
    if not x:
        return True
    if isinstance(x, QuadExtElement):
        return is_square_elt(x.field.norm(x))
    p = x.field.p
    v = x.field.norm(x) if isinstance(x, ExtFieldElement) else x.v
    return pow(v, (p - 1) // 2, p) == 1


def ts_sqrt(field, a):
    """Tonelli-Shanks in any finite field object (F_p, F_{p^n}, a quadratic
    lift); None if a is not a square.

    The returned root is canonical: the one whose encode() tuple is smaller,
    which over F_p is the smaller of r and p - r.
    """
    if not a:
        return field.zero()
    if not is_square_elt(a):
        return None
    q = field.order()
    one = field.one()
    if q % 4 == 3:
        r = pow_elt(a, (q + 1) // 4)
    else:
        m0, s = q - 1, 0
        while m0 % 2 == 0:
            m0 //= 2
            s += 1
        z = getattr(field, "_ts_nonresidue", None)
        if z is None:
            # prime-subfield elements are all squares in even-degree
            # extensions, so start the scan at the generator-like elements
            i = field.p if q != field.p else 2
            while True:
                cand = field.nth_element(i)
                if cand and not is_square_elt(cand):
                    z = cand
                    break
                i += 1
            field._ts_nonresidue = z
        m, c, t, r = s, pow_elt(z, m0), pow_elt(a, m0), pow_elt(a, (m0 + 1) // 2)
        while t != one:
            i, tt = 0, t
            while tt != one:
                tt = tt * tt
                i += 1
            b = pow_elt(c, 1 << (m - i - 1))
            m, c = i, b * b
            t, r = t * c, r * b
    if r * r != a:
        raise ArithmeticError("Tonelli-Shanks root does not square back")
    return _canonical_root(r)


def _canonical_root(r):
    """Whichever of r and -r has the smaller encode() tuple."""
    neg = -r
    return r if r.encode() <= neg.encode() else neg
