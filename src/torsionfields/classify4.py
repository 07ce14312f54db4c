"""Exact classification of the field generated over Q by the order-4 points
of y^2 = x^3 + A x + B.

The 2-torsion field K2 is the splitting field of the cubic x^3 + A x + B
(degree d' in {1,2,3,6}); on top of it the order-4 coordinates contribute an
elementary-abelian layer generated by square roots of the root differences
and of -1.  `two_torsion_split` builds an exact representation of K2 with
the cubic's roots alpha, beta, gamma; `conditions4` counts which of the four
square roots genuinely enlarge K2; `degree4`/`galois_structure4` turn that
into [K4:Q] and the semidirect-product shape of Gal(K4/Q).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .curve import discriminant
from .numberfield import (
    RESIDUAL_BOUND,
    SQUARE,
    ClassificationDefect,
    CubicField,
    QuadTower,
    embed,
    is_rational_square,
    lift,
    multiquadratic_reduce,
    rational_cbrt,
    rational_roots,
    rational_sqrt,
    to_mpf,
    working_bits,
)

#: condition keys, in the order they are tested (each against the field
#: generated by the previously adjoined ones)
FLAG_KEYS_4 = ("alpha_beta", "alpha_gamma", "beta_gamma", "minus_one")

QUOTIENT_BY_DPRIME = {1: "1", 2: "Z2", 3: "Z3", 6: "S3"}


# ---------------------------------------------------------------------------
# the 2-torsion field
# ---------------------------------------------------------------------------

@dataclass
class TwoTorsionSplit:
    """Splitting data of x^3 + A x + B over Q.

    `field` is None (Q itself), a QuadTower over None (one rational root),
    a CubicField (irreducible, square discriminant), or a QuadTower over a
    CubicField (irreducible, nonsquare discriminant).  alpha/beta/gamma are
    exact elements of `field`; when all three roots are real the labels are
    in decreasing order of the distinguished embedding, except that a
    rational root is always alpha.
    """

    A: Fraction
    B: Fraction
    shape: str                   # "three-rational" | "one-rational" | "irreducible"
    dprime: int
    field: object
    alpha: object
    beta: object
    gamma: object
    disc_cubic: Fraction

    def diffs(self):
        return (self.alpha - self.beta, self.alpha - self.gamma,
                self.beta - self.gamma)

    def roots_fit(self) -> bool:
        """Vieta's formulas: alpha, beta, gamma are the roots of x^3 + A x + B."""
        a, b, g, F = self.alpha, self.beta, self.gamma, self.field
        return (a + b + g, a * b + a * g + b * g, a * b * g) == \
            (lift(F, 0), lift(F, self.A), lift(F, -self.B))


def two_torsion_split(A, B) -> TwoTorsionSplit:
    """Exact splitting field of x^3 + A x + B with labelled roots."""
    A, B = Fraction(A), Fraction(B)
    disc = discriminant(A, B) / 16      # of the cubic
    if disc == 0:
        raise ValueError("singular curve: 4A^3 + 27B^2 = 0")
    rr = rational_roots([B, A, 0, 1])

    if rr:
        r = rr[-1]
        D = -3 * r * r - 4 * A          # discriminant of the cofactor
        sq = rational_sqrt(D)
        if sq is not None:              # fully split
            a, b, g = sorted([r, (-r + sq) / 2, (-r - sq) / 2], reverse=True)
            split = TwoTorsionSplit(A, B, "three-rational", 1, None,
                                    a, b, g, disc)
        else:
            F = QuadTower(None, D)
            sD = F.gen()
            a = lift(F, r)
            b, g = (-a + sD) / 2, (-a - sD) / 2
            split = TwoTorsionSplit(A, B, "one-rational", 2, F, a, b, g, disc)
    else:
        F0 = CubicField(A, B)
        al = F0.gen()
        if is_rational_square(disc):
            # cyclic cubic: the other roots live in Q(alpha) already
            sd = rational_sqrt(disc)
            w = F0.from_rational(sd) * (al * al * 3 + F0.from_rational(A)).inverse()
            with mpmath.workprec(working_bits(A, B)):
                if embed(F0, w).real < 0:
                    w = -w
            b, g = (-al + w) / 2, (-al - w) / 2
            split = TwoTorsionSplit(A, B, "irreducible", 3, F0, al, b, g, disc)
        else:
            delta = -al * al * 3 - F0.from_rational(4 * A)
            F = QuadTower(F0, delta)
            sd = F.gen()
            a = lift(F, al)
            b, g = (-a + sd) / 2, (-a - sd) / 2
            split = TwoTorsionSplit(A, B, "irreducible", 6, F, a, b, g, disc)

    if not split.roots_fit():
        raise ClassificationDefect("the labelled roots fail Vieta's formulas")
    return split


# ---------------------------------------------------------------------------
# order-4 points
# ---------------------------------------------------------------------------

@dataclass
class FourTorsionPoint:
    """One of the six order-4 points P with 2P = (root, 0), up to sign of y.

    x and y are exact elements of `tower` = K2(s)(t), where s^2 = a and
    t^2 = b are the differences (root - other1), (root - other2):
    x = root + sign*s*t and y = sign*b*s + a*t.  They lie on the curve
    because the split's roots fit Vieta's formulas (see
    `four_torsion_points`); the numeric values (at `working_bits(A, B)`,
    distinguished embedding) are kept for reporting and the duplication
    check.
    """

    halves: str                  # "alpha" | "beta" | "gamma"
    tower: object
    x: object
    y: object
    x_num: object
    y_num: object


def four_torsion_points(split: TwoTorsionSplit):
    """The six order-4 points (one per sign of the halved abscissa, modulo
    y -> -y), with exact tower coordinates and numeric verification.

    One exact check covers all six points.  With a = r0 - r1, b = r0 - r2,
    x = r0 + sigma*s*t and y = sigma*b*s + a*t,
        y^2 = ab(a + b) + 2 sigma ab st
            = sigma st (sigma st + a)(sigma st + b) = (x - r0)(x - r1)(x - r2),
    so y^2 = x^3 + A x + B as soon as r0, r1, r2 are the roots of the
    cubic, which is what `TwoTorsionSplit.roots_fit` checks.  The values
    take the principal roots of a and b, and their residuals are checked
    against RESIDUAL_BOUND at `working_bits(A, B)`."""
    if not split.roots_fit():
        raise ClassificationDefect("curve identity fails in the tower")
    A, B, K = split.A, split.B, split.field
    zero = lift(K, 0)
    out = []
    gens = {}
    labelled = [("alpha", split.alpha, split.beta, split.gamma),
                ("beta", split.beta, split.alpha, split.gamma),
                ("gamma", split.gamma, split.alpha, split.beta)]
    with mpmath.workprec(working_bits(A, B)):
        am, bm = to_mpf(A), to_mpf(B)
        for name, r0, r1, r2 in labelled:
            a, b = r0 - r1, r0 - r2
            L1 = QuadTower(K, a)
            L2 = QuadTower(L1, lift(L1, b))
            rn, an, bn = (embed(K, z, gens) for z in (r0, a, b))
            sn, tn = mpmath.sqrt(mpmath.mpc(an)), mpmath.sqrt(mpmath.mpc(bn))
            for sign in (1, -1):
                xc, yc = (r0, zero, zero, sign), (zero, b * sign, a, zero)
                x, y = (L2.elt(L1.elt(c[0], c[1]), L1.elt(c[2], c[3]))
                        for c in (xc, yc))
                xn = rn + (sn if sign > 0 else -sn) * tn
                yn = (bn if sign > 0 else -bn) * sn + an * tn
                fxn = xn ** 3 + am * xn + bm
                if abs(yn * yn - fxn) > RESIDUAL_BOUND:
                    raise ClassificationDefect("numeric curve residual too large")
                # duplication: 2P must land on (r0, 0)
                dx = ((xn * xn - am) ** 2 - 8 * bm * xn) / (4 * fxn)
                if abs(dx - rn) > RESIDUAL_BOUND:
                    raise ClassificationDefect("P does not halve the expected "
                                               "2-torsion point")
                out.append(FourTorsionPoint(name, L2, x, y, xn, yn))
    return out


# ---------------------------------------------------------------------------
# the four conditions and the degree table
# ---------------------------------------------------------------------------

def conditions4(split: TwoTorsionSplit):
    """Which of sqrt(alpha-beta), sqrt(alpha-gamma), sqrt(beta-gamma),
    sqrt(-1) genuinely extend, each tested over K2 plus the previously
    adjoined ones (multiquadratic_reduce).  Returns (flags, confidence)."""
    d1, d2, d3 = split.diffs()
    thetas = [d1, d2, d3, lift(split.field, -1)]
    adjoined = []
    flags = {}
    for key, theta in zip(FLAG_KEYS_4, thetas):
        status, _ = multiquadratic_reduce(split.field, adjoined, theta)
        flags[key] = status != SQUARE
        if flags[key]:
            adjoined.append(theta)
    return flags, "exact"


def degree4(flags: dict, dprime: int) -> int:
    """[K4:Q] = d' * 2^(#flags); (d'=1, no flags) is not a table row."""
    if dprime not in (1, 2, 3, 6):
        raise ValueError(f"invalid two-torsion degree {dprime}")
    i = sum(bool(flags[k]) for k in FLAG_KEYS_4)
    if dprime == 1 and i == 0:
        # would put sqrt(-1) in Q
        raise ClassificationDefect("trivial flags with rational 2-torsion")
    return dprime * 2 ** i


def galois_structure4(flags: dict, dprime: int) -> dict:
    """Gal(K4/Q) as (Z/2)^i extended by Gal(K2/Q)."""
    i = sum(bool(flags[k]) for k in FLAG_KEYS_4)
    quotient = QUOTIENT_BY_DPRIME[dprime]
    if i == 0:
        descriptor = quotient
    elif dprime == 1:
        descriptor = f"(Z/2)^{i}"
    else:
        descriptor = f"(Z/2)^{i} : {quotient}"
    return {"quotient": quotient, "kernel_rank": i,
            "order": dprime * 2 ** i, "descriptor": descriptor}


# ---------------------------------------------------------------------------
# shortcuts: the d = 96 criterion and the one-parameter families
# ---------------------------------------------------------------------------

def d96_criterion(A, B) -> bool:
    """Sufficient test for [K4:Q] = 96: cubic irreducible, curve
    discriminant positive and not a rational square."""
    A, B = Fraction(A), Fraction(B)
    disc_curve = discriminant(A, B)
    if disc_curve <= 0 or is_rational_square(disc_curve):
        return False
    return not rational_roots([B, A, 0, 1])


def _is_fourth_power(q: Fraction) -> bool:
    if q <= 0:
        return False
    r = rational_sqrt(q)
    return r is not None and rational_sqrt(r) is not None


def special_cases4(A, B) -> int:
    """[K4:Q] for the one-parameter families A = 0 and B = 0, from the
    closed-form case list (independent of the general pipeline)."""
    A, B = Fraction(A), Fraction(B)
    if (A == 0) == (B == 0):
        raise ValueError("exactly one of A, B must be zero")
    if A == 0:
        return 8 if rational_cbrt(B) is not None else 24
    if _is_fourth_power(abs(A)) or _is_fourth_power(abs(A) / 4):
        return 4
    if rational_sqrt(abs(A) / 2) is not None or \
            rational_sqrt(abs(A)) is not None:
        return 8
    return 16


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------

@dataclass
class Classification4Report:
    A: Fraction
    B: Fraction
    shape: str
    dprime: int
    flags: dict
    degree: int
    structure: dict
    confidence: str

    def to_json(self) -> dict:
        return {
            "schema": "1",
            "A": str(self.A),
            "B": str(self.B),
            "dprime": self.dprime,
            "flags": dict(self.flags),
            "degree": self.degree,
            "structure": dict(self.structure),
            "confidence": self.confidence,
        }


def classify4(A, B) -> Classification4Report:
    """Full classification of the order-4 coordinate field of
    y^2 = x^3 + A x + B over Q."""
    split = two_torsion_split(A, B)
    flags, confidence = conditions4(split)
    d = degree4(flags, split.dprime)
    structure = galois_structure4(flags, split.dprime)
    return Classification4Report(A=split.A, B=split.B, shape=split.shape,
                                 dprime=split.dprime, flags=flags, degree=d,
                                 structure=structure, confidence=confidence)
