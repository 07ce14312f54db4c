"""Exact classification of the field generated over Q by the order-3 points
of y^2 = x^3 + A x + B.

Two independent code paths share the closed-form radical data.
`radical_roots3` evaluates the radical expressions for the four abscissas
(and their ordinates) numerically at `working_bits(A, B)` and checks
residuals.
`conditions3` decides, by exact square/cube tests inside an explicitly
constructed tower of number fields, which radicals genuinely enlarge the
field; `degree3` and `galois_group3` turn those flags into the extension
degree and the Galois group.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .curve import discriminant
from .numberfield import (  # noqa: F401  (ClassificationDefect is re-exported)
    RESIDUAL_BOUND,
    SQUARE,
    ClassificationDefect,
    CubicField,
    QuadTower,
    TowerElement,
    embed,
    is_rational_square,
    lift,
    rational_cbrt,
    sqrt_in,
    to_mpf,
    working_bits,
)

#: every group name the classifier can emit, with its order (always = degree)
GROUP_ORDERS = {
    "1": 1,
    "Z2": 2,
    "Z3": 3,
    "Z4": 4,
    "Z2xZ2": 4,
    "S3": 6,
    "Z6": 6,
    "D4": 8,
    "Q8": 8,
    "D6": 12,
    "SD8": 16,
    "SL2_3": 24,
    "GL2_3": 48,
}

FLAG_KEYS_BNZ = ("cube_root", "sqrt_c", "sqrt_delta", "ordinate", "zeta")
FLAG_KEYS_B0 = ("sqrt3", "abscissa", "ordinate", "zeta")


def _principal(field, value, root):
    """Return whichever of +-root embeds as the principal square root of
    `value` under the distinguished embedding (the cubic floor here,
    t^3 - disc, has one real root), compared at the working precision."""
    gens = {}
    want = mpmath.sqrt(mpmath.mpc(embed(field, value, gens)))
    have = mpmath.mpc(embed(field, root, gens))
    return root if abs(have - want) <= abs(have + want) else -root


# ---------------------------------------------------------------------------
# numeric radicals
# ---------------------------------------------------------------------------

@dataclass
class RadicalData3:
    """Numeric values of the radical skeleton, plus the branch bookkeeping.

    `disc` is the curve discriminant Delta = -16(4A^3 + 27B^2), an exact
    rational.  The remaining fields are mpmath numbers at the working
    precision: c/delta/delta_prime on the B != 0 branch, beta0/eta0 on the
    B = 0 branch.
    """

    disc: Fraction
    branch: str                 # "Bnz" | "B0"
    cbrt_branch: str = "real"
    sqrt_branch: str = "principal"
    c: object = None
    delta: object = None
    delta_prime: object = None
    beta0: object = None
    eta0: object = None


def radical_roots3(A, B):
    """Evaluate the four abscissas of the order-3 points from the closed
    radical formulas, together with matching ordinates.

    Returns (xs, ys, data) with ys[i]^2 = xs[i]^3 + A xs[i] + B and
    phi3(xs[i]) = 0, both verified here to RESIDUAL_BOUND at
    `working_bits(A, B)`, the precision of the returned values (a failure
    raises ClassificationDefect: it would mean the formulas are transcribed
    wrong).
    """
    A, B = Fraction(A), Fraction(B)
    disc = discriminant(A, B)
    if disc == 0:
        raise ValueError("singular curve: 4A^3 + 27B^2 = 0")
    with mpmath.workprec(working_bits(A, B)):
        a_, b_ = to_mpf(A), to_mpf(B)
        if B:
            d_ = to_mpf(disc)
            # real cube root, principal square roots throughout
            cr = mpmath.cbrt(abs(d_)) if d_ > 0 else -mpmath.cbrt(abs(d_))
            c = (-cr - 4 * a_) / 3
            sc = mpmath.sqrt(mpmath.mpc(c))
            dl = ((-c - 4 * a_) * sc - 8 * b_) / sc
            dlp = ((-c - 4 * a_) * sc + 8 * b_) / sc
            rhs = ((c + 4 * a_) ** 2 * c - 64 * b_ * b_) / c
            if abs(dl * dlp - rhs) > RESIDUAL_BOUND * (1 + abs(rhs)):
                raise ClassificationDefect("delta * delta' identity failed")
            sd, sdp = mpmath.sqrt(dl), mpmath.sqrt(dlp)
            xs = [(-sd + sc) / 2, (sd + sc) / 2, (-sdp - sc) / 2, (sdp - sc) / 2]
            y_sq = [
                ((-c * sc + 4 * b_) * sd + c * dl) / (4 * sc),
                ((c * sc - 4 * b_) * sd + c * dl) / (4 * sc),
                ((-c * sc - 4 * b_) * sdp - c * dlp) / (4 * sc),
                ((c * sc + 4 * b_) * sdp - c * dlp) / (4 * sc),
            ]
            ys = [mpmath.sqrt(t) for t in y_sq]
            data = RadicalData3(disc=disc, branch="Bnz", c=c, delta=dl,
                                delta_prime=dlp)
        else:
            s3 = mpmath.sqrt(mpmath.mpf(3))
            beta0 = -(2 * s3 / 3 + 1) * a_
            eta0 = (2 * s3 / 3 - 1) * a_
            sb = mpmath.sqrt(mpmath.mpc(beta0))
            se = mpmath.sqrt(mpmath.mpc(eta0))
            xs = [sb, -sb, se, -se]
            y1 = mpmath.sqrt(-2 * a_ * sb / s3)
            ys = [y1] + [mpmath.sqrt(mpmath.mpc(x) ** 3 + a_ * x) for x in xs[1:]]
            data = RadicalData3(disc=disc, branch="B0", beta0=beta0, eta0=eta0)
        third = a_ * a_ / 3
        for x, y in zip(xs, ys):
            x = mpmath.mpc(x)
            if abs(x ** 4 + 2 * a_ * x * x + 4 * b_ * x - third) > RESIDUAL_BOUND:
                raise ClassificationDefect(f"abscissa residual too large at {x}")
            if abs(y * y - (x ** 3 + a_ * x + b_)) > RESIDUAL_BOUND:
                raise ClassificationDefect(f"ordinate residual too large at {x}")
        return xs, ys, data


# ---------------------------------------------------------------------------
# exact tower
# ---------------------------------------------------------------------------

@dataclass
class _Tower3:
    flags: dict
    quartic: str | None      # "cyclic" | "biquadratic" when degree 4 applies
    degenerate: bool         # ordinate square fell below the sqrt_delta floor


def _quartic_shape(r: Fraction, theta: TowerElement) -> str:
    """Shape of the normal quartic Q(sqrt(theta)) over Q, theta = u + v sqrt(r).

    Its Galois group is Z/4 exactly when N(theta) * r is a rational square
    and (Z/2)^2 exactly when N(theta) itself is.  Anything else would mean
    the field is not normal, which cannot happen for a torsion field.
    """
    u, v = theta.u, theta.v
    nrm = u * u - v * v * r
    if is_rational_square(nrm):
        return "biquadratic"
    if is_rational_square(nrm * r):
        return "cyclic"
    raise ClassificationDefect("degree-4 tower is not normal over Q")


def _tower_bnz(A: Fraction, B: Fraction) -> _Tower3:
    disc = discriminant(A, B)
    cr = rational_cbrt(disc)
    f_cbrt = cr is None
    if f_cbrt:
        L1 = CubicField(0, -disc)
        c = L1.elt(Fraction(-4 * A, 3), Fraction(-1, 3))
    else:
        L1 = None
        c = Fraction(-cr - 4 * A, 3)

    st, root = sqrt_in(L1, c)
    f_sc = st != SQUARE
    if f_sc:
        L2 = QuadTower(L1, c)
        sc = L2.gen()
    else:
        L2, sc = L1, _principal(L1, c, root)

    c2, sc2 = lift(L2, c), lift(L2, sc)
    delta = -c2 - 4 * A - (8 * B) / sc2
    st, root = sqrt_in(L2, delta)
    if st == SQUARE and not f_sc:
        # sqrt_c lives downstairs, so flipping its sign is not a field
        # automorphism and the conjugate radicand can behave differently.
        # Walk the branch whose abscissa pair genuinely extends the field;
        # otherwise the step accounting goes off the proved table even
        # though the degree formula would still be right.
        mirror = -c2 - 4 * A + (8 * B) / sc2
        st_m, _ = sqrt_in(L2, mirror)
        if st_m != SQUARE:
            sc = -sc
            sc2 = -sc2
            delta = mirror
            st, root = st_m, None
    f_sd = st != SQUARE
    if f_sd:
        L3 = QuadTower(L2, delta)
        sd = L3.gen()
    else:
        L3, sd = L2, _principal(L2, delta, root)

    c3, sc3, sd3 = lift(L3, c), lift(L3, sc), lift(L3, sd)
    y1_sq = ((4 * B - c3 * sc3) * sd3 + c3 * lift(L3, delta)) / (4 * sc3)
    st, _ = sqrt_in(L3, y1_sq)
    if st == SQUARE and not f_sd:
        # same conjugate-branch concern one floor up: the mirrored ordinate
        y2_sq = ((c3 * sc3 - 4 * B) * sd3 + c3 * lift(L3, delta)) / (4 * sc3)
        st_m, _ = sqrt_in(L3, y2_sq)
        if st_m != SQUARE:
            y1_sq = y2_sq
            st = st_m
    # With A = 0 the ordinate square collapses into the floor below the
    # sqrt_delta step; remembered because a couple of later decisions are
    # only valid for the generic shape.
    degenerate = f_sd and not y1_sq.v
    f_y = st != SQUARE
    L4 = QuadTower(L3, y1_sq) if f_y else L3

    # The last flag asks whether -3 is a square in the constructed tower.
    # Testing it against K(sqrt_c, y1) alone would overcount the degree on
    # degenerate curves, where that field misses sqrt_delta.
    f_z = sqrt_in(L4, Fraction(-3))[0] != SQUARE

    flags = {
        "cube_root": f_cbrt,
        "sqrt_c": f_sc,
        "sqrt_delta": f_sd,
        "ordinate": f_y,
        "zeta": f_z,
    }

    quartic = None
    if not f_cbrt and not f_z and [f_sc, f_sd, f_y].count(True) == 2:
        if f_sc and f_sd:
            quartic = _quartic_shape(c, delta)
        elif f_sc and f_y:
            quartic = _quartic_shape(c, y1_sq)
        else:
            quartic = _quartic_shape(delta, y1_sq)
    return _Tower3(flags, quartic, degenerate)


def _tower_b0(A: Fraction) -> _Tower3:
    f_s3 = not is_rational_square(Fraction(3))
    if f_s3:
        L1 = QuadTower(None, 3)
        s3 = L1.gen()
    else:                                   # impossible over Q; kept honest
        L1, s3 = None, Fraction(0)

    beta0 = -A - Fraction(2 * A, 3) * s3
    st, root = sqrt_in(L1, beta0)
    f_b = st != SQUARE
    if f_b:
        L2 = QuadTower(L1, beta0)
        x1 = L2.gen()
    else:
        L2, x1 = L1, _principal(L1, beta0, root)

    y1_sq = lift(L2, Fraction(-2 * A, 3) * s3) * lift(L2, x1)
    st, _ = sqrt_in(L2, y1_sq)
    if st == SQUARE and not f_b:
        st_m, _ = sqrt_in(L2, -y1_sq)
        if st_m != SQUARE:
            y1_sq = -y1_sq
            st = st_m
    f_y = st != SQUARE
    L3 = QuadTower(L2, y1_sq) if f_y else L2
    f_z = sqrt_in(L3, Fraction(-3))[0] != SQUARE

    flags = {"sqrt3": f_s3, "abscissa": f_b, "ordinate": f_y, "zeta": f_z}
    return _Tower3(flags, None, False)


def _tower(A: Fraction, B: Fraction) -> _Tower3:
    if discriminant(A, B) == 0:
        raise ValueError("singular curve: 4A^3 + 27B^2 = 0")
    with mpmath.workprec(working_bits(A, B)):     # for _principal's signs
        return _tower_b0(A) if B == 0 else _tower_bnz(A, B)


def conditions3(A, B):
    """Decide which tower steps genuinely extend the field.

    Returns (flags, confidence); every square test is exact, so the
    confidence is always "exact".
    """
    return _tower(Fraction(A), Fraction(B)).flags, "exact"


# ---------------------------------------------------------------------------
# degree table and group
# ---------------------------------------------------------------------------

def degree3(flags: dict) -> int:
    """Degree of the order-3 coordinate field from the step flags.

    Valid combinations follow the rule 3^[cube_root] * 2^(#other flags);
    combinations the tower proof excludes raise ClassificationDefect.
    """
    if "cube_root" in flags:
        if flags["zeta"] and not (flags["sqrt_delta"] and flags["ordinate"]):
            raise ClassificationDefect(f"impossible flag combination {flags}")
        two = sum(flags[k] for k in ("sqrt_c", "sqrt_delta", "ordinate", "zeta"))
        return (3 if flags["cube_root"] else 1) * 2 ** two
    if flags["abscissa"] and not flags["ordinate"]:
        raise ClassificationDefect(f"impossible flag combination {flags}")
    if flags["zeta"] and not flags["abscissa"]:
        raise ClassificationDefect(f"impossible flag combination {flags}")
    if flags["sqrt3"] and flags["abscissa"] and not flags["zeta"]:
        raise ClassificationDefect(f"impossible flag combination {flags}")
    return 2 ** sum(flags[k] for k in FLAG_KEYS_B0)


def galois_group3(flags: dict, degree: int, quartic: str | None = None,
                  zeta3_in_base: bool = False) -> str:
    """Name of Gal(K3/K) given the flags and the degree.

    `quartic` ("cyclic"/"biquadratic") is required for degree 4 on the
    B != 0 branch; `zeta3_in_base` selects the branches that only exist
    when the base field already contains a primitive cube root of unity
    (never over Q).
    """
    if "cube_root" in flags:
        fixed = {1: "1", 2: "Z2", 3: "Z3", 12: "D6", 16: "SD8",
                 24: "SL2_3", 48: "GL2_3"}
        if degree in fixed:
            g = fixed[degree]
        elif degree == 6:
            g = "Z6" if zeta3_in_base else "S3"
        elif degree == 8:
            g = "D4" if flags["zeta"] else "Q8"
        elif degree == 4:
            if quartic not in ("cyclic", "biquadratic"):
                raise ValueError("degree 4 needs the quartic shape")
            g = "Z4" if quartic == "cyclic" else "Z2xZ2"
        else:
            raise ClassificationDefect(f"degree {degree} out of table")
    else:
        fixed = {1: "1", 2: "Z2", 8: "D4", 16: "SD8"}
        if degree in fixed:
            g = fixed[degree]
        elif degree == 4:
            if flags["sqrt3"]:
                g = "Z4"
            else:
                g = "Z4" if zeta3_in_base else "Z2xZ2"
        else:
            raise ClassificationDefect(f"degree {degree} out of table")
    if GROUP_ORDERS[g] != degree:
        raise ClassificationDefect(f"group {g} does not have order {degree}")
    return g


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------

@dataclass
class Classification3Report:
    A: Fraction
    B: Fraction
    delta: Fraction
    branch: str
    flags: dict
    degree: int
    group: str
    confidence: str

    def to_json(self) -> dict:
        return {
            "schema": "1",
            "A": str(self.A),
            "B": str(self.B),
            "delta": str(self.delta),
            "branch": self.branch,
            "flags": dict(self.flags),
            "degree": self.degree,
            "group": self.group,
            "confidence": self.confidence,
        }


def classify3(A, B) -> Classification3Report:
    """Full classification of the order-3 coordinate field of
    y^2 = x^3 + A x + B over Q."""
    A, B = Fraction(A), Fraction(B)
    tw = _tower(A, B)
    d = degree3(tw.flags)
    if d == 8 and tw.degenerate:
        # a degenerate ordinate would force three independent square roots,
        # an elementary-abelian shape GL2(Z/3) does not contain
        raise ClassificationDefect("degenerate tower with degree 8")
    group = galois_group3(tw.flags, d, quartic=tw.quartic)
    return Classification3Report(A=A, B=B, delta=discriminant(A, B),
                                 branch="B0" if B == 0 else "Bnz",
                                 flags=tw.flags, degree=d, group=group,
                                 confidence="exact")
