"""Finite-field verification of the torsion-field generator statements.

Over K = F_q the Galois group of F_q(E[m])/F_q is cyclic, generated by the
q-power Frobenius, so every claim of the form "this set of coordinates
generates the torsion field" becomes a concrete comparison of subfield
degrees that `TorsionData.subfield_degree` can evaluate exactly.  Each
check_* function recomputes one such claim on one instance; `run_suite`
drives seeded random instances and returns machine-readable reports.

A failing verdict means either the statement transcription or the underlying
arithmetic is wrong — both are build-stopping, so callers treat any "fail"
as a hard error.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd

from .curve import DivisionPolynomials, discriminant
from .finitefield import (
    is_prime,
    poly_deg,
    poly_is_irreducible,
    pow_elt,
    primes_in_range,
)
from .gl2 import divisors, legendre, mat_pow
from .torsion import TorsionData, rebase, torsion_data

# how many instances of each torsion level the default suite runs
SUITE_M_COUNTS = {3: 110, 4: 110, 5: 110, 7: 110, 8: 80, 9: 80, 11: 110, 12: 80, 13: 110}

SUITE_Q_RANGE = (5, 200)


@dataclass
class TheoremReport:
    theorem: str
    q: int
    A: int
    B: int
    m: int
    degrees: dict
    verdict: str            # "pass" or "fail"
    note: str = ""

    def to_json(self) -> str:
        payload = {
            "theorem": self.theorem, "q": self.q, "A": self.A, "B": self.B,
            "m": self.m, "degrees": self.degrees, "verdict": self.verdict,
        }
        if self.note:
            payload["note"] = self.note
        return json.dumps(payload, sort_keys=False)


def _k(td: TorsionData, gens) -> int:
    return td.subfield_degree(gens)


# ---------------------------------------------------------------------------
# the individual checks: each returns (ok, degrees, note)
# ---------------------------------------------------------------------------

def check_zetam(td):
    """The whole torsion field is generated by x1, x2, the pairing root and y1."""
    k = _k(td, [td.x1, td.x2, td.zeta, td.y1])
    return k == td.n, {"n": td.n, "k": k}, ""


def check_zeta_vs_y1y2(td):
    """Over K(x1,x2) the pairing root and the product y1*y2 generate the same
    field; consequently y1*y2 outside K(x1,x2) forces the root outside too."""
    kL = _k(td, [td.x1, td.x2])
    kz = _k(td, [td.x1, td.x2, td.zeta])
    ky = _k(td, [td.x1, td.x2, td.y1 * td.y2])
    ok = kz == ky
    if ky > kL:
        ok = ok and kz > kL
    return ok, {"k_L": kL, "k_zeta": kz, "k_y1y2": ky}, ""


def check_casi1(td):
    """K_m/K(x1,x2) falls in exactly one of four shapes (degree 1, 2, 2, 4),
    distinguished by whether y1*y2 descends; m=2 must land in the first."""
    n, m = td.n, td.m
    kL = _k(td, [td.x1, td.x2])
    deg = {"n": n, "k_L": kL}
    if n % kL or n // kL not in (1, 2, 4):
        return False, deg, "relative degree outside {1,2,4}"
    dL = n // kL
    if dL == 1:
        deg["case"] = 1
        return True, deg, ""
    if m == 2:
        deg["case"] = 0
        return False, deg, "m=2 must have K_2 = K(x1,x2)"
    ky = _k(td, [td.x1, td.x2, td.y1 * td.y2])
    deg["k_y1y2"] = ky
    if dL == 4:
        deg["case"] = 4
        return ky == 2 * kL, deg, ""
    # dL == 2
    if ky == n:
        deg["case"] = 2
        return True, deg, ""
    deg["case"] = 3
    ok = ky == kL and _k(td, [td.x1, td.x2, td.y1]) == n \
        and _k(td, [td.x1, td.x2, td.y2]) == n
    return ok, deg, ""


def check_dihedral(td):
    """For m >= 3 the symmetric functions of x1,x2 plus the pairing root and
    one ordinate generate everything; and any Frobenius power fixing the
    symmetric functions already fixes zeta + zeta^-1."""
    s, pr = td.x1 + td.x2, td.x1 * td.x2
    k = _k(td, [s, pr, td.zeta, td.y1])
    kc = _k(td, [s, pr])
    real = td.zeta + pow_elt(td.zeta, td.m - 1)
    kr = _k(td, [s, pr, real])
    ok = k == td.n and kr == kc
    return ok, {"n": td.n, "k": k, "k_sym": kc, "k_sym_real": kr}, ""


def check_ordinates1(td):
    """m >= 4: {x1, zeta, y1, y2} generates K_m for odd m; for even m the
    index is at most 2 and the residual Frobenius power must send P2 to
    (m/2)P1 + P2; moreover the level-m/2 field descends."""
    n, m = td.n, td.m
    k = _k(td, [td.x1, td.zeta, td.y1, td.y2])
    deg = {"n": n, "k": k}
    if m % 2 == 1:
        return k == n, deg, ""
    idx = n // k
    deg["index"] = idx
    ok = idx in (1, 2)
    if idx == 2:
        ok = ok and mat_pow(td.frobenius, k, m) == (1, m // 2, 0, 1)
    half_gens = []
    for i in range(0, m, 2):
        for j in range(0, m, 2):
            if (i, j) != (0, 0):
                P = td.point(i, j)
                half_gens += [P[0], P[1]]
    khalf = _k(td, half_gens)
    deg["k_half_level"] = khalf
    return ok and k % khalf == 0, deg, ""


def check_odd_index(td):
    """Prime m >= 5: the index of K(zeta, y1, y2) in K_m is odd."""
    k = _k(td, [td.zeta, td.y1, td.y2])
    idx = td.n // k
    return idx % 2 == 1, {"n": td.n, "k": k, "index": idx}, ""


def check_ordinates1plus(td):
    """Odd prime m = 2 mod 3: K_m is K(x1,y1,y2) or K(x1,y1,zeta); when P1
    is rational the corollary sharpens this to K(zeta) or K(y2)."""
    n = td.n
    ka = _k(td, [td.x1, td.y1, td.y2])
    kb = _k(td, [td.x1, td.y1, td.zeta])
    deg = {"n": n, "k_x1y1y2": ka, "k_x1y1zeta": kb}
    ok = ka == n or kb == n
    note = "branch=y2" if ka == n else "branch=zeta"
    if _k(td, [td.x1, td.y1]) == 1:
        mono = _k(td, [td.zeta]) == n or _k(td, [td.y2]) == n
        ok = ok and mono
        note += ";monogenic"
    return ok, deg, note


def check_ordinates1pp(td):
    """m >= 4: whenever {x1, zeta, y1, y2} generates K_m, y1 is redundant."""
    n = td.n
    khyp = _k(td, [td.x1, td.zeta, td.y1, td.y2])
    deg = {"n": n, "k_hyp": khyp}
    if khyp != n:
        return True, deg, "vacuous"
    k = _k(td, [td.x1, td.zeta, td.y2])
    deg["k"] = k
    return k == n, deg, ""


def check_reynolds(td):
    """For d >= 3 dividing m and R of order m, y(R) and y((m/d)R) carry the
    same information over K(x(R)); full rational d-torsion frees y entirely."""
    m = td.m
    ok = True
    deg = {}
    for d in (d for d in divisors(m) if d >= 3):
        level_gens = []
        for i in range(m):
            for j in range(m):
                if i % (m // d) == 0 and j % (m // d) == 0 and (i, j) != (0, 0):
                    P = td.point(i, j)
                    level_gens += [P[0], P[1]]
        k_level = _k(td, level_gens)
        for (i, j), tag in (((0, 1), "P2"), ((1, 1), "P1pP2")):
            R = td.point(i, j)
            S = td.point(m // d * i, m // d * j)
            ka = _k(td, [R[0], R[1]])
            kb = _k(td, [R[0], S[1]])
            deg[f"d{d}_{tag}"] = ka
            deg[f"d{d}_{tag}_partial"] = kb
            ok = ok and ka == kb
            if k_level == 1:
                ok = ok and ka == _k(td, [R[0]])
    return ok, deg, ""


def check_ext_ord_2p(td):
    """Prime m >= 5: the residual group over K(x1, zeta) has order dividing
    2m and its generating Frobenius power is a power of [[-1,1],[0,-1]]."""
    n, m = td.n, td.m
    k = _k(td, [td.x1, td.zeta])
    idx = n // k
    deg = {"n": n, "k": k, "index": idx}
    ok = (2 * m) % idx == 0
    Fk = mat_pow(td.frobenius, k, m)
    ok = ok and Fk[2] == 0 and Fk[0] == Fk[3] and Fk[0] in (1, m - 1)
    return ok, deg, ""


def _eigenvector(F, lam, m):
    a, b, c, d = F
    v = ((-b) % m, (a - lam) % m)
    if v == (0, 0):
        v = ((d - lam) % m, (-c) % m)
    if v == (0, 0):
        v = (1, 0)
    return v


def _completed_basis(v, m):
    """A second column making (v | w) invertible mod prime m."""
    w = (0, 1) if v[0] % m else (1, 0)
    if (v[0] * w[1] - v[1] * w[0]) % m == 0:
        raise ValueError(f"{v} is zero mod {m}")
    return (v[0], w[0], v[1], w[1])


def check_borel_cartan(td):
    """Prime m >= 5 with a reducible or semisimple Frobenius: after adapting
    the basis to the triangular/diagonal shape, K_m = K(zeta, y2) up to an
    index-3 defect that requires m = 1 mod 3 in the triangular and split
    cases; inside a Cartan, {x1, zeta} misses at most y1.

    For a nonsplit Frobenius the order-3 defect is not tied to m mod 3 (the
    cube roots of unity live in the quadratic extension for every m), so
    there the check only enforces index in {1, 3} and records the residue.
    """
    n, m, q = td.n, td.m, td.q
    F = td.frobenius
    tr = (F[0] + F[3]) % m
    disc = (tr * tr - 4 * q) % m
    scalar = F[1] % m == 0 and F[2] % m == 0 and F[0] % m == F[3] % m
    deg = {"n": n, "disc": disc}
    ok = True
    note = []

    if legendre(disc, m) >= 0:
        # reducible: triangular in the eigenbasis
        lam = next(x for x in range(m) if (x * x - tr * x + q) % m == 0)
        tdb = rebase(td, _completed_basis(_eigenvector(F, lam, m), m))
        if tdb.frobenius[2] % m:
            raise ArithmeticError("Frobenius is not triangular in its eigenbasis")
        kz = _k(tdb, [tdb.zeta, tdb.y2])
        deg["k_borel"] = kz
        idx = n // kz
        if m % 3 == 1:
            ok = ok and idx in (1, 3)
        else:
            ok = ok and idx == 1
        note.append("borel")

    if disc != 0 or scalar:
        # semisimple: inside a Cartan subgroup
        kxz = _k(td, [td.x1, td.zeta])
        dxz = n // kxz
        deg["k_x1zeta"] = kxz
        ok = ok and dxz in (1, 2)
        if dxz == 2:
            ok = ok and _k(td, [td.x1, td.y1, td.zeta]) == n
        if legendre(disc, m) == 1 or scalar:
            if scalar:
                tdc = td
            else:
                lam = next(x for x in range(m) if (x * x - tr * x + q) % m == 0)
                mu = (tr - lam) % m
                v, w = _eigenvector(F, lam, m), _eigenvector(F, mu, m)
                tdc = rebase(td, (v[0], w[0], v[1], w[1]))
            kz = _k(tdc, [tdc.zeta, tdc.y2])
            deg["k_split"] = kz
            idx = n // kz
            if m % 3 == 1:
                ok = ok and idx in (1, 3)
            else:
                ok = ok and idx == 1
            note.append("split")
        elif legendre(disc, m) == -1:
            kz = _k(td, [td.zeta, td.y2])
            deg["k_nonsplit"] = kz
            idx = n // kz
            ok = ok and idx in (1, 3)
            note.append("nonsplit")
            if idx == 3 and m % 3 != 1:
                note.append("nonsplit_idx3_m_not_1_mod_3")

    return ok, deg, ",".join(note)


def check_galgl(td):
    """Prime m >= 5: the three full-image criteria (irrational pairing root,
    irreducible division polynomial over K(zeta), and a genuinely new y1
    whose residual generator is not -Id) can never hold simultaneously over
    a finite field, where the image is cyclic and so never all of GL_2."""
    n, m, q = td.n, td.m, td.q
    kz = _k(td, [td.zeta])
    c1 = kz > 1
    deg = {"n": n, "k_zeta": kz}
    D = (m * m - 1) // 2
    c2 = False
    if n % D == 0:  # a degree-D irreducible factor must divide x1's degree
        phi = DivisionPolynomials(q, td.A, td.B).torsion_x_polynomial(m)
        if poly_deg(phi) != D:
            raise ArithmeticError(f"division polynomial of degree {poly_deg(phi)}, not {D}")
        c2 = poly_is_irreducible(phi, q) and gcd(D, kz) == 1
    k1 = _k(td, [td.zeta, td.x1])
    k2 = _k(td, [td.zeta, td.x1, td.y1])
    deg["k_zeta_x1"] = k1
    deg["k_zeta_x1_y1"] = k2
    c3 = k2 == 2 * k1 and mat_pow(td.frobenius, k1, m) != (m - 1, 0, 0, m - 1)
    ok = not (c1 and c2 and c3)
    return ok, deg, f"c1={int(c1)},c2={int(c2)},c3={int(c3)}"


# name -> (minimum m, extra applicability predicate, function)
CHECKS = {
    "zetam": (2, lambda m: True, check_zetam),
    "zeta_vs_y1y2": (2, lambda m: True, check_zeta_vs_y1y2),
    "casi1": (2, lambda m: True, check_casi1),
    "dihedral": (3, lambda m: True, check_dihedral),
    "ordinates1": (4, lambda m: True, check_ordinates1),
    "odd_index": (5, lambda m: is_prime(m), check_odd_index),
    "ordinates1plus": (5, lambda m: is_prime(m) and m % 3 == 2, check_ordinates1plus),
    "ordinates1pp": (4, lambda m: True, check_ordinates1pp),
    "reynolds": (3, lambda m: True, check_reynolds),
    "ext_ord_2p": (5, lambda m: is_prime(m), check_ext_ord_2p),
    "borel_cartan": (5, lambda m: is_prime(m), check_borel_cartan),
    "galgl": (5, lambda m: is_prime(m), check_galgl),
}


def applicable_checks(m: int) -> list[str]:
    return [name for name, (mmin, pred, _) in CHECKS.items()
            if m >= mmin and pred(m)]


def run_check(name: str, td: TorsionData) -> TheoremReport:
    _, _, fn = CHECKS[name]
    ok, degrees, note = fn(td)
    return TheoremReport(
        theorem=name, q=td.q, A=td.A, B=td.B, m=td.m,
        degrees=degrees, verdict="pass" if ok else "fail", note=note,
    )


# ---------------------------------------------------------------------------
# instance generation and the suite driver
# ---------------------------------------------------------------------------

def generate_instances(m: int, count: int, seed):
    """Yield `count` deterministic random TorsionData instances at level m.

    Singular (q, A, B) draws are silently redrawn.  Construction is total
    on valid inputs, so a TorsionConstructionError is a defect and propagates.
    """
    rng = random.Random(f"suite-{seed}-m{m}")
    primes = [q for q in primes_in_range(*SUITE_Q_RANGE) if m % q != 0]
    made = 0
    while made < count:
        q = rng.choice(primes)
        A = rng.randrange(q)
        B = rng.randrange(q)
        if discriminant(A, B) % q == 0:
            continue
        made += 1
        yield torsion_data(q, A, B, m)


def run_suite(seed=0, m_counts=None, theorems=None) -> list[TheoremReport]:
    """All requested checks on seeded random instances; returns all reports."""
    counts = dict(SUITE_M_COUNTS if m_counts is None else m_counts)
    wanted = set(CHECKS) if theorems is None else set(theorems)
    unknown = wanted - set(CHECKS)
    if unknown:
        raise ValueError(f"unknown theorem ids: {sorted(unknown)}")
    reports = []
    for m in sorted(counts):
        names = [nm for nm in applicable_checks(m) if nm in wanted]
        if not names:
            continue
        for td in generate_instances(m, counts[m], seed):
            for nm in names:
                reports.append(run_check(nm, td))
    return reports


def write_jsonl(reports, fh) -> None:
    for rep in reports:
        fh.write(rep.to_json() + "\n")


def failures(reports) -> list[TheoremReport]:
    return [r for r in reports if r.verdict != "pass"]
