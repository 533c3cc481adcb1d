"""Places of F_q(s), their valuations, residue fields, and tower splitting.

A place is either Finite(pi) for a monic irreducible pi, or the degree place
at infinity with uniformizer 1/s.  The residue field of Finite(pi) is
F_q[s]/(pi), of size q^deg(pi); at infinity it is F_q itself.
ResidueField.unit_part(x) is the one map into it: v_P(x) and the residue
of x * u^(-v) for u = pi or 1/s, in one pass.

Place.finite validates: it makes pi monic and checks irreducibility.  The
constructor only stores pi, so factor_place_in_tower builds places straight
from its split, whose factors are monic and irreducible already.

factor_place_in_tower computes how a place splits when s is replaced by an
r^n-th root, r a prime other than p.  Infinity and s are totally ramified
at every level.  For pi != s, pi(s^(r^n)) is squarefree (pi(0) != 0), and
it splits level by level: the factors at level i + 1 are those of h(s^r)
for the factors h at level i.  Let deg h = k, Q = q^k, alpha a root of h,
so F_q(alpha) = F_Q, and beta an r-th root of alpha, so F_q(beta) =
F_Q(beta).  By Kummer theory (Lang, Algebra, VI.9.1; Lidl and Niederreiter,
Finite Fields, Thm 3.35):

(a) r does not divide Q - 1.  x -> x^r is a bijection of F_Q^x, so each
    conjugate of alpha has one r-th root in F_Q: they make the one factor of
    degree k, gcd(h(s^r), s^Q - s).  The other roots, beta*zeta with
    zeta^r = 1 != zeta, generate F_Q(zeta) = F_(Q^o), o = ord_r(Q): the
    rest has factors of degree k*o.
(b) r | Q - 1 and alpha^((Q-1)/r) = 1: alpha is an r-th power, and F_Q
    holds the r-th roots of unity, so h(s^r) has r factors of degree k.
(c) r | Q - 1 and alpha is not an r-th power: x^r - alpha is irreducible
    over F_Q, so h(s^r) is irreducible over F_q.  As v_r(ord alpha) =
    v_r(Q - 1), v_r(ord beta) = v_r(Q - 1) + 1, which is v_r(Q^r - 1) for r
    odd, and for r = 2 when Q = 1 mod 4: beta is not an r-th power in
    F_(Q^r), and (c) holds at every level above, so h(s^(r^j)) is
    irreducible for all j.  For r = 2 and Q = 3 mod 4, h(s^2) is tested
    again one level up.

So a factor takes at most one residue power test per level, and one in (c)
is composed straight to level n.  The factorization is unique and sorted,
so _edf's random draws do not show.

boundedness_probe asks for a chain of places up the s -> s^(1/r) tower to
level n_max with every local degree e*f prime to l, a prime outside {p, r}.
One exists, as each place has one above it with e*f = 1 or r: at infinity
and s, e = r and f = 1; above pi != s, e = 1, and (a) or (b) gives f = 1
and (c) f = r, at a place prime to s.  Induction on the level gives the
chain.
"""

from __future__ import annotations

import random
from math import gcd

from ..errors import BadEll, WorkBound, ZeroInput
from .fields import FieldCtx
from .grammar import format_place
from .intarith import is_prime, multiplicative_order
from .poly import Poly, _edf, _split_off, is_irreducible, poly_ext_gcd, poly_gcd, poly_valuation
from .ratfunc import RatFunc


class Place:
    """A prime of F_q(s): a monic irreducible polynomial, or infinity."""

    __slots__ = ("poly",)

    def __init__(self, poly: Poly | None):
        self.poly = poly

    @classmethod
    def finite(cls, poly: Poly) -> "Place":
        """The place of poly made monic; raises ValueError unless irreducible."""
        pi = poly.monic()
        if not is_irreducible(pi):
            raise ValueError(f"{pi!r} is not monic irreducible")
        return cls(pi)

    @classmethod
    def infinity(cls) -> "Place":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.poly is None

    def degree(self) -> int:
        return 1 if self.is_infinite else self.poly.degree()

    def residue_size(self, ctx: FieldCtx) -> int:
        return ctx.q ** self.degree()

    def __eq__(self, other):
        return isinstance(other, Place) and self.poly == other.poly

    def __hash__(self):
        return hash(("place", self.poly))

    def __repr__(self):
        return format_place(self)


def valuation(x: RatFunc, place: Place) -> int:
    """Normalized valuation v_P(x) for x != 0."""
    if x.is_zero():
        raise ZeroInput("valuation of zero is undefined")
    if place.is_infinite:
        return x.v_infinity()
    return poly_valuation(x.num, place.poly) - poly_valuation(x.den, place.poly)


class ResidueField:
    """The residue field at a place, with exact n-th power tests.

    Elements are represented as polynomials of degree < deg(pi) over F_q for
    a finite place pi (the quotient F_q[s]/(pi)), and as elements of F_q at
    infinity (stored as constant polynomials for uniformity).
    """

    __slots__ = ("ctx", "place", "size")

    def __init__(self, ctx: FieldCtx, place: Place):
        self.ctx = ctx
        self.place = place
        self.size = place.residue_size(ctx)

    def unit_part(self, x: RatFunc) -> tuple[int, Poly]:
        """(v_P(x), residue of x * u^(-v)) for u = pi, or 1/s at infinity,
        where it is lc(num) as den is monic.  At pi the last nonzero
        remainders of the divmod chains of num and den are the residues of
        their pi-free parts, the den one a unit.  ZeroInput for x = 0."""
        if x.is_zero():
            raise ZeroInput("valuation of zero is undefined")
        if self.place.is_infinite:
            return x.v_infinity(), Poly.const(self.ctx, x.num.lc())
        pi = self.place.poly
        (v_num, r_num), (v_den, r_den) = _split_off(x.num, pi), _split_off(x.den, pi)
        return v_num - v_den, (r_num * poly_ext_gcd(r_den, pi)[1]) % pi

    def pow(self, x: Poly, n: int) -> Poly:
        if self.place.is_infinite:
            c = x.lc() if x else self.ctx.zero()
            return Poly.const(self.ctx, c ** n)
        return x.powmod(n, self.place.poly)

    def is_nth_power(self, elem: Poly, n: int, ext_degree: int = 1) -> bool:
        """Whether elem lies in (F_Q^x)^n viewed inside F_{Q^ext_degree}.

        The test is the exponent criterion elem^((Q^e - 1)/g) = 1 with
        g = gcd(n, Q^e - 1); elem is an element of the base residue field,
        so the powering stays inside it, and as elem^(Q - 1) = 1 there the
        exponent is taken mod Q - 1.
        """
        if elem.is_zero():
            return True
        big = self.size ** ext_degree - 1
        return self.pow(elem, big // gcd(n, big) % (self.size - 1)).is_one()


def place_data(x: RatFunc, place: Place, ell: int, ctx: FieldCtx):
    """(v, residue, is_lth_power): valuation, residue class when v = 0, and
    membership of the residue in the l-th powers of the residue field."""
    if x.is_zero():
        raise ZeroInput("place_data requires x != 0")
    if ell < 2 or gcd(ell, ctx.p) != 1:
        raise BadEll(f"l = {ell} must be >= 2 and coprime to p = {ctx.p}")
    rf = ResidueField(ctx, place)
    v, residue = rf.unit_part(x)
    if v != 0:
        return v, None, None
    return v, residue, rf.is_nth_power(residue, ell)


# The largest degree of pi(s^(r^n)) the tower commands factor: 3^7.  The time
# grows with the number of factors and with deg(pi) * log q, not with r^n (one
# core of a 2-CPU machine, Python 3.11): s + 1 took 0.2-2.4 ms at the cap over
# F_5, F_7, F_9, F_11 and F_13, the 99 factors of s^2187 - 1 over F_109 27 ms,
# and a dense pi of degree 1024 over F_13 (r = 2, n = 1) 80 s, one _edf split.
TOWER_DEGREE_MAX = 2187


def _check_tower_work(k: int, r: int, n: int) -> None:
    """Raise ValueError when n < 0, and WorkBound when n >= 1 and k * r^n
    exceeds TOWER_DEGREE_MAX."""
    if n < 0:
        raise ValueError("tower level must be >= 0")
    # r >= 2, so a level beyond the cap's bit length is over it
    if n and (n > TOWER_DEGREE_MAX.bit_length() or k * r ** n > TOWER_DEGREE_MAX):
        raise WorkBound(f"{k} * {r}^{n} exceeds the tower degree cap {TOWER_DEGREE_MAX}")


def check_tower_factor(k: int, r: int, n: int, ctx: FieldCtx) -> None:
    """factor_place_in_tower's checks on a place of degree k, in order: r a
    prime other than p (BadEll), then _check_tower_work.  They need only k,
    so a caller can run them before Place.finite tests irreducibility."""
    if not is_prime(r) or r == ctx.p:
        raise BadEll(f"r = {r} must be a prime different from p = {ctx.p}")
    _check_tower_work(k, r, n)


def factor_place_in_tower(place: Place, r: int, n: int,
                          ctx: FieldCtx) -> list[tuple[Place, int, int]]:
    """Places above a place of F_q(t) in F_q(s) with t = s^(r^n).

    Returns [(place above, e, f)] with e the ramification index and f the
    residue degree, sorted by the places' polynomials; the local degrees
    satisfy sum(e_i * f_i) = r^n.  Raises WorkBound when deg(pi) * r^n
    exceeds TOWER_DEGREE_MAX (deg = 1 at infinity).  The split is the
    module docstring's, level by level.

    The sum holds by induction on the level: at infinity and s it is e = r^n.
    Else every e is 1, and the degrees of level i's factors and of those
    composed to level n from below sum to deg(pi) * r^n, since each h is
    replaced by factors of h(s^r) whose product is h(s^r): g and _edf's
    split of h(s^r) / g in (a), _edf's split in (b), h(s^r) itself in (c).
    """
    check_tower_factor(place.degree(), r, n, ctx)
    if n == 0:
        return [(place, 1, 1)]
    if place.is_infinite or not place.poly.coeffs[0]:  # infinity, or pi = s
        return [(place, r ** n, 1)]
    s, rng = Poly.gen(ctx), random.Random(0)
    done, level = [], [place.poly]  # level: the factors of pi(s^(r^i))
    for i in range(n):
        above = []
        for h in level:
            k, big_q, up = h.degree(), ctx.q ** h.degree(), h.compose_monomial(r)
            if (big_q - 1) % r:  # (a)
                g = poly_gcd(up, s.powmod(big_q, up) - s)
                above += [g] + _edf(up // g, k * multiplicative_order(big_q, r), rng)
            elif ResidueField(ctx, Place(h)).is_nth_power(s % h, r):  # (b)
                above += _edf(up, k, rng)
            elif r == 2 and big_q % 4 == 3:  # (c), split again one level up
                above.append(up)
            else:  # (c), irreducible at every level
                done.append(h.compose_monomial(r ** (n - i)))
        level = above
    return [(Place(g), 1, g.degree() // place.degree())
            for g in sorted(done + level, key=Poly.sort_key)]


def boundedness_probe(place: Place, r: int, ell: int, n_max: int,
                      ctx: FieldCtx) -> bool:
    """True: by the module docstring's split, a chain of places up the
    s -> s^(1/r) tower to level n_max with each e*f prime to ell exists.
    Checks in order: ell a prime outside {p, r} (BadEll), n_max >= 0, r^n_max
    <= TOWER_DEGREE_MAX (WorkBound), r a prime other than p (BadEll).  ell and
    place (validated when built) are checked but do not change the answer."""
    if not is_prime(ell) or ell == ctx.p or ell == r:
        raise BadEll(f"l = {ell} must be a prime outside {{p, r}}")
    _check_tower_work(1, r, n_max)
    if not is_prime(r) or r == ctx.p:
        raise BadEll(f"r = {r} must be a prime different from p = {ctx.p}")
    return True
