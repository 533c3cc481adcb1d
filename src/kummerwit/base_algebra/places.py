"""Places of F_q(s), their valuations, residue fields, and tower splitting.

A place is either Finite(pi) for a monic irreducible pi, or the degree place
at infinity with uniformizer 1/s.  The residue field of Finite(pi) is
F_q[s]/(pi), of size q^deg(pi); at infinity it is F_q itself.

Place.finite validates: it makes pi monic and checks irreducibility.  The
constructor only stores pi, so factor_place_in_tower builds places straight
from factor's output, which is monic and irreducible already.

factor_place_in_tower computes how a place splits when s is replaced by an
r^n-th root: for a finite place this is the factorization of pi(s^(r^n));
the infinite place is totally ramified at every level.  It hands factor the
degrees a factor can have, by this lemma (for binomials see Lidl and
Niederreiter, Finite Fields, ch. 3):

  Let pi != s be monic irreducible of degree k over F_q, m = r^n with r a
  prime other than p, Q = q^k and o = ord_r(Q).  Every irreducible factor
  of pi(s^m) has degree k*j with j = 1 or j = o*r^i <= m.

  Proof.  Let beta be a root and alpha = beta^m.  Then F_q(alpha) = F_Q lies
  in F_q(beta), and j = [F_Q(beta) : F_Q] is the order of Q modulo
  ord(beta).  ord(beta) divides m*(Q - 1), so its part prime to r divides
  Q - 1 and j = ord_{r^c}(Q), r^c the r-part of ord(beta).  That is 1 for
  c = 0; else it is o*r^i, as the kernel of (Z/r^c)^x -> (Z/r)^x is an
  r-group (for r = 2, o = 1).  And j <= m, the degree of beta over F_Q.
  For pi = s, pi(s^m) = s^m has the one factor s, of degree 1 = k.

A finite place's tower work is that of factoring pi(s^(r^n)), of degree
deg(pi) * r^n.  factor_place_in_tower refuses that degree (r^n at infinity)
above TOWER_DEGREE_MAX before composing.

boundedness_probe asks for a chain of places up the s -> s^(1/r) tower to
level n_max with every local degree e*f prime to l, a prime outside {p, r}.
One exists, as each place has one above it with e*f = 1 or a power of r.
At infinity and at s the one place above has e*f = r and lies there again.
A finite pi != s of degree k has pi(s^r) squarefree (pi(0) != 0, r != p), so
e = 1 and f = j of the lemma, with Q = q^k.  If r does not divide Q - 1,
x -> x^r is a bijection of F_Q^x, so a root of pi has an r-th root in F_Q:
j = 1.  Else o = 1 and every j is a power of r.  The factors are prime to s,
and induction on the level gives the chain.
"""

from __future__ import annotations

from math import gcd

from ..errors import BadEll, WorkBound, ZeroInput
from .fields import FieldCtx
from .grammar import format_place
from .intarith import is_prime, multiplicative_order
from .poly import Poly, factor, is_irreducible, poly_ext_gcd, poly_valuation
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

    def reduce(self, x: RatFunc) -> Poly:
        """red_P(x) for v_P(x) = 0."""
        if valuation(x, self.place) != 0:
            raise ZeroInput("residue defined only at valuation zero")
        if self.place.is_infinite:
            # v = 0 forces deg num = deg den; den is monic
            return Poly.const(self.ctx, x.num.lc())
        pi = self.place.poly
        num = x.num % pi
        den = x.den % pi
        return (num * self._inv_mod(den)) % pi

    def reduce_unit_part(self, x: RatFunc) -> Poly:
        """Residue of x * u^(-v_P(x)) for the canonical uniformizer u."""
        v = valuation(x, self.place)
        if v == 0:
            return self.reduce(x)
        if self.place.is_infinite:
            shifted = x * RatFunc.gen(self.ctx) ** v  # u = 1/s
        else:
            shifted = x / RatFunc.from_poly(self.place.poly) ** v
        return self.reduce(shifted)

    def _inv_mod(self, f: Poly) -> Poly:
        d, u, _ = poly_ext_gcd(f, self.place.poly)
        if not d.is_one():
            raise ZeroDivisionError("non-invertible residue")
        return u % self.place.poly

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
    v = valuation(x, place)
    if v != 0:
        return v, None, None
    rf = ResidueField(ctx, place)
    residue = rf.reduce(x)
    return v, residue, rf.is_nth_power(residue, ell)


# The largest degree of pi(s^(r^n)) the tower commands factor: 3^7.  It
# bounds the degree, not the time, which grows with q and with the largest
# factor degree: at pi = s + 1 (Python 3.11, one core of a 2-CPU machine),
# degree 2187 took 0.65 s over F_5 and 6.0 s over F_13 (r = 3), degree 2048
# took 3.2 s over F_3 and 8.2 s over F_7 (r = 2), and 625 took 5.5 s over
# F_9 (r = 5); 6561 over F_5 (r = 3) took 5.0 s.
TOWER_DEGREE_MAX = 2187


def _check_tower_work(k: int, r: int, n: int) -> None:
    """Raise WorkBound when k * r^n exceeds TOWER_DEGREE_MAX."""
    # r >= 2, so a level beyond the cap's bit length is over it
    if n > TOWER_DEGREE_MAX.bit_length() or k * r ** n > TOWER_DEGREE_MAX:
        raise WorkBound(f"{k} * {r}^{n} exceeds the tower degree cap {TOWER_DEGREE_MAX}")


def tower_degrees(k: int, q: int, r: int, m: int) -> list[int]:
    """The degrees k*j, j = 1 or o*r^i <= m with o = ord_r(q^k), that the
    module docstring's lemma allows for a factor of pi(s^m), deg pi = k;
    ascending.  r is a prime other than p, so q^k is a unit mod r."""
    j = multiplicative_order(pow(q, k, r), r)  # o
    degrees = [k] if j > 1 else []
    while j <= m:
        degrees.append(k * j)
        j *= r
    return degrees


def factor_place_in_tower(place: Place, r: int, n: int,
                          ctx: FieldCtx) -> list[tuple[Place, int, int]]:
    """Places above a place of F_q(t) in F_q(s) with t = s^(r^n).

    Returns [(place above, e, f)] with e the ramification index and f the
    residue degree; the local degrees satisfy sum(e_i * f_i) = r^n.  Raises
    WorkBound when deg(pi) * r^n exceeds TOWER_DEGREE_MAX (deg = 1 at
    infinity).
    """
    if not is_prime(r) or r == ctx.p:
        raise BadEll(f"r = {r} must be a prime different from p = {ctx.p}")
    if n < 0:
        raise ValueError("tower level must be >= 0")
    if n == 0:
        return [(place, 1, 1)]
    _check_tower_work(place.degree(), r, n)
    m = r ** n
    if place.is_infinite:
        return [(place, m, 1)]
    composed = place.poly.compose_monomial(m)
    base_deg = place.poly.degree()
    # factor's order is the places' order: the factors are distinct
    out = [(Place(irr), mult, irr.degree() // base_deg)
           for irr, mult in factor(composed, degrees=tower_degrees(base_deg, ctx.q, r, m))]
    assert sum(e * f for _, e, f in out) == m
    return out


def boundedness_probe(place: Place, r: int, ell: int, n_max: int,
                      ctx: FieldCtx) -> bool:
    """True: by the module docstring's lemma, a chain of places up the
    s -> s^(1/r) tower to level n_max with each e*f prime to ell exists.
    Checks in order: ell a prime outside {p, r} (BadEll), n_max >= 0, r^n_max
    <= TOWER_DEGREE_MAX (WorkBound), r a prime other than p (BadEll).  ell and
    place (validated when built) are checked but do not change the answer."""
    if not is_prime(ell) or ell == ctx.p or ell == r:
        raise BadEll(f"l = {ell} must be a prime outside {{p, r}}")
    if n_max < 0:
        raise ValueError("tower level must be >= 0")
    _check_tower_work(1, r, n_max)
    if not is_prime(r) or r == ctx.p:
        raise BadEll(f"r = {r} must be a prime different from p = {ctx.p}")
    return True
