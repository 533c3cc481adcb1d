"""Places of F_q(s), their valuations, residue fields, and tower splitting.

A place is either Finite(pi) for a monic irreducible pi, or the degree place
at infinity with uniformizer 1/s.  The residue field of Finite(pi) is
F_q[s]/(pi), of size q^deg(pi); at infinity it is F_q itself.

Place.finite validates: it makes pi monic and checks irreducibility.  The
constructor only stores pi, so factor_place_in_tower builds places straight
from factor's output, which is monic and irreducible already.

factor_place_in_tower computes how a place splits when s is replaced by an
r^n-th root: for a finite place this is the factorization of pi(s^(r^n));
the infinite place is totally ramified at every level.
"""

from __future__ import annotations

from math import gcd

from ..errors import BadEll, ZeroInput
from .fields import FieldCtx
from .intarith import is_prime
from .poly import Poly, factor, is_irreducible, poly_valuation
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
        if not pi.is_monic() or not is_irreducible(pi):
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
        from .grammar import format_place
        return format_place(self)

    def sort_key(self):
        # infinity sorts after all finite places
        return (1, ()) if self.is_infinite else (0, self.poly.sort_key())


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

    def one(self) -> Poly:
        return Poly.one(self.ctx)

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
        from .poly import poly_ext_gcd
        d, u, _ = poly_ext_gcd(f, self.place.poly)
        if not d.is_one():
            raise ZeroDivisionError("non-invertible residue")
        return u % self.place.poly

    def mul(self, x: Poly, y: Poly) -> Poly:
        if self.place.is_infinite:
            return x * y
        return (x * y) % self.place.poly

    def pow(self, x: Poly, n: int) -> Poly:
        if self.place.is_infinite:
            c = x.lc() if x else self.ctx.zero()
            return Poly.const(self.ctx, c ** n)
        return x.powmod(n, self.place.poly)

    def is_nth_power(self, elem: Poly, n: int, ext_degree: int = 1) -> bool:
        """Whether elem lies in (F_Q^x)^n viewed inside F_{Q^ext_degree}.

        The test is the exponent criterion elem^((Q^e - 1)/g) = 1 with
        g = gcd(n, Q^e - 1); elem is an element of the base residue field,
        so the powering stays inside it.
        """
        if elem.is_zero():
            return True
        big = self.size ** ext_degree - 1
        g = gcd(n, big)
        return self.pow(elem, big // g).is_one()


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


def factor_place_in_tower(place: Place, r: int, n: int, ctx: FieldCtx,
                          seed: int = 0) -> list[tuple[Place, int, int]]:
    """Places above a place of F_q(t) in F_q(s) with t = s^(r^n).

    Returns [(place above, e, f)] with e the ramification index and f the
    residue degree; the local degrees satisfy sum(e_i * f_i) = r^n.
    """
    if not is_prime(r) or r == ctx.p:
        raise BadEll(f"r = {r} must be a prime different from p = {ctx.p}")
    if n < 0:
        raise ValueError("tower level must be >= 0")
    if n == 0:
        return [(place, 1, 1)]
    m = r ** n
    if place.is_infinite:
        return [(place, m, 1)]
    composed = place.poly.compose_monomial(m)
    base_deg = place.poly.degree()
    out = []
    for irr, mult in factor(composed, seed=seed):
        out.append((Place(irr), mult, irr.degree() // base_deg))
    out.sort(key=lambda t: (t[0].sort_key(),))
    assert sum(e * f for _, e, f in out) == m
    return out


def boundedness_probe(place: Place, r: int, ell: int, n_max: int,
                      ctx: FieldCtx, seed: int = 0) -> bool:
    """Depth-first search for a chain of places up the s -> s^(1/r) tower
    whose stepwise local degrees e*f all avoid divisibility by ell.

    True exactly when such a chain reaches level n_max; branches with small
    local degree are explored first, so split chains are found immediately.
    """
    if not is_prime(ell) or ell == ctx.p or ell == r:
        raise BadEll(f"l = {ell} must be a prime outside {{p, r}}")

    def search(current: Place, depth: int) -> bool:
        if depth == n_max:
            return True
        options = factor_place_in_tower(current, r, 1, ctx, seed=seed)
        options.sort(key=lambda t: (t[1] * t[2], t[0].sort_key()))
        for above, e, f in options:
            if (e * f) % ell != 0 and search(above, depth + 1):
                return True
        return False

    return search(place, 0)
