"""Exact base algebra: F_{p^a}, F_q[s], F_q(s), places and tower splitting."""

from .fields import FF, FieldCtx, field_ctx
from .grammar import (format_place, format_point, format_poly, format_ratfunc,
                      parse_place, parse_point, parse_poly, parse_ratfunc)
from .intarith import euler_phi, factorint, is_prime, multiplicative_order
from .poly import (NEG_INF, Poly, all_polys, crt, factor, irreducibles,
                   irreducibles_stream, is_irreducible, poly_ext_gcd, poly_gcd,
                   poly_lcm, polys_of_degree, squarefree_decomposition)
from .places import (Place, ResidueField, boundedness_probe,
                     factor_place_in_tower, place_data, valuation)
from .ratfunc import RatFunc, is_nth_power, ratfunc_sqrt

__all__ = [
    "FF", "FieldCtx", "field_ctx",
    "NEG_INF", "Poly", "all_polys", "crt", "factor", "irreducibles",
    "irreducibles_stream", "is_irreducible", "poly_ext_gcd", "poly_gcd",
    "poly_lcm", "polys_of_degree", "squarefree_decomposition",
    "Place", "ResidueField", "boundedness_probe", "factor_place_in_tower",
    "place_data", "valuation",
    "RatFunc", "is_nth_power", "ratfunc_sqrt",
    "euler_phi", "factorint", "is_prime", "multiplicative_order",
    "format_place", "format_point", "format_poly", "format_ratfunc",
    "parse_place", "parse_point", "parse_poly", "parse_ratfunc",
]
