"""Local analysis of degree-l Kummer steps and a valuation-descent simulator.

kummer_case classifies a place P of K = F_q(s) in K(b^(1/l)) when zeta_l
lies in K: totally ramified exactly when v_P(b) is not divisible by l,
otherwise split or inert according to whether the unit part of b is an l-th
power in the residue field.  Each case fixes the local norm group.

The simulator never constructs the radical extensions as fields: a
PlaceState carries the residue field size and the valuations/residues of a
set of labelled elements of K, and one Kummer adjunction transforms it:
ramified multiplies all valuations by l, inert raises the residue size to
its l-th power, split is the identity.  For elements of K this data stays
exact at every level; the only indeterminacy is split-versus-inert when the
adjoined element has nonzero valuation divisible by l (its unit-part class
at the extension place is not determined by base data), and there the walk
branches over both cases.

verify_descent_lemma drives the three-step adjunction tower

    l-th roots of 1 + 1/seed, 1 + 1/(coef*x^l + coef^l), 1 + (unit + 1/unit)/seed

with (seed, coef, unit) = (x, b, c) for the tower seeded by x and (d, d, a)
for the tower seeded by d (the table _LEMMAS), evaluating the selected lemma's hypotheses at the base place and its
conclusion at every terminal state of every allowed branch.  The
divisibility lemmas state that every tracked valuation becomes divisible
by l at non-pole places of the seed; the obstruction lemmas state that
under the negative-valuation hypotheses the middle combination keeps a
nondivisible valuation and the unit keeps its non-power residue class.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from math import gcd

from .base_algebra.fields import FieldCtx
from .base_algebra.places import Place, ResidueField, valuation
from .base_algebra.poly import Poly
from .base_algebra.ratfunc import RatFunc, is_nth_power
from .base_algebra.intarith import is_prime
from .errors import (BadEll, LthPowerInput, PoleViolation, UntrackedLabel,
                     ZeroInput, ZetaMissing)


class KummerCase(enum.Enum):
    TOTALLY_RAMIFIED = "totally_ramified"
    INERT_DEGREE_L = "inert_degree_l"
    SPLIT = "split"


NORM_GROUPS = {
    KummerCase.TOTALLY_RAMIFIED: "generated by b together with the l-th powers",
    KummerCase.INERT_DEGREE_L: "elements of valuation divisible by l",
    KummerCase.SPLIT: "the full local multiplicative group",
}


def _require_zeta(ell: int, ctx: FieldCtx):
    if not is_prime(ell) or gcd(ell, ctx.p) != 1:
        raise BadEll(f"l = {ell} must be a prime coprime to p = {ctx.p}")
    if (ctx.q - 1) % ell != 0:
        raise ZetaMissing(f"l = {ell} does not divide q - 1 = {ctx.q - 1}")


def kummer_case(b: RatFunc, place: Place, ell: int, ctx: FieldCtx) -> KummerCase:
    """Case of a place in the degree-l radical extension by b."""
    _require_zeta(ell, ctx)
    if b.is_zero():
        raise ZeroInput("b must be nonzero")
    if is_nth_power(b, ell):
        raise LthPowerInput("b is an l-th power; the extension is trivial")
    rf = ResidueField(ctx, place)
    v, unit = rf.unit_part(b)
    if v % ell != 0:
        return KummerCase.TOTALLY_RAMIFIED
    if rf.is_nth_power(unit, ell):
        return KummerCase.SPLIT
    return KummerCase.INERT_DEGREE_L


@dataclass(frozen=True)
class PlaceState:
    """Snapshot of a place during a Kummer tower walk.

    residue_field is the residue field of the base place; the current
    residue field is its extension of degree f_total, so the current size
    is Q0^f_total.  vals and residues are keyed by element label; a residue
    is tracked only for labels of valuation zero and lives in the base
    residue field (every tracked element lies in the base function field).
    """

    residue_field: ResidueField
    e_total: int
    f_total: int
    vals: dict
    residues: dict

    @property
    def Q(self) -> int:
        return self.residue_field.size ** self.f_total

    def val(self, label: str) -> int:
        if label not in self.vals:
            raise UntrackedLabel(label)
        return self.vals[label]

    def residue(self, label: str) -> Poly:
        if label not in self.residues:
            raise UntrackedLabel(label)
        return self.residues[label]

    def residue_is_lth_power(self, label: str, ell: int) -> bool:
        return self.residue_field.is_nth_power(self.residue(label), ell, self.f_total)


def state_from_elements(place: Place, ctx: FieldCtx, elements: dict) -> PlaceState:
    """Base-level state tracking the given labelled nonzero rational functions."""
    rf = ResidueField(ctx, place)
    vals = {}
    residues = {}
    for label, x in elements.items():
        if x.is_zero():
            raise ZeroInput(f"tracked element {label} is zero")
        v, residue = rf.unit_part(x)
        vals[label] = v
        if v == 0:
            residues[label] = residue
    return PlaceState(rf, 1, 1, vals, residues)


def _step_cases(state: PlaceState, label: str, ell: int) -> list[KummerCase]:
    """Cases one adjunction by the labelled element allows at this place."""
    v = state.val(label)
    if v % ell != 0:
        return [KummerCase.TOTALLY_RAMIFIED]
    if v == 0:
        if state.residue_is_lth_power(label, ell):
            return [KummerCase.SPLIT]
        return [KummerCase.INERT_DEGREE_L]
    # v = 0 mod l but nonzero: the unit-part class is not determined here
    return [KummerCase.SPLIT, KummerCase.INERT_DEGREE_L]


def descend(state: PlaceState, b_label: str, ell: int,
            case: KummerCase | None = None) -> PlaceState:
    """One Kummer adjunction by the tracked element b_label.

    When the tracked data determines the case it is applied directly; in the
    ambiguous situation (valuation nonzero but divisible by l) the caller
    must select the branch explicitly via `case`.
    """
    allowed = _step_cases(state, b_label, ell)
    if case is None:
        if len(allowed) > 1:
            raise ValueError(
                f"split/inert undetermined for {b_label}; pass case= explicitly")
        case = allowed[0]
    elif case not in allowed:
        raise ValueError(f"case {case} not allowed for {b_label} here")
    return _apply_case(state, case, ell)


def _apply_case(state: PlaceState, case: KummerCase, ell: int) -> PlaceState:
    """The state above an adjunction of degree ell that has the given case."""
    if case is KummerCase.TOTALLY_RAMIFIED:
        return replace(state, e_total=state.e_total * ell,
                       vals={k: v * ell for k, v in state.vals.items()})
    if case is KummerCase.INERT_DEGREE_L:
        return replace(state, f_total=state.f_total * ell)
    return state


def _walk_branches(base: PlaceState, adjunction_labels: list[str], ell: int) -> list[PlaceState]:
    """All terminal states of the tower walk over every allowed branch."""
    frontier = [base]
    for label in adjunction_labels:
        frontier = [_apply_case(st, case, ell)
                    for st in frontier for case in _step_cases(st, label, ell)]
    return frontier


def _nonzero(x: RatFunc, name: str) -> RatFunc:
    if x.is_zero():
        raise ZeroInput(f"{name} must be nonzero")
    return x


@dataclass
class LemmaVerdict:
    lemma: str
    hypotheses_hold: bool
    conclusion_holds: bool
    hypothesis_report: dict
    branch_count: int

    def as_record(self) -> dict:
        return {"lemma": self.lemma, "hypotheses_hold": self.hypotheses_hold,
                "conclusion_holds": self.conclusion_holds,
                "hypotheses": self.hypothesis_report, "branches": self.branch_count}


# The (seed, coefficient, unit) labels of each lemma's tower.
_LEMMAS = {"obstruction_x": ("x", "b", "c"), "divisibility_x": ("x", "b", "c"),
           "obstruction_d": ("d", "d", "a"), "divisibility_d": ("d", "d", "a")}


def verify_descent_lemma(which: str, inputs: dict, ell: int, place: Place,
                          ctx: FieldCtx) -> LemmaVerdict:
    """Check one of the four local descent lemmas at a place by simulation.

    which is 'obstruction_x' or 'divisibility_x' for the tower seeded by x
    (inputs x, b, c), 'obstruction_d' or 'divisibility_d' for the tower
    seeded by d (inputs x, d, a); a missing input raises ValueError, a zero
    tracked element ZeroInput.  Hypotheses are evaluated at the base
    place; the conclusion is evaluated at every terminal state of every
    allowed branch of the three-step walk.  The divisibility lemmas carry
    no hypotheses beyond the place not being a pole of the seed; the
    obstruction lemmas require the seed data listed in the report.
    """
    _require_zeta(ell, ctx)
    if which not in _LEMMAS:
        raise ValueError(f"unknown lemma {which!r}")
    seed_label, coef_label, unit_label = _LEMMAS[which]
    labels = ("x", seed_label, coef_label, unit_label)
    missing = [label for label in dict.fromkeys(labels) if label not in inputs]
    if missing:
        raise ValueError(f"{which} needs the inputs {', '.join(missing)}")
    elements = {label: _nonzero(inputs[label], label) for label in dict.fromkeys(labels)}
    x, seed, coef, unit = (elements[label] for label in labels)
    w = _nonzero(coef * x ** ell + coef ** ell, f"{coef_label}*x^l + {coef_label}^l")
    unit_sum = _nonzero(unit + unit.inv(), f"{unit_label} + 1/{unit_label}")
    one = RatFunc.one(ctx)
    elements.update(w=w, u1=one + seed.inv(), u2=one + w.inv(), u3=one + unit_sum * seed.inv())
    for label in ("u1", "u2", "u3"):
        _nonzero(elements[label], label)
    base = state_from_elements(place, ctx, elements)
    vals = base.vals

    report: dict = {"v_" + k: v for k, v in vals.items()}
    if which.startswith("divisibility"):
        if vals[seed_label] < 0:
            raise PoleViolation(f"place is a pole of {seed_label}")
        hypotheses = True
    else:
        # for the d tower seed and coefficient are both d, so the two
        # "negative" clauses are one
        clauses = {
            "unit_not_lth_power": (vals[unit_label] == 0
                                   and not base.residue_is_lth_power(unit_label, ell)),
            f"v_{seed_label}_negative": vals[seed_label] < 0,
            f"v_{coef_label}_negative": vals[coef_label] < 0,
            f"v_{coef_label}_not_divisible": vals[coef_label] % ell != 0,
            "margin": vals[coef_label] + ell * vals["x"] < ell * vals[coef_label],
        }
        report.update(clauses)
        hypotheses = all(clauses.values())

    terminals = _walk_branches(base, ["u1", "u2", "u3"], ell)
    if which.startswith("obstruction"):
        conclusion = all(
            st.vals["w"] % ell != 0 and unit_label in st.residues
            and not st.residue_is_lth_power(unit_label, ell)
            for st in terminals
        )
    else:
        conclusion = all(st.vals[label] % ell == 0
                         for st in terminals for label in (seed_label, "w", unit_label))
    return LemmaVerdict(which, hypotheses, conclusion, report, len(terminals))


def s_local_conditions(c: RatFunc, x: RatFunc, d: RatFunc, ell: int,
                       places: list[Place], ctx: FieldCtx) -> tuple[bool, bool]:
    """(theta, b_margin) over the place set S.

    theta:    v_P(c - 1) > 0 at every P in S;
    b_margin: v_P(d * x^l) > v_P(d^l) at every P in S, as v(d) + l*v(x) > l*v(d).
    Vanishing elements count as satisfying the strict inequalities; at
    d = 0 both sides are infinite and strictness fails.
    """
    if not places:
        raise ValueError("S must be nonempty")
    cm1 = c - RatFunc.one(ctx)
    theta = True
    margin = bool(d)
    for place in places:
        if cm1 and valuation(cm1, place) <= 0:
            theta = False
        if margin and x:
            vd = valuation(d, place)
            margin = vd + ell * valuation(x, place) > ell * vd
    return theta, margin
