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

verify_descent_lemma drives the two three-step adjunction towers

    seeded by x:  l-th roots of 1 + 1/x, 1 + 1/(b*x^l + b^l), 1 + (c + 1/c)/x
    seeded by d:  l-th roots of 1 + 1/d, 1 + 1/(d*x^l + d^l), 1 + (a + 1/a)/d

evaluating the selected lemma's hypotheses at the base place and its
conclusion at every terminal state of every allowed branch.  The
divisibility lemmas state that every tracked valuation becomes divisible
by l at non-pole places of the seed; the obstruction lemmas state that
under the negative-valuation hypotheses the middle combination keeps a
nondivisible valuation and the unit keeps its non-power residue class.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
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
    v = valuation(b, place)
    if v % ell != 0:
        return KummerCase.TOTALLY_RAMIFIED
    rf = ResidueField(ctx, place)
    unit = rf.reduce_unit_part(b)
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
        v = valuation(x, place)
        vals[label] = v
        if v == 0:
            residues[label] = rf.reduce(x)
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
    if case is KummerCase.TOTALLY_RAMIFIED:
        vals = {k: v * ell for k, v in state.vals.items()}
        return PlaceState(state.residue_field, state.e_total * ell,
                          state.f_total, vals, dict(state.residues))
    if case is KummerCase.INERT_DEGREE_L:
        return PlaceState(state.residue_field, state.e_total,
                          state.f_total * ell, dict(state.vals), dict(state.residues))
    return state


def _walk_branches(base: PlaceState, adjunction_labels: list[str], ell: int) -> list[PlaceState]:
    """All terminal states of the tower walk over every allowed branch."""
    frontier = [base]
    for label in adjunction_labels:
        nxt = []
        for st in frontier:
            for case in _step_cases(st, label, ell):
                nxt.append(descend(st, label, ell, case))
        frontier = nxt
    return frontier


def _nonzero(x: RatFunc, name: str) -> RatFunc:
    if x.is_zero():
        raise ZeroInput(f"{name} must be nonzero")
    return x


def _tower_elements(kind: str, inputs: dict, ell: int, ctx: FieldCtx) -> tuple[dict, list[str]]:
    """Tracked elements and adjunction order for the x-seeded or d-seeded
    tower, built from the (seed, coefficient, unit) labels (x, b, c) or
    (d, d, a); every tracked element is checked nonzero here."""
    labels = ("x", "b", "c") if kind == "x" else ("d", "d", "a")
    checked = {label: _nonzero(inputs[label], label) for label in dict.fromkeys(("x",) + labels)}
    x = checked["x"]
    seed, coef, unit = (checked[label] for label in labels)
    _, coef_label, unit_label = labels
    w = _nonzero(coef * x ** ell + coef ** ell, f"{coef_label}*x^l + {coef_label}^l")
    unit_sum = _nonzero(unit + unit.inv(), f"{unit_label} + 1/{unit_label}")
    one = RatFunc.one(ctx)
    elements = {
        **checked, "w": w,
        "u1": one + seed.inv(),
        "u2": one + w.inv(),
        "u3": one + unit_sum * seed.inv(),
    }
    for label in ("u1", "u2", "u3"):
        _nonzero(elements[label], label)
    return elements, ["u1", "u2", "u3"]


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


def verify_descent_lemma(which: str, inputs: dict, ell: int, place: Place,
                          ctx: FieldCtx) -> LemmaVerdict:
    """Check one of the four local descent lemmas at a place by simulation.

    which is 'obstruction_x' or 'divisibility_x' for the tower seeded by x
    (inputs x, b, c), 'obstruction_d' or 'divisibility_d' for the tower
    seeded by d (inputs x, d, a).  Hypotheses are evaluated at the base
    place; the conclusion is evaluated at every terminal state of every
    allowed branch of the three-step walk.  The divisibility lemmas carry
    no hypotheses beyond the place not being a pole of the seed; the
    obstruction lemmas require the seed data listed in the report.
    """
    _require_zeta(ell, ctx)
    if which in ("obstruction_x", "divisibility_x"):
        kind, main, unit_label = "x", "x", "c"
    elif which in ("obstruction_d", "divisibility_d"):
        kind, main, unit_label = "d", "d", "a"
    else:
        raise ValueError(f"unknown lemma {which!r}")
    elements, order = _tower_elements(kind, inputs, ell, ctx)
    base = state_from_elements(place, ctx, elements)
    rf = base.residue_field

    report: dict = {"v_" + k: base.vals[k] for k in elements}
    if which.startswith("divisibility"):
        if base.vals[main] < 0:
            raise PoleViolation(f"place is a pole of {main}")
        hypotheses = True
    else:
        v_unit = base.vals[unit_label]  # c for the x tower, a for the d tower
        unit_ok = (v_unit == 0
                   and not rf.is_nth_power(base.residues[unit_label], ell))
        if which == "obstruction_x":
            clauses = {
                "unit_not_lth_power": unit_ok,
                "v_x_negative": base.vals["x"] < 0,
                "v_b_not_divisible": base.vals["b"] % ell != 0,
                "margin": base.vals["b"] + ell * base.vals["x"] < ell * base.vals["b"],
                "v_b_negative": base.vals["b"] < 0,
            }
        else:
            clauses = {
                "v_d_negative": base.vals["d"] < 0,
                "margin": base.vals["d"] + ell * base.vals["x"] < ell * base.vals["d"],
                "unit_not_lth_power": unit_ok,
                "v_d_not_divisible": base.vals["d"] % ell != 0,
            }
        report.update(clauses)
        hypotheses = all(clauses.values())

    terminals = _walk_branches(base, order, ell)
    if which.startswith("obstruction"):
        conclusion = all(
            st.vals["w"] % ell != 0 and not st.residue_is_lth_power(unit_label, ell)
            for st in terminals
        )
    else:
        conclusion = all(
            st.vals[main] % ell == 0 and st.vals["w"] % ell == 0
            and st.vals[unit_label] % ell == 0
            for st in terminals
        )
    return LemmaVerdict(which, hypotheses, conclusion, report, len(terminals))


def s_local_conditions(c: RatFunc, x: RatFunc, d: RatFunc, ell: int,
                       places: list[Place], ctx: FieldCtx) -> tuple[bool, bool]:
    """(theta, b_margin) over the place set S.

    theta:    v_P(c - 1) > 0 at every P in S;
    b_margin: v_P(d * x^l) > v_P(d^l) at every P in S.
    Vanishing elements count as satisfying the strict inequalities.
    """
    if not places:
        raise ValueError("S must be nonempty")
    cm1 = c - RatFunc.one(ctx)
    lhs = d * x ** ell
    rhs = d ** ell
    theta = True
    margin = True
    for place in places:
        if not cm1.is_zero() and valuation(cm1, place) <= 0:
            theta = False
        if rhs.is_zero():
            margin = False  # d = 0: both valuations infinite, strictness fails
        elif not lhs.is_zero() and valuation(lhs, place) <= valuation(rhs, place):
            margin = False
    return theta, margin
