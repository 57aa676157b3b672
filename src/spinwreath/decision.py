"""Existence decisions for surjective strategies.

The theorem comes first: p-groups for one prime always win, by a verified
construction.  Then the base facts (``AbelianClassification``, and
``SylowSwap`` for two swapped copies of a G that is not a 2-group), then
the reductions (switch quotients, orbit restrictions to a subgroup of H on
one orbit or every position) look for a certificate of nonexistence, and
last one belief search of the whole context; ``decide_by_search`` alone
turns a search, of the whole or of a reduction's leaf, into a verdict.  An
independent checker validates certificates by every hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import compress, product
from operator import or_
from typing import Optional, Tuple, Union

from . import groups
from .actions import GroupAction, WreathContext, coordinate_map
from .errors import (BaseCaseVerificationFailed, BudgetExceeded,
                     NonFaithfulAction, NotSamePrime)
from .groups import (
    FiniteGroup,
    Homomorphism,
    Subgroup,
    TRIVIAL_P,
    all_subgroups,
    p_group_prime,
    quotient,
    same_prime,
    subgroup_as_group,
)
from .strategies import Strategy, verify
from .synthesis import SearchStats, construct_pgroup, search_belief_path

EXHAUSTIVE_LEAF_K_CAP = 2 ** 12
DEFAULT_CERT_DEPTH = 3


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbelianClassification:
    """Leaf: elementary abelian p-group switches spun faithfully by a q-group."""

    p_switch: int
    q_spin: int

    def describe(self):
        return f"AbelianClassification(p={self.p_switch}, q={self.q_spin})"


@dataclass(frozen=True)
class SylowSwap:
    """Leaf: two swapped copies of a group G whose order is not a power of 2.

    Let H = C2 swap two positions, with win set {e} and spins every turn.
    Take a Sylow 2-subgroup P of G, F_P = {(a, b) : a⁻¹b ∉ P}, and the
    family {F_P : P ∈ Syl_2(G)}.  F_P is nonempty, since P ≠ G, and misses
    (e, e), so the initial belief contains it.  The move (x, y) sends F_P
    to {(u, v) : u⁻¹v ∉ T} with T = x⁻¹Py; closed under the swap and with
    (e, e) dropped, that is {(u, v) : u⁻¹v ∉ T ∩ T⁻¹} minus (e, e).
    Conjugation by x turns T ∩ T⁻¹ into Pc ∩ c⁻¹P, with c = yx⁻¹.  Fix x0
    in Pc ∩ c⁻¹P and let D = P ∩ c⁻¹Pc: for every member x, x0⁻¹x lies in
    D; conjugation by x0 swaps P and c⁻¹Pc, so x0 normalizes D, and x0²
    lies in D.  So Pc ∩ c⁻¹P lies in D ∪ x0·D, a 2-group, and by Sylow's
    theorem in some Sylow P''.  Then F_{x⁻¹P''x} lies inside the step:
    the family is closed, and the argument of ``ExhaustiveBeliefSearch``
    gives "no".
    """

    order: int

    def describe(self):
        return f"SylowSwap(|G|={self.order})"


@dataclass(frozen=True)
class ExhaustiveBeliefSearch:
    """Leaf: an antichain of belief masks closed under every move, up to
    containment.

    ``beliefs`` is the inductive invariant of an exhausted belief search,
    the ⊆-minimal masks it entered: no member is empty, the initial belief
    contains a member, and so does the every-turn step of each member by
    each move of K.  The step is monotone, so every belief a strategy can
    reach contains a nonempty member, and no strategy wins.
    """

    context_label: str
    beliefs: frozenset = field(repr=False)

    def describe(self):
        return (f"ExhaustiveBeliefSearch({self.context_label}, "
                f"sets={len(self.beliefs)})")


@dataclass(frozen=True)
class SwitchQuotient:
    """Reduce the switches through a surjection G -> G/N."""

    phi: Homomorphism
    child: "Certificate"

    def describe(self):
        return f"SwitchQuotient({self.phi.source.name} -> {self.phi.target.name})"


@dataclass(frozen=True)
class OrbitRestriction:
    """Restrict to the orbit of one position, every position included,
    under an embedded subgroup."""

    embedding: Homomorphism  # H0 -> H, injective
    omega: int
    orbit: Tuple[int, ...]
    child: "Certificate"

    def describe(self):
        return (f"OrbitRestriction(omega={self.omega}, "
                f"orbit={{{','.join(map(str, self.orbit))}}}, "
                f"{self.embedding.source.name} <= {self.embedding.target.name})")


Certificate = Union[AbelianClassification, SylowSwap,
                    ExhaustiveBeliefSearch, SwitchQuotient, OrbitRestriction]


def render_certificate(cert: Certificate, indent: int = 0) -> str:
    pad = "  " * indent
    line = pad + cert.describe()
    child = getattr(cert, "child", None)
    if child is None:
        return line
    return line + "\n" + render_certificate(child, indent + 1)


@dataclass(frozen=True)
class DecisionResult:
    verdict: str  # "yes" | "no" | "unknown"
    strategy: Optional[Strategy] = None
    certificate: Optional[Certificate] = None
    states_explored: int = 0
    conjectural: bool = False
    message: str = ""

    @property
    def exit_code(self) -> int:
        return {"yes": 0, "no": 3, "unknown": 4}[self.verdict]


# ---------------------------------------------------------------------------
# helper constructions on contexts
# ---------------------------------------------------------------------------

def _restricted_action(action: GroupAction, members: Tuple[int, ...],
                       positions: Tuple[int, ...]) -> GroupAction:
    """The action of a subgroup of H on a sub-orbit of Omega."""
    pos = {w: i for i, w in enumerate(positions)}
    act = tuple(
        tuple(pos[action.act[h][w]] for w in positions) for h in members
    )
    h0 = subgroup_as_group(Subgroup(parent=action.h_group, members=members))
    return GroupAction(h_group=h0, omega_size=len(positions), act=act,
                       name=f"{action.name}|{len(positions)}pts")


def _embedding_hom(h: FiniteGroup, members: Tuple[int, ...]) -> Homomorphism:
    h0 = subgroup_as_group(Subgroup(parent=h, members=members))
    return Homomorphism(source=h0, target=h, map=tuple(members))


def _orbit(action: GroupAction, members: Tuple[int, ...], omega: int
           ) -> Tuple[int, ...]:
    return tuple(sorted({action.act[h][omega] for h in members}))


# ---------------------------------------------------------------------------
# the abelian classification oracle
# ---------------------------------------------------------------------------

def classify_abelian(g: FiniteGroup, action: GroupAction) -> DecisionResult:
    """Verdict for abelian switches: solvable iff G or H is trivial or both
    are p-groups for one prime.

    A "no" carries an ``AbelianClassification`` leaf only where the leaf's
    own hypotheses hold: G elementary abelian of exponent p, H a q-group
    with q != p.
    """
    groups.require_abelian(g)
    action.require_faithful()
    p = p_group_prime(g)
    q = p_group_prime(action.h_group)
    if TRIVIAL_P in (p, q):
        return DecisionResult(verdict="yes",
                              message="trivial switches or trivial spins")
    if p is not None and p == q:
        return DecisionResult(verdict="yes",
                              message="both p-groups for one prime")
    return DecisionResult(verdict="no", certificate=_abelian_leaf(g, action),
                          message="prime mismatch between switches and spins")


def _abelian_leaf(g: FiniteGroup, action: GroupAction
                  ) -> Optional[AbelianClassification]:
    """The leaf where its hypotheses hold: G a vector space over F_p spun
    faithfully by a q-group, q != p; else None."""
    p = _is_elementary_abelian(g)
    if p is None or not action.is_faithful():
        return None
    q = p_group_prime(action.h_group)
    if q in (None, TRIVIAL_P, p):
        return None
    return AbelianClassification(p_switch=p, q_spin=q)


def _sylow_leaf(g: FiniteGroup, action: GroupAction) -> Optional[SylowSwap]:
    """The leaf where its hypotheses hold: G a group whose order is not a
    power of 2, spun by the faithful swap of two positions; else None."""
    if (g.is_associative and p_group_prime(g) not in (2, TRIVIAL_P)
            and action.h_group.order == 2 and action.omega_size == 2
            and action.is_faithful()):
        return SylowSwap(order=g.order)
    return None


def _is_elementary_abelian(g: FiniteGroup) -> Optional[int]:
    """The prime p if G is a nontrivial vector space over F_p, else None."""
    if g.order == 1 or not g.is_abelian():
        return None
    p = p_group_prime(g)
    if p is None or p == TRIVIAL_P:
        return None
    if all(g.element_order(x) == p for x in range(1, g.order)):
        return p
    return None


# ---------------------------------------------------------------------------
# nonexistence certificates
# ---------------------------------------------------------------------------

def find_nonexistence_certificate(ctx: WreathContext,
                                  *, stats: Optional[SearchStats] = None
                                  ) -> Optional[Certificate]:
    """The reductions: switch quotients, then orbit restrictions (one orbit
    of a proper subgroup of H, or every position for a transitive one),
    ``DEFAULT_CERT_DEPTH`` deep, down to a base fact or exhaustive leaf.
    A sub-context of p-groups for one prime, either possibly trivial, has
    a strategy by the theorem and is skipped: Z8 wr C4 costs no state.

    Only valid for ordinary group contexts with the default winning state.
    The whole context is never searched here (``decide_existence`` does
    that).  The leaves count their belief states into ``stats``; a leaf
    that runs out of budget gives up, so the search returns None rather
    than raise.
    """
    if ctx.loop_mode or ctx.win_set != frozenset({0}):
        return None
    stats = stats if stats is not None else SearchStats()
    return _reduce(ctx.g_group, ctx.action, DEFAULT_CERT_DEPTH, stats)


def _prove_no(g: FiniteGroup, action: GroupAction, depth: int,
              stats: SearchStats) -> Optional[Certificate]:
    if same_prime(g, action.h_group):  # solvable: it has no certificate
        return None
    return _reduce(g, action, depth, stats) or _exhaust(g, action, stats)


def _reduce(g: FiniteGroup, action: GroupAction, depth: int,
            stats: SearchStats) -> Optional[Certificate]:
    """The base facts, then every reduction to a smaller context."""
    leaf = _abelian_leaf(g, action) or _sylow_leaf(g, action)
    if leaf is not None or depth == 0 or not g.is_associative:
        return leaf
    h = action.h_group

    # switch quotients, smallest quotient first
    if g.order <= groups.DEFAULT_SUBGROUP_ORDER_BOUND:
        normals = [s for s in groups.normal_subgroups(g)
                   if 1 < len(s.members) < g.order]
        for n in sorted(normals, key=lambda s: -len(s.members)):
            quot, _reps, proj = quotient(g, n)
            child = _prove_no(quot, action, depth - 1, stats)
            if child is not None:
                return SwitchQuotient(phi=proj, child=child)

    if h.order > groups.DEFAULT_SUBGROUP_ORDER_BOUND:
        return None
    subs = [tuple(sorted(s)) for s in all_subgroups(h) if 1 < len(s) < h.order]
    subs.sort(key=lambda members: (len(members), members))

    # orbit restrictions: each orbit of a proper subgroup, every position
    # for a transitive one; disjoint orbits sort by their least position
    for members in subs:
        for orbit in sorted({_orbit(action, members, w)
                             for w in range(action.omega_size)}):
            sub_action = _restricted_action(action, members, orbit)
            child = _prove_no(g, sub_action, depth - 1, stats)
            if child is not None:
                return OrbitRestriction(embedding=_embedding_hom(h, members),
                                        omega=orbit[0], orbit=orbit,
                                        child=child)
    return None


def _exhaust(g: FiniteGroup, action: GroupAction,
             stats: SearchStats) -> Optional[Certificate]:
    """Leaf: ``decide_by_search``'s certificate for a small sub-context
    that ``_prove_no`` has not skipped as a p-group for one prime."""
    if g.order ** action.omega_size > EXHAUSTIVE_LEAF_K_CAP:
        return None
    ctx = WreathContext(g_group=g, action=action, allow_non_faithful=True)
    return decide_by_search(ctx, stats=stats).certificate


# ---------------------------------------------------------------------------
# independent certificate validation
# ---------------------------------------------------------------------------

def validate_certificate(ctx: WreathContext, cert: Certificate) -> bool:
    """Re-check every hypothesis of the certificate against the context.

    An ``ExhaustiveBeliefSearch`` leaf is checked by the closure of the
    family it carries, in |family| x |K| steps and no search.  At the root
    it is checked under the context's own win set, loop switches included:
    its argument needs the step alone, not associativity.  The other
    certificates rest on group theory and the win set {0}; ``SylowSwap`` is
    checked from |G| and the action table, in O(|G| + |H|).
    """
    if isinstance(cert, ExhaustiveBeliefSearch):
        return _is_closed_family(ctx.g_group, ctx.action, cert.beliefs,
                                 ctx.win_set)
    if ctx.loop_mode or ctx.win_set != frozenset({0}):
        return False
    return _validate_node(ctx.g_group, ctx.action, cert)


def _validate_node(g: FiniteGroup, action: GroupAction,
                   cert: Certificate) -> bool:
    if isinstance(cert, AbelianClassification):
        p = _is_elementary_abelian(g)
        if p is None or p != cert.p_switch:
            return False
        if not action.is_faithful():
            return False
        q = p_group_prime(action.h_group)
        return q == cert.q_spin and q not in (None, TRIVIAL_P, p)

    if isinstance(cert, SylowSwap):
        # the order and the action table alone, which has one row per
        # element of H; associativity rests on the root's guard against
        # loops
        n = g.order
        return (cert.order == n and n & (n - 1) != 0
                and action.act == ((0, 1), (1, 0)))

    if isinstance(cert, ExhaustiveBeliefSearch):
        return _is_closed_family(g, action, cert.beliefs)

    if isinstance(cert, SwitchQuotient):
        phi = cert.phi
        if phi.source != g or not phi.surjective or not phi.check():
            return False
        return _validate_node(phi.target, action, cert.child)

    if isinstance(cert, OrbitRestriction):
        emb = cert.embedding
        if (emb.target != action.h_group or not emb.is_injective()
                or not emb.check()):
            return False
        members = tuple(sorted(emb.map))
        if _orbit(action, members, cert.omega) != cert.orbit:
            return False
        sub_action = _restricted_action(action, members, cert.orbit)
        return _validate_node(g, sub_action, cert.child)

    return False


def _is_closed_family(g: FiniteGroup, action: GroupAction, family: frozenset,
                      win_set: frozenset = frozenset({0})) -> bool:
    """True iff ``family`` holds only nonempty masks over K, the initial
    belief of G wr H contains a member, and the every-turn step of each
    member by each move of K contains a member.  The step is monotone, so
    then every belief reachable by some move sequence contains a member,
    and none is empty.

    Built from ``g.mul`` and ``action.act`` alone, so that it shares no code
    with the belief kernel or the search that made the leaf, and every move
    is checked (no orbit argument).  A move's image list over K sends s to
    the mask of the H-orbit of s * move, or to 0 when s * move is in
    ``win_set``, and a mask steps to the OR of its members' images.  The
    moves are walked as digit tuples, each digit a column x -> x * c of
    ``g.mul``; each list is one coordinate map, dropped after its move, so
    no |K| x |K| table is kept.
    """
    n, m = g.order, action.omega_size
    k = n ** m
    if not all(0 < f < 1 << k for f in family):
        return False

    def holds_a_member(mask):
        outside = ~mask
        return any(not f & outside for f in family)

    if not holds_a_member((1 << k) - 1 - sum(1 << s for s in win_set)):
        return False
    # a row sends the digit at coordinate w to coordinate row[w]; the rows
    # are the whole image of H, so their images of t are the orbit of t
    spun = [coordinate_map(n, [range(n)] * m, row) for row in set(action.act)]
    orbit = [0 if t in win_set else reduce(or_, [1 << image[t]
                                                 for image in spun])
             for t in range(k)]
    # the states of each member, read off its binary digits once; they are
    # picked from one list, so the members share its int objects
    states = list(range(k))
    members = [list(compress(states, map("1".__eq__, reversed(f"{f:b}"))))
               for f in family]
    columns = [[row[c] for row in g.mul] for c in range(n)]
    for move in product(columns, repeat=m):
        image = list(map(orbit.__getitem__, coordinate_map(n, move)))
        for f in members:
            if not holds_a_member(reduce(or_, map(image.__getitem__, f))):
                return False
    return True


# ---------------------------------------------------------------------------
# the decision engine
# ---------------------------------------------------------------------------

def decide_existence(ctx: WreathContext,
                     *, spin_period: Optional[int] = None,
                     stats: Optional[SearchStats] = None) -> DecisionResult:
    """Decide whether a surjective strategy exists, by one fixed pipeline.

    For win set {0}, spins every turn and group switches: p-groups for one
    prime spun faithfully are answered by the verified p-group construction
    at any order of G (a broken one raises ``BaseCaseVerificationFailed``),
    then the reductions of ``find_nonexistence_certificate``.  What is left
    goes to one ``decide_by_search``.  ``certify`` validates this result's
    "no".
    The certificate leaves and the search count into one ``SearchStats``,
    so its ``limit`` caps the belief states of the whole decision.
    """
    stats = stats if stats is not None else SearchStats()
    if spin_period in (None, 1) and ctx.win_set == frozenset({0}) \
            and not ctx.loop_mode:
        try:
            return DecisionResult(verdict="yes", strategy=construct_pgroup(ctx),
                                  states_explored=stats.states_explored,
                                  message="p-group construction")
        except (NotSamePrime, NonFaithfulAction):
            pass
        cert = find_nonexistence_certificate(ctx, stats=stats)
        if cert is not None:
            return DecisionResult(verdict="no", certificate=cert,
                                  states_explored=stats.states_explored,
                                  message="nonexistence certificate found")
    return decide_by_search(ctx, spin_period=spin_period, stats=stats)


def decide_by_search(ctx: WreathContext, *, max_depth: Optional[int] = None,
                     spin_period: Optional[int] = None,
                     stats: Optional[SearchStats] = None) -> DecisionResult:
    """The verdict of one belief search over the whole context.

    A found path must pass ``verify`` (else ``BaseCaseVerificationFailed``);
    an exhausted graph gives "no", with an ``ExhaustiveBeliefSearch``
    certificate carrying the search's final antichain when spins come every
    turn.  Under a spin period above 1 those masks are not closed under the
    every-turn step the validator checks, so that "no" has no certificate.
    A spent ``stats.limit`` or a ``max_depth`` cut gives "unknown".  Loop-mode
    verdicts are flagged conjectural.
    """
    stats = stats if stats is not None else SearchStats()

    def result(verdict, message, **found):
        return DecisionResult(verdict=verdict, message=message,
                              states_explored=stats.states_explored,
                              conjectural=ctx.loop_mode, **found)

    try:
        path = search_belief_path(ctx, max_depth=max_depth,
                                  spin_period=spin_period, stats=stats)
    except BudgetExceeded:
        return result("unknown", "belief search budget exceeded")
    if path is not None:
        strat = Strategy(ctx=ctx, moves=path)
        if not verify(ctx, strat, spin_period=spin_period).valid:
            raise BaseCaseVerificationFailed(
                "belief search produced an invalid strategy")
        return result("yes", "belief search found a strategy", strategy=strat)
    if not stats.exhausted:
        return result("unknown", f"no strategy within depth {max_depth}")
    cert = (ExhaustiveBeliefSearch(context_label=ctx.name, beliefs=stats.beliefs)
            if spin_period in (None, 1) else None)
    return result("no", "belief graph exhausted", certificate=cert)


def min_spin_period(ctx: WreathContext, bound: int,
                    *, stats: Optional[SearchStats] = None) -> Optional[int]:
    """Smallest r <= bound allowing a win when spins happen every r turns.

    Every period's decision counts into one ``SearchStats``, so its
    ``limit`` caps the belief states of all of them together.
    """
    stats = stats if stats is not None else SearchStats()
    for r in range(1, bound + 1):
        result = decide_existence(ctx, spin_period=r, stats=stats)
        if result.verdict == "yes":
            return r
        if result.verdict == "unknown":
            raise BudgetExceeded(f"undecided at spin period {r}")
    return None
