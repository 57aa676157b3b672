"""Existence decisions for surjective strategies.

The theorem comes first: p-groups for one prime always win, by a verified
construction.  Then the reduction theorems (switch quotients, spin
subgroups, orbit restrictions) over small base facts look for a certificate
of nonexistence, and last one belief search of the whole context gives a
verified strategy or exhausts the graph.  Certificates are validated by an
independent checker that re-establishes every hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Optional, Tuple, Union

from . import groups
from .actions import GroupAction, WreathContext, gather
from .errors import (BaseCaseVerificationFailed, BudgetExceeded,
                     NonFaithfulAction, NotSamePrime, OrderBoundExceeded)
from .groups import (
    FiniteGroup,
    Homomorphism,
    Subgroup,
    TRIVIAL_P,
    all_subgroups,
    p_group_prime,
    quotient,
    subgroup_as_group,
)
from .strategies import Strategy, verify
from .synthesis import (DEFAULT_SEARCH_BUDGET, SearchStats, construct_pgroup,
                        search_belief_path)

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
class ExhaustiveBeliefSearch:
    """Leaf: the reachable belief graph was exhausted without reaching empty."""

    context_label: str
    states_explored: int

    def describe(self):
        return (f"ExhaustiveBeliefSearch({self.context_label}, "
                f"states={self.states_explored})")


@dataclass(frozen=True)
class SwitchQuotient:
    """Reduce the switches through a surjection G -> G/N."""

    phi: Homomorphism
    child: "Certificate"

    def describe(self):
        return f"SwitchQuotient({self.phi.source.name} -> {self.phi.target.name})"


@dataclass(frozen=True)
class SpinSubgroup:
    """Restrict the adversary to an embedded subgroup of H."""

    embedding: Homomorphism  # H0 -> H, injective
    child: "Certificate"

    def describe(self):
        return f"SpinSubgroup({self.embedding.source.name} <= {self.embedding.target.name})"


@dataclass(frozen=True)
class OrbitRestriction:
    """Restrict to the orbit of one position under an embedded subgroup."""

    embedding: Homomorphism  # H0 -> H, injective
    omega: int
    orbit: Tuple[int, ...]
    child: "Certificate"

    def describe(self):
        return (f"OrbitRestriction(omega={self.omega}, "
                f"orbit={{{','.join(map(str, self.orbit))}}}, "
                f"{self.embedding.source.name} <= {self.embedding.target.name})")


Certificate = Union[AbelianClassification, ExhaustiveBeliefSearch,
                    SwitchQuotient, SpinSubgroup, OrbitRestriction]


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
    sub = Subgroup(parent=action.h_group, members=members,
                   is_normal=False)
    h0 = subgroup_as_group(sub)
    return GroupAction(h_group=h0, omega_size=len(positions), act=act,
                       name=f"{action.name}|{len(positions)}pts")


def _embedding_hom(h: FiniteGroup, members: Tuple[int, ...]) -> Homomorphism:
    sub = Subgroup(parent=h, members=members, is_normal=False)
    h0 = subgroup_as_group(sub)
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
    cert = None
    if None not in (p, q) and _is_elementary_abelian(g) == p:
        cert = AbelianClassification(p_switch=p, q_spin=q)
    return DecisionResult(verdict="no", certificate=cert,
                          message="prime mismatch between switches and spins")


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
                                  *, budget: int = DEFAULT_SEARCH_BUDGET,
                                  depth: int = DEFAULT_CERT_DEPTH,
                                  stats: Optional[SearchStats] = None
                                  ) -> Optional[Certificate]:
    """Search quotients, orbit restrictions, and spin subgroups for a No proof.

    Only valid for ordinary group contexts with the default winning state.
    The exhaustive-search leaves add the belief states they explore to
    ``stats.states_explored``, and ``budget`` caps that running total, states
    the caller counted before included.  A leaf that runs out of budget
    gives up, so the search returns None rather than raise.
    """
    if ctx.loop_mode or ctx.win_set != frozenset({0}):
        return None
    stats = stats if stats is not None else SearchStats()
    return _prove_no(ctx.g_group, ctx.action, depth, budget, stats)


def _prove_no(g: FiniteGroup, action: GroupAction, depth: int, budget: int,
              stats: SearchStats) -> Optional[Certificate]:
    return (_reduce(g, action, depth, budget, stats)
            or _exhaust(g, action, budget, stats))


def _reduce(g: FiniteGroup, action: GroupAction, depth: int, budget: int,
            stats: SearchStats) -> Optional[Certificate]:
    """The base fact, then every reduction to a smaller context."""
    h = action.h_group

    # base fact: vector-space switches spun faithfully by a q-group, q != p
    p = _is_elementary_abelian(g)
    if p is not None and action.is_faithful():
        q = p_group_prime(h)
        if q not in (None, TRIVIAL_P, p):
            return AbelianClassification(p_switch=p, q_spin=q)

    if depth == 0 or not g.is_associative:
        return None

    # switch quotients, smallest quotient first
    if g.order <= groups.DEFAULT_SUBGROUP_ORDER_BOUND:
        normals = [s for s in groups.normal_subgroups(g)
                   if 1 < len(s.members) < g.order]
        for n in sorted(normals, key=lambda s: -len(s.members)):
            quot, _reps, proj = quotient(g, n)
            child = _prove_no(quot, action, depth - 1, budget, stats)
            if child is not None:
                return SwitchQuotient(phi=proj, child=child)

    if h.order > groups.DEFAULT_SUBGROUP_ORDER_BOUND:
        return None
    subs = [tuple(sorted(s)) for s in all_subgroups(h) if 1 < len(s) < h.order]
    subs.sort(key=lambda members: (len(members), members))

    # orbit restrictions: one position's orbit under a proper subgroup
    for members in subs:
        seen_orbits = set()
        for omega in range(action.omega_size):
            orbit = _orbit(action, members, omega)
            if orbit in seen_orbits or len(orbit) == action.omega_size:
                continue
            seen_orbits.add(orbit)
            sub_action = _restricted_action(action, members, orbit)
            child = _prove_no(g, sub_action, depth - 1, budget, stats)
            if child is not None:
                return OrbitRestriction(
                    embedding=_embedding_hom(h, members),
                    omega=min(orbit), orbit=orbit, child=child,
                )

    # spin subgroups on the full position set
    positions = tuple(range(action.omega_size))
    for members in subs:
        sub_action = _restricted_action(action, members, positions)
        child = _prove_no(g, sub_action, depth - 1, budget, stats)
        if child is not None:
            return SpinSubgroup(embedding=_embedding_hom(h, members),
                                child=child)
    return None


def _exhaust(g: FiniteGroup, action: GroupAction, budget: int,
             stats: SearchStats) -> Optional[Certificate]:
    """Leaf: exhaust the belief graph of a small instance."""
    if g.order ** action.omega_size > EXHAUSTIVE_LEAF_K_CAP:
        return None
    ctx = WreathContext(g_group=g, action=action, allow_non_faithful=True)
    before = stats.states_explored
    try:
        path = search_belief_path(ctx, budget=budget, stats=stats)
    except BudgetExceeded:
        return None
    if path is not None:
        return None
    return ExhaustiveBeliefSearch(
        context_label=ctx.name,
        states_explored=stats.states_explored - before)


# ---------------------------------------------------------------------------
# independent certificate validation
# ---------------------------------------------------------------------------

def validate_certificate(ctx: WreathContext, cert: Certificate,
                         *, search_budget: int = 10 ** 6) -> bool:
    """Re-check every hypothesis of the certificate against the context."""
    if ctx.loop_mode or ctx.win_set != frozenset({0}):
        return False
    return _validate_node(ctx.g_group, ctx.action, cert, search_budget)


def _validate_node(g: FiniteGroup, action: GroupAction, cert: Certificate,
                   search_budget: int) -> bool:
    if isinstance(cert, AbelianClassification):
        p = _is_elementary_abelian(g)
        if p is None or p != cert.p_switch:
            return False
        if not action.is_faithful():
            return False
        q = p_group_prime(action.h_group)
        return q == cert.q_spin and q not in (None, TRIVIAL_P, p)

    if isinstance(cert, ExhaustiveBeliefSearch):
        ctx = WreathContext(g_group=g, action=action, allow_non_faithful=True)
        return _belief_graph_has_no_empty_set(ctx, search_budget)

    if isinstance(cert, SwitchQuotient):
        phi = cert.phi
        if phi.source != g or not phi.surjective or not phi.check():
            return False
        return _validate_node(phi.target, action, cert.child, search_budget)

    if isinstance(cert, SpinSubgroup):
        emb = cert.embedding
        if emb.target != action.h_group or not emb.is_injective():
            return False
        if not emb.check():
            return False
        members = tuple(emb.map)
        positions = tuple(range(action.omega_size))
        sub_action = _restricted_action(action, tuple(sorted(members)), positions)
        return _validate_node(g, sub_action, cert.child, search_budget)

    if isinstance(cert, OrbitRestriction):
        emb = cert.embedding
        if emb.target != action.h_group or not emb.is_injective():
            return False
        if not emb.check():
            return False
        members = tuple(sorted(emb.map))
        if _orbit(action, members, cert.omega) != cert.orbit:
            return False
        sub_action = _restricted_action(action, members, cert.orbit)
        return _validate_node(g, sub_action, cert.child, search_budget)

    return False


def _belief_graph_has_no_empty_set(ctx: WreathContext, budget: int) -> bool:
    """Breadth-first reachability over belief masks, level by level, built
    from ``g_group.mul`` and ``action.act`` alone, so that it shares no code
    with the belief kernel or the search that made the leaf.

    Each level steps every frontier mask through one move at a time: the
    move's image list over K sends s to the mask of the H-orbit of s * move,
    or to 0 when s * move wins, and a mask steps to the OR of its members'
    images.  The list is built digit by digit for each move at each level
    and dropped after it, so no |K| x |K| table is kept.

    False when some move sequence empties the belief set, or when more than
    ``budget`` distinct belief sets are reachable.
    """
    n, m, win = ctx.g_group.order, ctx.omega_size, ctx.win_set
    mul = ctx.g_group.mul
    weight = [n ** (m - 1 - w) for w in range(m)]
    # a row sends the digit at coordinate w to coordinate row[w]; the rows
    # are the whole image of H, so their images of t are the orbit of t
    spun = [gather(n, [[x * weight[row[w]] for x in range(n)]
                       for w in range(m)])
            for row in set(ctx.action.act)]
    orbit = [0 if t in win else reduce(or_, [1 << image[t] for image in spun])
             for t in range(n ** m)]
    start = sum(1 << s for s in range(n ** m) if s not in win)
    seen, frontier = {start}, [start]
    while frontier:
        members = [[s for s, bit in enumerate(reversed(f"{mask:b}"))
                    if bit == "1"] for mask in frontier]
        frontier = []
        for move in range(n ** m):
            image = list(map(orbit.__getitem__, gather(
                n, [[mul[x][move // weight[w] % n] * weight[w]
                     for x in range(n)] for w in range(m)])))
            for states in members:
                new = reduce(or_, map(image.__getitem__, states), 0)
                if new == 0:
                    return False
                if new not in seen:
                    seen.add(new)
                    frontier.append(new)
                    if len(seen) > budget:
                        return False
    return True


# ---------------------------------------------------------------------------
# the decision engine
# ---------------------------------------------------------------------------

def decide_existence(ctx: WreathContext,
                     *, spin_period: Optional[int] = None,
                     budget: int = DEFAULT_SEARCH_BUDGET,
                     stats: Optional[SearchStats] = None) -> DecisionResult:
    """Decide whether a surjective strategy exists, by one fixed pipeline.

    For win set {0}, spins every turn and group switches: p-groups for one
    prime spun faithfully are answered by the verified p-group construction
    (a broken one raises ``BaseCaseVerificationFailed``; a p-group too large
    for its subgroup enumeration falls through), then the reductions look
    for a certificate.  What is left goes to one ``decide_by_search``.
    ``budget`` caps the belief states of the whole decision: the certificate
    leaves and the search count into one ``SearchStats``, which a caller may
    pass to share the total with other decisions, states counted before
    included.
    """
    stats = stats if stats is not None else SearchStats()
    if spin_period in (None, 1) and ctx.win_set == frozenset({0}) \
            and not ctx.loop_mode:
        try:
            return DecisionResult(verdict="yes", strategy=construct_pgroup(ctx),
                                  states_explored=stats.states_explored,
                                  message="p-group construction")
        except (NotSamePrime, NonFaithfulAction, OrderBoundExceeded):
            pass
        cert = _reduce(ctx.g_group, ctx.action, DEFAULT_CERT_DEPTH, budget,
                       stats)
        if cert is not None:
            return DecisionResult(verdict="no", certificate=cert,
                                  states_explored=stats.states_explored,
                                  message="nonexistence certificate found")
    return decide_by_search(ctx, spin_period=spin_period, budget=budget,
                            stats=stats)


def decide_by_search(ctx: WreathContext, *, max_depth: Optional[int] = None,
                     spin_period: Optional[int] = None,
                     budget: int = DEFAULT_SEARCH_BUDGET,
                     stats: Optional[SearchStats] = None) -> DecisionResult:
    """The verdict of one belief search over the whole context.

    A found path must pass ``verify`` (else ``BaseCaseVerificationFailed``);
    an exhausted graph gives "no" with an ``ExhaustiveBeliefSearch``
    certificate; a spent ``budget`` or a ``max_depth`` cut gives "unknown".
    Loop-mode verdicts are flagged conjectural.
    """
    stats = stats if stats is not None else SearchStats()
    before = stats.states_explored

    def result(verdict, message, **found):
        return DecisionResult(verdict=verdict, message=message,
                              states_explored=stats.states_explored,
                              conjectural=ctx.loop_mode, **found)

    try:
        path = search_belief_path(ctx, max_depth=max_depth, budget=budget,
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
    cert = ExhaustiveBeliefSearch(
        context_label=ctx.name,
        states_explored=stats.states_explored - before)
    return result("no", "belief graph exhausted", certificate=cert)


def min_spin_period(ctx: WreathContext, bound: int,
                    *, budget: int = DEFAULT_SEARCH_BUDGET,
                    stats: Optional[SearchStats] = None) -> Optional[int]:
    """Smallest r <= bound allowing a win when spins happen every r turns.

    Every period's decision counts into one ``SearchStats``, so ``budget``
    caps the belief states of all of them together.
    """
    stats = stats if stats is not None else SearchStats()
    for r in range(1, bound + 1):
        result = decide_existence(ctx, spin_period=r, budget=budget,
                                  stats=stats)
        if result.verdict == "yes":
            return r
        if result.verdict == "unknown":
            raise BudgetExceeded(f"undecided at spin period {r}")
    return None
