"""Constructive strategy builders.

Each constructor verifies its strategy in the context it is given, win set
included, before returning it; that one verification pass is the safety net
for every lifting argument used here.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import reduce
from typing import List, Optional, Sequence, Tuple

from . import groups
from .actions import GroupAction, WreathContext
from .errors import (
    BaseCaseVerificationFailed,
    BudgetExceeded,
    DoesNotGenerate,
    InputStrategyInvalid,
    LiftedStrategyFailedVerification,
    NotAPermutation,
    NotInvolutionGenerated,
    NotSamePrime,
    NotSurjective,
)
from .groups import (
    FiniteGroup,
    Homomorphism,
    closure,
    generating_set,
    involution_generators,
    p_group_prime,
    same_prime,
)
from .strategies import Strategy, bits, initial_belief, interleave, verify

DEFAULT_HAMILTONIAN_BUDGET = 10 ** 6
DEFAULT_SEARCH_BUDGET = 10 ** 7


# ---------------------------------------------------------------------------
# trivial wreath walks
# ---------------------------------------------------------------------------

def construct_trivial(ctx: WreathContext, perm: Sequence[int]) -> Strategy:
    """Strategy for G wr 1 from a permutation of the non-identity elements,
    verified in ``ctx``, its win set included.

    perm lists G \\ {id} in the order the walk should visit it; the moves are
    the successive differences k_1, k_1^-1 k_2, ...
    """
    g = ctx.g_group
    if sorted(perm) != list(range(1, g.order)):
        raise NotAPermutation("perm must order the non-identity elements of G")
    moves = []
    prev = 0
    for target in perm:
        moves.append(g.mul[g.inv[prev]][target])
        prev = target
    strat = Strategy(ctx=ctx, moves=tuple(moves))
    _require_valid(ctx, strat, "trivial-walk strategy failed verification")
    return strat


# ---------------------------------------------------------------------------
# covering walks on Cayley graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoveringWalk:
    group: FiniteGroup
    generators: Tuple[int, ...]
    steps: Tuple[int, ...]  # indices into generators
    prefix_products: Tuple[int, ...]  # including the empty prefix = identity

    @property
    def is_hamiltonian(self) -> bool:
        return len(self.steps) == self.group.order - 1

    def step_elements(self) -> Tuple[int, ...]:
        return tuple(self.generators[i] for i in self.steps)


def _walk_from_steps(g, gens, steps):
    prods = [0]
    for i in steps:
        prods.append(g.mul[prods[-1]][gens[i]])
    return CoveringWalk(group=g, generators=tuple(gens), steps=tuple(steps),
                        prefix_products=tuple(prods))


def covering_walk(g: FiniteGroup, gens: Sequence[int],
                  *, budget=DEFAULT_HAMILTONIAN_BUDGET) -> CoveringWalk:
    """A walk in the Cayley graph whose prefix products cover G.

    Tries an exhaustive Hamiltonian-path search first (length |G| - 1) and
    falls back to a greedy nearest-uncovered walk when the budget runs out.
    """
    gens = list(dict.fromkeys(gens))
    if len(closure(g, gens)) != g.order:
        raise DoesNotGenerate("generators do not generate G")
    steps = _hamiltonian_walk(g, gens, budget)
    if steps is None:
        return _greedy_walk(g, gens)
    return _walk_from_steps(g, gens, steps)


def _hamiltonian_walk(g, gens, budget):
    """Generator indices of a Hamiltonian path from the identity, depth
    first in generator order on an explicit stack of (element, generators
    left); None if there is none or the ``budget``-th node would be entered.
    """
    visited = {0}
    steps: List[int] = []
    stack = [(0, enumerate(gens))]
    while stack:
        if len(visited) == g.order:
            return steps
        current, untried = stack[-1]
        for i, t in untried:
            nxt = g.mul[current][t]
            if nxt in visited:
                continue
            budget -= 1
            if budget <= 0:
                return None
            visited.add(nxt)
            steps.append(i)
            stack.append((nxt, enumerate(gens)))
            break
        else:
            stack.pop()
            visited.remove(current)
            if steps:
                steps.pop()
    return None


def _greedy_walk(g, gens):
    covered = {0}
    current = 0
    steps: List[int] = []
    while len(covered) < g.order:
        path = _bfs_to_uncovered(g, gens, current, covered)
        for i in path:
            current = g.mul[current][gens[i]]
            covered.add(current)
            steps.append(i)
    return _walk_from_steps(g, gens, steps)


def _bfs_to_uncovered(g, gens, start, covered):
    seen = {start: ()}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for i, t in enumerate(gens):
            y = g.mul[x][t]
            if y in seen:
                continue
            seen[y] = seen[x] + (i,)
            if y not in covered:
                return seen[y]
            queue.append(y)
    raise AssertionError("generators were checked to generate G")


# ---------------------------------------------------------------------------
# two interchangeable switches generated by involutions
# ---------------------------------------------------------------------------

def swap_action() -> GroupAction:
    """C2 interchanging two positions."""
    h = groups.cyclic(2)
    return GroupAction(h_group=h, omega_size=2, act=((0, 1), (1, 0)),
                       name="C2-swap")


def construct_involution_pair(ctx: WreathContext) -> Strategy:
    """Strategy for two interchangeable copies of an involution-generated G,
    verified in ``ctx`` (two positions), its win set included.

    Doubled moves (t, t) preserve the difference a b^-1 of a hidden state
    (a, b) while walking the first coordinate; single-sided separators
    (t, id) step the difference.  The result interleaves the doubled block
    with the single-sided sequence.

    The result verifies only when G is abelian.  A separator (t, id) turns
    the difference into (a t a^-1)(a b^-1), a step that depends on the
    hidden a unless t is central.  Z2, Z2^2 and Z2^3 give minimal strategies
    of length |K|-1; S3 and D8 raise LiftedStrategyFailedVerification.
    S3 wr C2 has no strategy at all, while D8 wr C2 is a 2-group and has
    one from ``construct_pgroup``.
    """
    g = ctx.g_group
    gens = involution_generators(g)
    if gens is None:
        raise NotInvolutionGenerated(f"{g.name} is not generated by involutions")
    if ctx.omega_size != 2:
        raise ValueError("involution-pair construction needs two positions")
    walk = covering_walk(g, gens)
    ts = walk.step_elements()
    doubled = Strategy(ctx=ctx, moves=tuple(ctx.encode((t, t)) for t in ts))
    singles = Strategy(ctx=ctx, moves=tuple(ctx.encode((t, 0)) for t in ts))
    strat = interleave(doubled, singles)
    _require_valid(ctx, strat, "involution-pair strategy failed verification")
    return strat


# ---------------------------------------------------------------------------
# p-group construction
# ---------------------------------------------------------------------------

def construct_pgroup(ctx: WreathContext) -> Strategy:
    """Strategy for G wr H when G and H are p-groups for one prime."""
    if not same_prime(ctx.g_group, ctx.action.h_group):
        raise NotSamePrime(
            f"{ctx.g_group.name} and {ctx.action.h_group.name} must be "
            "p-groups for the same prime"
        )
    ctx.action.require_faithful()
    strat = _pgroup_strategy(ctx)
    if not verify(ctx, strat).valid:
        raise BaseCaseVerificationFailed(
            "p-group construction produced an invalid strategy"
        )
    return strat


def _pgroup_strategy(ctx: WreathContext) -> Strategy:
    """One interleave of layer moves down the levels of
    ``groups.subgroup_chain`` of G, 1 = N_0 < N_1 < ... < N_k = G.

    Each N_(i-1) is normal of index p in N_i.  N_i/N_(i-1) walks the
    layers of ``_chain_layers``, coordinate c lifted to the least member
    of x^c N_(i-1), x the least element of N_i outside N_(i-1).  As
    ``interleave`` is associative, folding every level's layers, deepest
    first, interleaves N_(i-1) wr H with the lifted (N_i/N_(i-1)) wr H at
    each level.
    """
    g = ctx.g_group
    if g.order == 1:
        return Strategy(ctx=ctx, moves=())
    p = p_group_prime(g)
    lifts = []
    for cosets in groups.subgroup_chain(g.mul, range(g.order)):
        n = cosets[0]
        x = min(min(coset) for coset in cosets[1:])
        lift, power = [], 0  # power runs through x^c
        for _ in range(p):
            lift.append(min(g.mul[power][y] for y in n))
            power = g.mul[power][x]
        lifts.append(lift)
    layers = _chain_layers(ctx.action, p)
    return reduce(interleave, (
        Strategy(ctx=ctx, moves=tuple(ctx.encode([lift[c] for c in v])
                                      for v in layer))
        for lift in lifts for layer in layers
    ), Strategy(ctx=ctx, moves=()))


def _chain_layers(action: GroupAction, p: int) -> List[List[Tuple[int, ...]]]:
    """The moves of each level of the fixed-subspace chain of F_p^Omega.

    W_0 = 0, and W_(j+1) holds the v with (h-1)v in W_j for each generator
    h of H (W_j is H-invariant and (gh-1)v = g(h-1)v + (g-1)v).  A p-group
    fixes a nonzero vector of each nonzero module, so the chain reaches
    F_p^Omega.  Layer j steps through the least vector of each coset of W_j
    in W_(j+1), ascending.  A vector's index reads its coordinates as
    base-p digits, position 0 first, so indices sort as the vectors do.
    """
    m = action.omega_size
    vectors = list(itertools.product(range(p), repeat=m))
    weight = [p ** (m - 1 - w) for w in range(m)]

    def index(digits):
        return sum(d % p * wt for d, wt in zip(digits, weight))

    h_inv = action.h_group.inv
    # the index of (h-1)v, per generator h and vector v
    moved = [[index([v[r] - x for r, x in zip(action.act[h_inv[h]], v)])
              for v in vectors] for h in generating_set(action.h_group)]
    inside = bytearray(len(vectors))  # marks the current level
    inside[0] = 1
    level, layers = [0], []
    while len(level) < len(vectors):
        upper = range(len(vectors))
        for d in moved:
            upper = [v for v in upper if inside[d[v]]]
        if len(upper) <= len(level):
            raise BaseCaseVerificationFailed(
                "fixed-subspace chain stopped growing; H is not a p-group "
                "on this module"
            )
        inside, reps = bytearray(len(vectors)), []
        for v in upper:  # marking each coset of the level as it is met
            if not inside[v]:
                reps.append(vectors[v])
                for w in level:
                    inside[index([a + b for a, b in zip(vectors[v],
                                                        vectors[w])])] = 1
        layers.append([tuple((b - a) % p for a, b in zip(prev, rep))
                       for prev, rep in zip(reps, reps[1:])])
        level = upper
    return layers


# ---------------------------------------------------------------------------
# transport along a surjection
# ---------------------------------------------------------------------------

def embed_strategy(sub_ctx: WreathContext, target_ctx: WreathContext,
                   element_map: Sequence[int], strat: Strategy) -> Strategy:
    """Re-encode a strategy through an element map between G-index spaces."""
    moves = tuple(
        target_ctx.encode([element_map[c] for c in sub_ctx.decode(m)])
        for m in strat.moves
    )
    return Strategy(ctx=target_ctx, moves=moves)


def transport_strategy(phi: Homomorphism, strat: Strategy,
                       target_ctx: WreathContext) -> Strategy:
    """Push a strategy for G' wr H forward through a surjection G' -> G.

    The constructive form of the quotient lemma behind ``SwitchQuotient``;
    its test is the only executable check of that lemma.
    """
    if not phi.surjective:
        raise NotSurjective("transport requires a surjective homomorphism")
    src_ctx = strat.ctx
    if src_ctx.g_group.order != phi.source.order:
        raise InputStrategyInvalid("strategy group does not match phi source")
    if target_ctx.g_group.order != phi.target.order:
        raise InputStrategyInvalid("target group does not match phi target")
    if not verify(src_ctx, strat).valid:
        raise InputStrategyInvalid("input strategy does not verify")
    out = embed_strategy(src_ctx, target_ctx, phi.map, strat)
    _require_valid(target_ctx, out, "transported strategy failed verification")
    return out


# ---------------------------------------------------------------------------
# belief-state search
# ---------------------------------------------------------------------------

@dataclass
class SearchStats:
    """The states a command's searches entered, and the budget they share.

    Every search and enumeration handed this object adds the states it
    enters to ``states_explored``, a running total that callers may share
    across several searches.  ``limit`` caps that total, states counted
    before included: once it has reached ``limit``, entering one more state
    raises ``BudgetExceeded``, so the total never exceeds it.
    """
    states_explored: int = 0
    exhausted: bool = False
    beliefs: frozenset = frozenset()
    limit: int = DEFAULT_SEARCH_BUDGET


def search_belief_path(ctx: WreathContext, *, max_depth: Optional[int] = None,
                       spin_period: Optional[int] = None,
                       stats: Optional[SearchStats] = None
                       ) -> Optional[Tuple[int, ...]]:
    """Depth-first search over belief states for a move path reaching empty.

    An explicit stack holds (mask, phase, moves left, remaining moves).  The
    moves whose inverse lies in the current belief (they send a state to the
    identity) are tried first, ascending, then the other non-identity moves,
    ascending, then, under a spin period, the identity; each node walks the
    bits of the kernel's inverse image of its mask and of the complement,
    lazily, so it holds a few |K|-bit ints and no move list.

    The step is monotone: B <= B' gives step(B, m) <= step(B', m), so a
    belief that contains another needs at least as many moves to empty.
    Each phase keeps an antichain of the ⊆-minimal masks entered, each with
    the most moves left it was entered with.  A child is skipped when a
    member of its phase lies inside it with at least as many moves left;
    entering a child drops the members that contain it with no more moves
    left.  This is the forward antichain algorithm (De Wulf, Doyen,
    Henzinger and Raskin, CAV 2006).  It misses no path within
    ``max_depth``: of the entered nodes that can reach empty within their
    moves left, one closest to empty would have its next node on a
    shortest path entered, or skipped for a member inside it, and either
    is closer.  Without ``max_depth`` the moves left are infinite, and
    ``stats.exhausted`` is set when no path exists; ``stats.beliefs`` then
    holds the final antichain.  Every mask entered contains a member of it,
    the start among them, so with spins every turn it is an inductive
    invariant: the step of each member by each move (see below for the
    moves not tried) contains a member.  That is the family of an
    ``ExhaustiveBeliefSearch`` leaf (3 masks on S3 wr C2, after 52 states;
    the exact memo this replaced entered all 704 reachable ones).  A node
    dropped while on the stack tries no further move: the node that dropped
    it lies inside it with as many moves left and has been expanded above
    it, so each child it has left contains a member with as many moves left
    and would be skipped.  That saves kernel steps only (325 instead of
    1,040 on S3 wr C2), never a path or a state.

    When spins come every turn (``spin_period`` None or 1) and every spin
    maps the win set onto itself, only the least move of each H-orbit of K
    is tried (``BeliefKernel.orbit_minima``), in the spirit of isomorph
    rejection (McKay, J. Algorithms 1998).  Every mask entered is then
    closed under spins, and a spin h commutes with coordinate-wise
    multiplication, so ``step(B, h.m) == step(B, m)``; and the inverse of
    h.m lies in B exactly when that of m does.  An orbit's moves are thus
    all eliminating or all not, its least one is tried first, and each
    later one would give a child that is entered or contains a member with
    at least as many moves left, so it would be skipped.

    Each state entered counts against ``stats.limit`` (see ``SearchStats``).
    """
    stats = stats if stats is not None else SearchStats()
    kernel = ctx.belief_kernel
    step = kernel.step
    start = initial_belief(ctx)
    if start == 0:
        stats.exhausted = True
        return ()
    period = spin_period or 1
    non_identity = (1 << ctx.k_size) - 2
    if period == 1 and kernel.spins_fix_win:
        # the least move of each H-orbit stands for the rest (see above)
        non_identity &= kernel.orbit_minima

    def moves_for(mask):
        eliminating = kernel.inverses(mask) & non_identity
        yield from bits(eliminating)
        yield from bits(non_identity ^ eliminating)
        if period > 1:
            yield 0

    # per phase, the minimal masks entered -> the most moves left of each
    antichain: List[dict] = [{} for _ in range(period)]
    stack = []
    path: List[int] = []

    def enter(mask, phase, moves_left):
        if stats.states_explored >= stats.limit:
            raise BudgetExceeded("belief search budget exceeded")
        stats.states_explored += 1
        members = antichain[phase]
        for f in [f for f, f_left in members.items()
                  if f_left <= moves_left and f & mask == mask]:
            del members[f]
        members[mask] = moves_left
        # only the root can start with no moves left (max_depth <= 0)
        stack.append((mask, phase, moves_left,
                      moves_for(mask) if moves_left > 0 else iter(())))

    enter(start, 0, math.inf if max_depth is None else max_depth)
    while stack:
        mask, phase, moves_left, moves = stack[-1]
        if antichain[phase].get(mask) != moves_left:
            moves = ()  # dropped: its children would be skipped (see above)
        phase = (phase + 1) % period  # the children's phase
        spin, left = phase == 0, moves_left - 1
        members = antichain[phase]
        for mv in moves:
            new = step(mask, mv, spin)
            if new == 0:
                return tuple(path) + (mv,)
            outside = ~new
            # a child with no moves left could try no move: not entered
            if left > 0 and not any(f_left >= left and not f & outside
                                    for f, f_left in members.items()):
                path.append(mv)
                enter(new, phase, left)
                break
        else:
            stack.pop()
            if path:
                path.pop()
    stats.exhausted = max_depth is None
    stats.beliefs = (frozenset().union(*antichain) if stats.exhausted
                     else frozenset())
    return None


def _require_valid(ctx, strat, message):
    if not verify(ctx, strat).valid:
        raise LiftedStrategyFailedVerification(message)
