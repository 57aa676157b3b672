"""Constructive strategy builders.

Constructors always re-verify their output before returning it; the
verification pass is the safety net for every lifting argument used here.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import groups
from .actions import GroupAction, WreathContext, trivial_action
from .errors import (
    BaseCaseVerificationFailed,
    BudgetExceeded,
    DoesNotGenerate,
    InputStrategyInvalid,
    LiftedStrategyFailedVerification,
    NotAPermutation,
    NotInvolutionGenerated,
    NotNormal,
    NotSamePrime,
    NotSurjective,
)
from .groups import (
    FiniteGroup,
    Homomorphism,
    Subgroup,
    TRIVIAL_P,
    closure,
    involution_generators,
    maximal_normal_index_p,
    p_group_prime,
    quotient,
    subgroup_as_group,
)
from .strategies import Strategy, bits, initial_belief, interleave, verify

DEFAULT_HAMILTONIAN_BUDGET = 10 ** 6
DEFAULT_SEARCH_BUDGET = 10 ** 7


# ---------------------------------------------------------------------------
# trivial wreath walks
# ---------------------------------------------------------------------------

def construct_trivial(g: FiniteGroup, perm: Sequence[int],
                      action: Optional[GroupAction] = None) -> Strategy:
    """Strategy for G wr 1 from a permutation of the non-identity elements.

    perm lists G \\ {id} in the order the walk should visit it; the moves are
    the successive differences k_1, k_1^-1 k_2, ...
    """
    if sorted(perm) != list(range(1, g.order)):
        raise NotAPermutation("perm must order the non-identity elements of G")
    ctx = WreathContext(g_group=g, action=action or trivial_action())
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
    if not gens or len(closure(g, gens)) != g.order:
        raise DoesNotGenerate("generators do not generate G")
    steps = _hamiltonian_walk(g, gens, budget)
    if steps is None:
        return _greedy_walk(g, gens)
    return _walk_from_steps(g, gens, steps)


def _hamiltonian_walk(g, gens, budget):
    order = g.order

    def dfs(current, visited, steps):
        nonlocal nodes_left
        if len(visited) == order:
            return steps
        for i, t in enumerate(gens):
            nxt = g.mul[current][t]
            if nxt in visited:
                continue
            nodes_left -= 1
            if nodes_left <= 0:
                return None
            visited.add(nxt)
            steps.append(i)
            found = dfs(nxt, visited, steps)
            if found is not None:
                return found
            if nodes_left <= 0:
                return None
            visited.remove(nxt)
            steps.pop()
        return None

    nodes_left = budget
    return dfs(0, {0}, [])


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


def construct_involution_pair(g: FiniteGroup,
                              action: Optional[GroupAction] = None
                              ) -> Strategy:
    """Strategy for two interchangeable copies of an involution-generated G.

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
    gens = involution_generators(g)
    if gens is None:
        raise NotInvolutionGenerated(f"{g.name} is not generated by involutions")
    action = action or swap_action()
    if action.omega_size != 2:
        raise ValueError("involution-pair construction needs two positions")
    ctx = WreathContext(g_group=g, action=action)
    walk = covering_walk(g, gens)
    ts = walk.step_elements()
    doubled = Strategy(ctx=ctx, moves=tuple(ctx.encode((t, t)) for t in ts))
    singles = Strategy(ctx=ctx, moves=tuple(ctx.encode((t, 0)) for t in ts))
    strat = interleave(doubled, singles)
    _require_valid(ctx, strat, "involution-pair strategy failed verification")
    return strat


# ---------------------------------------------------------------------------
# decomposition along a normal subgroup
# ---------------------------------------------------------------------------

def embed_strategy(sub_ctx: WreathContext, target_ctx: WreathContext,
                   element_map: Sequence[int], strat: Strategy) -> Strategy:
    """Re-encode a strategy through an element map between G-index spaces."""
    moves = tuple(
        target_ctx.encode([element_map[c] for c in sub_ctx.decode(m)])
        for m in strat.moves
    )
    return Strategy(ctx=target_ctx, moves=moves)


def construct_by_decomposition(ctx: WreathContext, n: Subgroup,
                               strat_n: Strategy, strat_q: Strategy) -> Strategy:
    """Interleave a subgroup-level strategy with a lifted quotient strategy.

    strat_n lives in N wr H (N as a standalone group); strat_q lives in
    (G/N) wr H.  The lift walks every coset through every element, so the
    interleave covers K; the output is re-verified regardless.
    """
    g = ctx.g_group
    if not n.is_normal:
        raise NotNormal("decomposition requires a normal subgroup")
    n_group = subgroup_as_group(n)
    quot, reps, _proj = quotient(g, n)
    ctx_n = WreathContext(g_group=n_group, action=ctx.action,
                          allow_non_faithful=ctx.allow_non_faithful)
    ctx_q = WreathContext(g_group=quot, action=ctx.action,
                          allow_non_faithful=ctx.allow_non_faithful)
    if not verify(ctx_n, Strategy(ctx=ctx_n, moves=strat_n.moves)).valid:
        raise InputStrategyInvalid("subgroup strategy does not verify in N wr H")
    if not verify(ctx_q, Strategy(ctx=ctx_q, moves=strat_q.moves)).valid:
        raise InputStrategyInvalid("quotient strategy does not verify in G/N wr H")
    embedded = embed_strategy(ctx_n, ctx, n.members, strat_n)
    lifted = embed_strategy(ctx_q, ctx, reps, strat_q)
    strat = interleave(embedded, lifted)
    report = verify(ctx, strat)
    if not report.valid:
        raise LiftedStrategyFailedVerification(
            "interleaved decomposition strategy failed verification"
        )
    return strat


# ---------------------------------------------------------------------------
# p-group construction
# ---------------------------------------------------------------------------

def construct_pgroup(ctx: WreathContext) -> Strategy:
    """Recursive strategy for G wr H when G and H are p-groups for one prime."""
    p = p_group_prime(ctx.g_group)
    q = p_group_prime(ctx.action.h_group)
    if p is None or q is None or (p != q and TRIVIAL_P not in (p, q)):
        raise NotSamePrime(
            f"{ctx.g_group.name} and {ctx.action.h_group.name} must be "
            "p-groups for the same prime"
        )
    ctx.action.require_faithful()
    strat = _pgroup_strategy(ctx)
    report = verify(ctx, strat)
    if not report.valid:
        raise BaseCaseVerificationFailed(
            "p-group construction produced an invalid strategy"
        )
    return strat


def _pgroup_strategy(ctx: WreathContext) -> Strategy:
    g = ctx.g_group
    if g.order == 1:
        return Strategy(ctx=ctx, moves=())
    p = p_group_prime(g)
    if g.order == p:
        return _prime_base_strategy(ctx)
    n = maximal_normal_index_p(g, p)
    n_group = subgroup_as_group(n)
    ctx_n = WreathContext(g_group=n_group, action=ctx.action)
    strat_n = _pgroup_strategy(ctx_n)
    quot, reps, _proj = quotient(g, n)
    ctx_q = WreathContext(g_group=quot, action=ctx.action)
    strat_q = _pgroup_strategy(ctx_q)
    embedded = embed_strategy(ctx_n, ctx, n.members, strat_n)
    lifted = embed_strategy(ctx_q, ctx, reps, strat_q)
    return interleave(embedded, lifted)


def _prime_base_strategy(ctx: WreathContext) -> Strategy:
    """Base case: switches of prime order p, spun by a p-group (or trivial) H.

    K is the F_p-coordinate space on Omega.  The H-fixed subspace W = K^H is
    nonzero for p-group H, and its moves are spin-immune; the strategy walks
    W, recurses on the quotient module K/W (whose fixed points are again
    nonzero), and interleaves, lifting quotient moves through deterministic
    coset representatives.
    """
    g = ctx.g_group
    p = g.order
    m = ctx.omega_size
    # iso Z_p -> G: values are powers of the first non-identity element
    gen = 1 if g.order > 1 else 0
    powers = [0]
    for _ in range(p - 1):
        powers.append(g.mul[powers[-1]][gen])

    act = ctx.action.act
    h_inv = ctx.action.h_group.inv

    def spin_vec(h, v):
        row = act[h_inv[h]]
        return tuple(v[row[w]] for w in range(m))

    def sub_vec(a, b):
        return tuple((x - y) % p for x, y in zip(a, b))

    all_vectors = sorted(itertools.product(range(p), repeat=m))
    chain = [{tuple([0] * m)}]
    while len(chain[-1]) < p ** m:
        prev = chain[-1]
        nxt = {
            v for v in all_vectors
            if all(sub_vec(spin_vec(h, v), v) in prev
                   for h in range(1, ctx.h_order))
        }
        if len(nxt) <= len(prev):
            raise BaseCaseVerificationFailed(
                "fixed-subspace chain stopped growing; H is not a p-group "
                "on this module"
            )
        chain.append(nxt)

    def build(level):
        if len(chain[level]) == p ** m:
            return []
        lower, upper = chain[level], chain[level + 1]
        # the first vector of each coset of lower in upper, in sorted order
        reps, covered = [], set()
        for v in sorted(upper):
            if v not in covered:
                reps.append(v)
                covered.update(tuple((x + u) % p for x, u in zip(v, w))
                               for w in lower)
        deltas = [sub_vec(reps[j], reps[j - 1]) for j in range(1, len(reps))]
        inner = build(level + 1)
        out = list(deltas)
        for move in inner:
            out.append(move)
            out.extend(deltas)
        return out

    vec_moves = build(0)
    moves = tuple(
        ctx.encode([powers[c] for c in v]) for v in vec_moves
    )
    return Strategy(ctx=ctx, moves=moves)


# ---------------------------------------------------------------------------
# transport along a surjection
# ---------------------------------------------------------------------------

def transport_strategy(phi: Homomorphism, strat: Strategy,
                       target_ctx: WreathContext) -> Strategy:
    """Push a strategy for G' wr H forward through a surjection G' -> G."""
    if not phi.surjective:
        raise NotSurjective("transport requires a surjective homomorphism")
    src_ctx = strat.ctx
    if src_ctx.g_group.order != phi.source.order:
        raise InputStrategyInvalid("strategy group does not match phi source")
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
    states_explored: int = 0
    exhausted: bool = False


def search_belief_path(ctx: WreathContext, *, max_depth: Optional[int] = None,
                       budget: int = DEFAULT_SEARCH_BUDGET,
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
    ``entered[(mask, phase)]`` is the most moves left that the
    node was entered with, and a node is entered again only with more moves
    left.  Without ``max_depth`` that is infinity, so every reachable node is
    entered once and ``stats.exhausted`` is set when none leads to empty.

    When spins come every turn (``spin_period`` None or 1) and every spin
    maps the win set onto itself, only the least move of each H-orbit of K
    is tried (``BeliefKernel.orbit_minima``), in the spirit of isomorph
    rejection (McKay, J. Algorithms 1998).  Every mask entered is then
    closed under spins, and a spin h commutes with coordinate-wise
    multiplication, so ``step(B, h.m) == step(B, m)``; and the inverse of
    h.m lies in B exactly when that of m does.  An orbit's moves are thus
    all eliminating or all not, its least one is tried first, and each
    later one would give a child the memo already holds with at least as
    many moves left.  Paths, ``states_explored``, ``exhausted`` and the
    budget stops are those of the unpruned search; only kernel steps are
    saved (14,080 instead of 24,640 on the 704-state exhaustion of
    S3 wr C2).

    ``budget`` caps ``stats.states_explored``, the running total of states
    entered, which callers may share across several searches: once it has
    reached ``budget``, entering one more state raises ``BudgetExceeded``,
    so the total never exceeds it.
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

    entered = {}
    stack = []
    path: List[int] = []

    def enter(mask, phase, moves_left):
        if stats.states_explored >= budget:
            raise BudgetExceeded("belief search budget exceeded")
        stats.states_explored += 1
        entered[(mask, phase)] = moves_left
        # only the root can start with no moves left (max_depth <= 0)
        stack.append((mask, phase, moves_left,
                      moves_for(mask) if moves_left > 0 else iter(())))

    enter(start, 0, math.inf if max_depth is None else max_depth)
    while stack:
        mask, phase, moves_left, moves = stack[-1]
        phase = (phase + 1) % period  # the children's phase
        spin, left = phase == 0, moves_left - 1
        for mv in moves:
            new = step(mask, mv, spin)
            if new == 0:
                return tuple(path) + (mv,)
            if entered.get((new, phase), 0) < left:
                path.append(mv)
                enter(new, phase, left)
                break
        else:
            stack.pop()
            if path:
                path.pop()
    stats.exhausted = max_depth is None
    return None


def _require_valid(ctx, strat, message):
    if not verify(ctx, strat).valid:
        raise LiftedStrategyFailedVerification(message)
