"""Expected-turn computations and strategy enumeration.

Exact expectations carry integer masses over one common denominator and
turn them into ``Fraction``s only for the report; floating point only ever
appears in Monte Carlo summaries.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .actions import WreathContext, gather
from .errors import BudgetExceeded, ContextTooSmall
from .strategies import (Strategy, initial_belief, minimal_length_bound,
                         verify)


# ---------------------------------------------------------------------------
# exact expectation under a fixed strategy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpectationReport:
    absorbed_probability: Fraction
    conditional_expected_moves: Optional[Fraction]
    stop_time_distribution: Tuple[Tuple[int, Fraction], ...]
    adversary_model: str

    def expected_moves(self) -> Optional[Fraction]:
        return self.conditional_expected_moves


def uniform_adversary(ctx: WreathContext) -> Dict[int, Fraction]:
    n = ctx.h_order
    return {h: Fraction(1, n) for h in range(n)}


def uniform_initial(ctx: WreathContext) -> Dict[int, Fraction]:
    states = [s for s in range(ctx.k_size) if s not in ctx.win_set]
    return {s: Fraction(1, len(states)) for s in states}


def exact_expected_moves(ctx: WreathContext, strategy: Strategy,
                         adversary: Optional[Dict[int, Fraction]] = None,
                         initial: Optional[Dict[int, Fraction]] = None
                         ) -> ExpectationReport:
    """Propagate exact probability mass through the per-step transition.

    Mass sitting at state s is absorbed at step i when the move lands it in
    the winning set; otherwise it spreads over the adversary's spins.  The
    masses are integers: after i moves each is a numerator over
    d0 * da^i, where d0 and da are the least common denominators of the
    initial masses and of the adversary's weights, and only the mass
    absorbed at a step becomes a ``Fraction``.  A move moves mass by one
    gather list over K, and so does each spin of nonzero weight; both are
    built from coordinates, once per call and distinct move or spin.
    """
    adversary = adversary if adversary is not None else uniform_adversary(ctx)
    initial = initial if initial is not None else uniform_initial(ctx)
    if sum(adversary.values()) != 1:
        raise ValueError("adversary probabilities must sum to 1")
    if sum(initial.values()) != 1:
        raise ValueError("initial probabilities must sum to 1")
    n, m, k = ctx.g_group.order, ctx.omega_size, ctx.k_size
    place = [n ** (m - 1 - w) for w in range(m)]  # of coordinate w's digit
    weights = {h: Fraction(p) for h, p in adversary.items() if p != 0}
    start = {s: Fraction(p) for s, p in initial.items()}
    da = math.lcm(*(p.denominator for p in weights.values()))
    d0 = math.lcm(*(p.denominator for p in start.values()))
    mass = [0] * k
    for s, p in start.items():
        mass[s] += p.numerator * (d0 // p.denominator)
    # spin h sends t to u with coordinate w of u = coordinate act[h^-1][w]
    # of t, so new mass at u gathers the mass of that t
    h_inv, act = ctx.action.h_group.inv, ctx.action.act
    spins: Dict[int, List[List[int]]] = {}  # numerator -> gather lists
    for h, p in weights.items():
        row = act[h_inv[h]]
        spins.setdefault(p.numerator * (da // p.denominator), []).append(
            gather(n, [[x * place[row[w]] for x in range(n)]
                        for w in range(m)]))
    # mass at t after a move comes from the state s with s * move = t
    mul = ctx.g_group.mul
    sources: Dict[int, List[int]] = {}
    for move in strategy.moves:
        if move not in sources:
            digits = []
            for w, g in enumerate(ctx.decode(move)):
                div = [0] * n
                for x in range(n):
                    div[mul[x][g]] = x * place[w]
                digits.append(div)
            sources[move] = gather(n, digits)
    win = sorted(ctx.win_set)
    denominator = d0
    absorbed: List[Tuple[int, Fraction]] = []
    for i, move in enumerate(strategy.moves, start=1):
        moved = list(map(mass.__getitem__, sources[move]))
        hit = 0
        for t in win:
            hit += moved[t]
            moved[t] = 0
        if hit:
            absorbed.append((i, Fraction(hit, denominator)))
        denominator *= da
        parts = []
        for p, gathers in spins.items():
            scaled = list(map(p.__mul__, moved))
            parts += [map(scaled.__getitem__, src) for src in gathers]
        mass = list(map(sum, zip(*parts)))
        if not any(mass):
            break
    total = sum((p for _, p in absorbed), Fraction(0))
    expected = None
    if total > 0:
        expected = sum((Fraction(i) * p for i, p in absorbed),
                       Fraction(0)) / total
    adv_label = ("uniform i.i.d." if adversary == uniform_adversary(ctx)
                 else "custom")
    return ExpectationReport(
        absorbed_probability=total,
        conditional_expected_moves=expected,
        stop_time_distribution=tuple(absorbed),
        adversary_model=adv_label,
    )


# ---------------------------------------------------------------------------
# random play
# ---------------------------------------------------------------------------

MAX_TURNS = 10 ** 6  # a simulated game longer than this raises RuntimeError


def random_play_expectation(ctx: WreathContext) -> Fraction:
    """Closed form for uniform moves over K minus the do-nothing move."""
    return Fraction(ctx.k_size - 1)


def _game_lengths(ctx: WreathContext, rng: random.Random,
                  *, exclude_constant_backtrack=False) -> Iterator[int]:
    """The turns to win of successive games of uniform random play.

    The set-up (the dense tables, the rng's bound method and, for play that
    never backtracks, the move that undoes each constant move) is made once
    for all the games the caller draws.
    """
    k = ctx.k_size
    win = ctx.win_set
    undo = {}
    if exclude_constant_backtrack:
        # the constant move (g, ..., g) is undone by (g^-1, ..., g^-1)
        m, inv = ctx.omega_size, ctx.g_group.inv
        undo = {ctx.encode([g] * m): ctx.encode([inv[g]] * m)
                for g in range(ctx.g_group.order)}
    # hot loop: localize the dense tables (cached on the context) and the rng
    mul = ctx._k_mul_table if ctx._dense else None
    act = ctx._k_act_table if ctx._dense else None
    randrange = rng.randrange
    h_order = ctx.h_order
    while True:
        state = randrange(1, k)
        while state in win:
            state = randrange(1, k)
        banned = None
        for turn in range(1, MAX_TURNS + 1):
            move = randrange(1, k)
            while move == banned:
                move = randrange(1, k)
            state = mul[state][move] if mul else ctx.k_mul(state, move)
            if state in win:
                break
            banned = undo.get(move)
            spin = randrange(h_order)
            state = act[spin][state] if act else ctx.k_act(spin, state)
        else:
            raise RuntimeError("simulation did not terminate")
        yield turn


def monte_carlo_random_play(ctx: WreathContext, trials: int, seed: int) -> float:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    games = _game_lengths(ctx, random.Random(seed))
    return sum(itertools.islice(games, trials)) / trials


def non_backtracking_expectation(ctx: WreathContext, trials: int, seed: int
                                 ) -> float:
    """Random play that never undoes a constant-vector move immediately."""
    if ctx.k_size <= 2:
        raise ContextTooSmall("non-backtracking play needs |K| > 2")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    games = _game_lengths(ctx, random.Random(seed),
                          exclude_constant_backtrack=True)
    return sum(itertools.islice(games, trials)) / trials


# ---------------------------------------------------------------------------
# enumeration and counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnumerationResult:
    strategies: Tuple[Strategy, ...]
    count: int
    canonical_count: Optional[int] = None


def enumerate_strategies(ctx: WreathContext, length: int,
                         *, palindromic=False, minimal_only=False,
                         up_to_h=False, budget: int = 10 ** 7
                         ) -> EnumerationResult:
    """All length-N surjective strategies, by backtracking with belief pruning.

    A prefix is pruned when the remaining moves cannot eliminate the current
    belief set (at most |win_set| states disappear per step).  Palindromic
    enumeration forces the mirrored half of the sequence.
    """
    if minimal_only and length != minimal_length_bound(ctx):
        return EnumerationResult(strategies=(), count=0,
                                 canonical_count=0 if up_to_h else None)
    k = ctx.k_size
    win_size = len(ctx.win_set)
    found: List[Tuple[int, ...]] = []
    moves: List[int] = []
    visited = 0
    start = initial_belief(ctx)
    step = ctx.belief_kernel.step

    def dfs(mask, depth):
        nonlocal visited
        visited += 1
        if visited > budget:
            raise BudgetExceeded("enumeration budget exceeded")
        if depth == length:
            if mask == 0:
                found.append(tuple(moves))
            return
        remaining = length - depth
        if bin(mask).count("1") > remaining * win_size:
            return
        mirror = length - 1 - depth
        candidates = [moves[mirror]] if palindromic and mirror < depth else range(k)
        # after the last move only emptiness counts, which spins keep
        spin = remaining > 1
        for mv in candidates:
            moves.append(mv)
            dfs(step(mask, mv, spin), depth + 1)
            moves.pop()

    dfs(start, 0)
    strategies = tuple(Strategy(ctx=ctx, moves=m) for m in found)
    canonical_count = None
    if up_to_h:
        canonical = {canonicalize_strategy(ctx, s) for s in strategies}
        canonical_count = len(canonical)
    return EnumerationResult(strategies=strategies, count=len(strategies),
                             canonical_count=canonical_count)


def enumerate_strategies_exhaustive(ctx: WreathContext, length: int,
                                    *, palindromic=False) -> List[Strategy]:
    """Plain product enumeration; the cross-check oracle for the backtracker."""
    out = []
    for seq in itertools.product(range(ctx.k_size), repeat=length):
        if palindromic and seq != seq[::-1]:
            continue
        strat = Strategy(ctx=ctx, moves=seq)
        if verify(ctx, strat).valid:
            out.append(strat)
    return out


def canonicalize_strategy(ctx: WreathContext, strat: Strategy) -> Tuple[int, ...]:
    """Lexicographically least image under one global spin applied to all moves."""
    return min(
        tuple(ctx.k_act(h, mv) for mv in strat.moves)
        for h in range(ctx.h_order)
    )


def count_minimal_trivial_strategies(ctx: WreathContext) -> int:
    """Count of minimal strategies when the adversary is trivial."""
    result = enumerate_strategies(ctx, minimal_length_bound(ctx))
    return result.count
