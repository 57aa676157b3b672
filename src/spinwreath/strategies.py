"""Strategies, the interleave combinator, and surjectivity verification.

Verification runs the belief-state semantics: starting from every possibly
unsolved configuration, each move shrinks (or spreads) the set of states the
switches could still occupy given that the light has not turned on.  The
strategy is valid exactly when the belief set ends empty.  A belief set is
one int, bit s standing for base vector s; ``initial_belief`` gives that
mask and ``bits`` lists its members.  The context's ``BeliefKernel`` steps
a whole mask at once (masked shifts and delta swaps, no |K|^2 tables);
``verify``, the belief search, enumeration and certificate leaves all call
its ``step``.  ``verify`` makes one belief step per move and nothing else;
the per-initial-state diagnostic ``VerificationReport.solved_at`` is
computed on first read, at any |K|, by stepping each singleton belief
through the same moves.  A naive oracle that enumerates every adversary
spin sequence is kept alongside for cross-validation; it reads the
per-element ``k_mul`` / ``k_act`` / ``k_inv`` and never the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .actions import WreathContext
from .errors import BudgetExceeded, ContextMismatch, InputStrategyInvalid


@dataclass(frozen=True)
class Strategy:
    """A finite sequence of base vectors, stored as K-indices."""

    ctx: WreathContext
    moves: Tuple[int, ...]

    def __len__(self):
        return len(self.moves)

    def coords(self):
        return tuple(self.ctx.decode(m) for m in self.moves)


def strategy_from_coords(ctx: WreathContext,
                         moves: Iterable[Sequence[int]]) -> Strategy:
    return Strategy(ctx=ctx, moves=tuple(ctx.encode(m) for m in moves))


def interleave(a: Strategy, b: Strategy) -> Strategy:
    """(A, b_1, A, b_2, ..., b_M, A) of length MN + M + N."""
    if a.ctx != b.ctx:
        raise ContextMismatch("interleave requires a common context")
    moves = list(a.moves)
    for bm in b.moves:
        moves.append(bm)
        moves.extend(a.moves)
    return Strategy(ctx=a.ctx, moves=tuple(moves))


def bits(mask: int):
    """The members of a belief mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def initial_belief(ctx: WreathContext) -> int:
    """The mask of every base vector outside the win set."""
    return (1 << ctx.k_size) - 1 - sum(1 << w for w in ctx.win_set)


@dataclass(frozen=True)
class VerificationReport:
    """Verdict of ``verify``; ``solved_at`` is computed on first read."""

    valid: bool
    length: int
    residual: frozenset
    minimal: bool
    ctx: WreathContext = field(repr=False, compare=False)
    strategy: Strategy = field(repr=False, compare=False)
    spin_period: Optional[int] = field(default=None, compare=False)

    @cached_property
    def solved_at(self) -> Dict[int, Optional[int]]:
        """First move after which each unsolved initial state is solved.

        State s is solved at move i when the belief set started from {s}
        alone is empty after i steps; None when the strategy never empties it.
        """
        out: Dict[int, Optional[int]] = {}
        for s in bits(initial_belief(self.ctx)):
            used, mask = _run_belief(self.ctx, 1 << s, self.strategy.moves,
                                     self.spin_period)
            out[s] = None if mask else used
        return out


def minimal_length_bound(ctx: WreathContext) -> int:
    # each move sends at most |win| surviving initial states into the win set
    unsolved = ctx.k_size - len(ctx.win_set)
    return -(-unsolved // len(ctx.win_set))


def _run_belief(ctx: WreathContext, mask: int, moves: Sequence[int],
                spin_period: Optional[int]) -> Tuple[int, int]:
    """Step a belief mask through the moves; return (moves made, final mask).

    Stops at the first move after which the mask is empty.
    """
    step = ctx.belief_kernel.step
    i = 0
    for i, move in enumerate(moves, start=1):
        mask = step(mask, move, spin_period is None or i % spin_period == 0)
        if not mask:
            break
    return i, mask


def require_moves_in_k(moves: Sequence[int], k_size: int):
    """Refuse a move that is not the index of a base vector of K."""
    if moves and (min(moves) < 0 or max(moves) >= k_size):
        bad = next(m for m in moves if not 0 <= m < k_size)
        raise InputStrategyInvalid(
            f"move {bad} is not a base vector of K (0..{k_size - 1})")


def verify(ctx: WreathContext, strategy: Strategy,
           *, spin_period: Optional[int] = None) -> VerificationReport:
    """Belief-state verification: one ``BeliefKernel`` step per move.

    A step costs at most |Omega| |G| masked shifts for the move, then at
    most (|Omega|-1)(|G|-1) delta swaps for each transversal row of the
    spin closure, sum(|T_i| - 1) rows in all, (p-1) log_p |H| for a p-group
    H; every shift or swap is a few operations on |K|-bit integers.

    With ``spin_period = r`` the adversary may spin only on turns i with
    i % r == 0; moves on other turns face no spin.  A move outside
    range(|K|) raises ``InputStrategyInvalid``.
    """
    if strategy.ctx.k_size != ctx.k_size:
        raise ContextMismatch("strategy was built for a different context")
    # the kernel refuses a move outside K the first time it steps it; the
    # moves after the belief set empties are never stepped
    used, mask = _run_belief(ctx, initial_belief(ctx), strategy.moves,
                             spin_period)
    if used < len(strategy.moves):
        require_moves_in_k(strategy.moves[used:], ctx.k_size)
    valid = mask == 0
    return VerificationReport(
        valid=valid,
        length=len(strategy),
        residual=frozenset(bits(mask)),
        minimal=valid and len(strategy) == minimal_length_bound(ctx),
        ctx=ctx,
        strategy=strategy,
        spin_period=spin_period,
    )


def verify_naive(ctx: WreathContext, strategy: Strategy,
                 *, budget: int = 10 ** 7,
                 spin_period: Optional[int] = None) -> bool:
    """Explicit enumeration of every adversary spin sequence.

    For each path, the lab-frame state after move j from initial state k is
    act(h_1...h_{j-1}, k * p(m_j)), so k is solved on that path iff it lies in
    act(sigma^-1, win) * p(m_j)^-1 for some prefix j (including j = 0).
    A move outside range(|K|) raises ``InputStrategyInvalid``.
    """
    require_moves_in_k(strategy.moves, ctx.k_size)
    n = len(strategy)
    h_group = ctx.action.h_group
    h_order = h_group.order
    spins_per_turn = []
    for i in range(1, n + 1):
        if spin_period is None or i % spin_period == 0:
            spins_per_turn.append(list(range(h_order)))
        else:
            spins_per_turn.append([0])
    paths = 1
    for options in spins_per_turn:
        paths *= len(options)
        if paths > budget:
            raise BudgetExceeded(f"|H|^N = {paths}+ exceeds budget {budget}")

    win = ctx.win_set
    if ctx.loop_mode:
        # without associativity the projection shortcut is unsound; simulate
        # every initial state along every path directly
        return _naive_simulate(ctx, strategy, spins_per_turn)

    # depth first over the spin paths, on an explicit stack of
    # (turn, p(m_turn), sigma_turn, covered): covered holds the initial
    # states already guaranteed solved along the path; m_0 is the identity
    stack = [(0, 0, 0, frozenset(win))]
    while stack:
        turn, p_base, spin_sigma, covered = stack.pop()
        if len(covered) == ctx.k_size:
            continue
        if turn == n:
            return False
        # p(m_{j}) = p(m_{j-1}) * act(sigma_{j-1}, k_j); the trailing spin
        # does not touch the projection
        new_base = ctx.k_mul(p_base, ctx.k_act(spin_sigma, strategy.moves[turn]))
        inv_sigma = h_group.inv[spin_sigma]
        new_base_inv = ctx.k_inv(new_base)
        covered = covered | {ctx.k_mul(ctx.k_act(inv_sigma, w), new_base_inv)
                             for w in win}
        stack.extend((turn + 1, new_base, h_group.mul[spin_sigma][h], covered)
                     for h in reversed(spins_per_turn[turn]))
    return True


def _naive_simulate(ctx: WreathContext, strategy: Strategy, spins_per_turn):
    win = ctx.win_set
    n = len(strategy.moves)
    # depth first over the spin paths, on an explicit stack of (turn, live):
    # live holds the current positions of the initial states not yet solved
    # on the path
    stack = [(0, [s for s in range(ctx.k_size) if s not in win])]
    while stack:
        turn, live = stack.pop()
        if not live:
            continue
        if turn == n:
            return False
        move = strategy.moves[turn]
        moved = [t for t in (ctx.k_mul(s, move) for s in live) if t not in win]
        if moved:
            stack.extend((turn + 1, [ctx.k_act(h, t) for t in moved])
                         for h in reversed(spins_per_turn[turn]))
    return True
