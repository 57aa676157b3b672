"""Expected-turn computations and strategy enumeration.

Exact expectation counts paths: every state outside the win set starts
with one path and every spin extends each path once, so the masses stay
integers over one denominator per step and become the report's two
``Fraction``s only at the end.  After each spin the masses are the same
on every H-orbit, so a step carries one mass per orbit and gathers it
through one index list over the orbit representatives' |H| images.  Floating point only ever appears in Monte
Carlo summaries.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .actions import (DENSE_TABLE_CAP, WreathContext, coordinate_map,
                      orbit_least)
from .errors import BudgetExceeded, ContextMismatch, ContextTooSmall
from .strategies import (Strategy, initial_belief, minimal_length_bound,
                         require_moves_in_k)
from .synthesis import SearchStats


# ---------------------------------------------------------------------------
# exact expectation under a fixed strategy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpectationReport:
    absorbed_probability: Fraction
    conditional_expected_moves: Optional[Fraction]


def exact_expected_moves(ctx: WreathContext, strategy: Strategy
                         ) -> ExpectationReport:
    """Count the paths a strategy absorbs against a uniform spinner.

    The start is uniform over the states outside the win set and each turn
    the spinner plays every element of H with equal weight, so after i
    moves the mass at a state is the number of paths that reach it, over
    (|K| - |win|) * |H|^(i - 1).  Mass the move lands in the win set is
    absorbed; the rest spreads over every element of H (a non-faithful H
    keeps the weight of each element).  The absorbed paths and their sum
    weighted by step are kept as integers over the denominator of the last
    step that absorbed any, one ``Fraction`` each at the end.

    A spread mass is the same at every state of an H-orbit (the chain is
    lumpable on the orbits: Kemeny and Snell, *Finite Markov Chains*, 1960,
    section 6.3), so one mass per orbit is carried, the orbit's least state
    standing for it.  For each representative u and each element h, a move
    reads the mass of the orbit that the move brought u's image under h
    from, through one index list over those |orbits| * |H| images, built
    once per distinct move and dropped after the move's last use, so the
    lists held at once are those of the moves that recur later.  The first
    move reads the start state by state, since its masses need not be
    constant on orbits.  A move outside range(|K|) raises
    ``InputStrategyInvalid``.
    """
    n, m, k, h_order = (ctx.g_group.order, ctx.omega_size, ctx.k_size,
                        ctx.h_order)
    win = sorted(ctx.win_set)
    if len(win) == k:
        raise ContextTooSmall("every state is in the win set")
    require_moves_in_k(strategy.moves, k)
    least = orbit_least(n, ctx.action.act)
    reps = [s for s, t in enumerate(least) if s == t]
    slot = [0] * k
    for i, u in enumerate(reps):
        slot[u] = i
    orbit = list(map(slot.__getitem__, least))  # the slot of each state
    # the images of each representative under every element of H, |H| in
    # a row: the spread mass at u is the sum of the moved mass at its row
    spins = [coordinate_map(n, [range(n)] * m, row) for row in ctx.action.act]
    images = [spin[u] for u in reps for spin in spins]
    win_at = [j for j, x in enumerate(images) if x in ctx.win_set]
    # mass at t after a move comes from the state s with s * move = t, so
    # each digit of s is a right division: div[c][x * c] = x
    mul = ctx.g_group.mul
    div = [[0] * n for _ in range(n)]
    for x in range(n):
        for c in range(n):
            div[c][mul[x][c]] = x

    def gather(move, index, zero):
        """The mass slot each image's moved mass is read from (slot zero,
        which holds 0, for an image in the win set) and the slots whose
        mass the win set absorbs; index gives the slot of each state."""
        src = coordinate_map(n, [div[c] for c in ctx.decode(move)])
        reads = list(map(index.__getitem__, map(src.__getitem__, images)))
        for j in win_at:
            reads[j] = zero
        return reads, [index[src[t]] for t in win]

    mass = [1] * k + [0]  # one path at each state outside the win set
    for t in win:
        mass[t] = 0
    # a move's lists are kept only until its last use
    last_use = {move: i for i, move in enumerate(strategy.moves, start=1)}
    steps: Dict[int, Tuple[List[int], List[int]]] = {}
    total = moment = last = 0
    for i, move in enumerate(strategy.moves, start=1):
        if i == 1:
            reads, absorbs = gather(move, range(k), k)
        else:
            reads, absorbs = (steps.pop(move, None)
                              or gather(move, orbit, len(reps)))
            if last_use[move] > i:
                steps[move] = reads, absorbs
        hit = sum(map(mass.__getitem__, absorbs))
        if hit:
            scale = h_order ** (i - last)
            total = total * scale + hit
            moment = moment * scale + i * hit
            last = i
        mass = list(map(sum, zip(*[map(mass.__getitem__, reads)] * h_order)))
        if not any(mass):
            break
        mass.append(0)
    if not total:
        return ExpectationReport(Fraction(0), None)
    paths = (k - len(win)) * h_order ** (last - 1)
    return ExpectationReport(Fraction(total, paths), Fraction(moment, total))


# ---------------------------------------------------------------------------
# random play
# ---------------------------------------------------------------------------

# a simulated game longer than this raises BudgetExceeded, however much of
# the budget is left; uniform play takes |K| - 1 turns on average, so on a
# |K| far above it most games do
MAX_TURNS = 10 ** 6


def random_play_expectation(ctx: WreathContext) -> Fraction:
    """Closed form for uniform moves over K minus the do-nothing move."""
    return Fraction(ctx.k_size - 1)


def _game_lengths(ctx: WreathContext, rng: random.Random,
                  stats: Optional[SearchStats] = None,
                  *, exclude_constant_backtrack=False) -> Iterator[int]:
    """The turns to win of successive games of uniform random play.

    Each number is drawn straight from ``rng.getrandbits`` by the rejection
    rule of ``randrange(a, b)``: draw r from (b - a).bit_length() bits until
    r < b - a, and take a + r.  A rejected start (one in the win set) or
    move (the one that undoes the last constant move) is drawn again the
    same way, so the games are those of ``randrange`` with the same seed.

    A turn reads a state's move row at the raw draw r of the move r + 1:
    the state the move leads to, -1 if it wins, or None where ``randrange``
    would draw again.  The state's spin row does the same for the spins.
    Play that never backtracks puts the last move in the state: after the
    constant move (g, ..., g) a state s is s + |K| g, whose move row reads
    None at the move that undoes it and whose spin row adds |K| g to each
    image, so one loop plays both models.  Up to ``DENSE_TABLE_CAP`` a row
    is a list made on the first visit to its state and kept until the
    generator ends: a move row from one coordinate map, a spin row from
    the |H| rows of ``_k_act_table``.  Above it no row is kept: each turn
    makes views that work out each entry they are read at through
    ``k_mul`` or ``k_act``.

    Every turn played counts against ``stats.limit`` as a state (see
    ``SearchStats``).  A game unwon after MAX_TURNS turns, or once the
    limit is reached, raises ``BudgetExceeded``, which leaves
    ``states_explored`` at the limit in the second case.  The turns are
    counted locally and added to ``stats`` once, when the generator ends or
    is closed; without ``stats`` only MAX_TURNS caps a game.
    """
    k = ctx.k_size
    win = ctx.win_set
    if len(win) == k:
        raise ContextTooSmall("every state is in the win set")
    low = 1 if 0 in win else 0  # the least start that may be unsolved
    n, m, h_order = ctx.g_group.order, ctx.omega_size, ctx.h_order
    # starts lie in [low, k), moves in [1, k) and spins in [0, |H|); a
    # spin is drawn from one bit even when |H| = 1, as randrange(1) does
    start_bits = (k - low).bit_length()
    move_bits = (k - 1).bit_length()
    spin_bits = h_order.bit_length()
    # without backtracking: |K| g by the draw of each constant move
    # (g, ..., g), and the draw of (g^-1, ..., g^-1), which undoes it, by
    # |K| g
    shift: Dict[int, int] = {}
    undo: Dict[int, int] = {}
    if exclude_constant_backtrack:
        inv = ctx.g_group.inv
        for g in range(1, n):
            shift[ctx.encode([g] * m) - 1] = k * g
            undo[k * g] = ctx.encode([inv[g]] * m) - 1

    if k <= DENSE_TABLE_CAP:
        mul = ctx.g_group.mul
        # the move b with s * b = w has digits divide[s_i][w_i]
        divide = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                divide[x][mul[x][y]] = y
        win_digits = [ctx.decode(w) for w in win]
        move_pad = [None] * ((1 << move_bits) - k + 1)
        # |H| rows of |K| spin images, not the |K| x |K| product table
        images = ctx._k_act_table
        spin_pad = [None] * ((1 << spin_bits) - h_order)

        def move_row(state):
            # the row of s is made once and read by every s + |K| g too
            s = state % k
            row = moves[s]
            if row is None:
                digits = ctx.decode(s)
                row = coordinate_map(n, [mul[x] for x in digits])
                del row[0]  # the move 0 is never drawn
                row += move_pad
                for r, kg in shift.items():
                    row[r] += kg
                for w in win_digits:
                    b = ctx.encode([divide[x][y] for x, y in zip(digits, w)])
                    if b:
                        row[b - 1] = -1
                moves[s] = row
            if s < state:
                row = moves[state] = _Banned(row, undo[state - s])
            return row

        def spin_row(state):
            kg = state - state % k
            row = spins[state] = ([image[state - kg] + kg for image in images]
                                  + spin_pad)
            return row

        # the rows by state, the last constant move included, each made on
        # the first visit to its state and kept
        moves = [None] * (k * n if shift else k)
        spins = moves.copy()
    else:
        last = k - 1  # the draw of the last move

        def move_entry(state, r):
            s = state % k
            if r >= last or s < state and r == undo[state - s]:
                return None
            t = ctx.k_mul(s, r + 1)
            return -1 if t in win else t + shift[r] if r in shift else t

        def spin_entry(state, r):
            if r >= h_order:
                return None
            kg = state - state % k
            return ctx.k_act(r, state - kg) + kg

        def move_row(state):
            return _View(move_entry, state)

        def spin_row(state):
            return _View(spin_entry, state)

        # no row is kept, so each turn makes its two views anew
        moves = spins = _UNKEPT
    getrandbits = rng.getrandbits
    # the turns left of the limit, and the most a game may take: the fewer
    # of MAX_TURNS and those
    room = left = (math.inf if stats is None
                   else max(stats.limit - stats.states_explored, 0))
    cap = min(MAX_TURNS, left)
    try:
        while True:
            state = getrandbits(start_bits) + low
            while state >= k or state in win:
                state = getrandbits(start_bits) + low
            for turn in range(1, cap + 1):
                row = moves[state]
                if row is None:
                    row = move_row(state)
                state = row[getrandbits(move_bits)]
                while state is None:
                    state = row[getrandbits(move_bits)]
                if state < 0:
                    break
                row = spins[state]
                if row is None:
                    row = spin_row(state)
                state = row[getrandbits(spin_bits)]
                while state is None:
                    state = row[getrandbits(spin_bits)]
            else:
                left -= cap
                if cap < MAX_TURNS:  # the limit set the cap
                    raise BudgetExceeded(
                        f"the budget of {stats.limit} turns ran out "
                        f"{cap} turns into a simulated game")
                raise BudgetExceeded(
                    f"a simulated game was still unwon after {cap} turns")
            left -= turn
            if left < cap:
                cap = left
            yield turn
    finally:
        if stats is not None:
            stats.states_explored += room - left


class _View:
    """A row of ``_game_lengths`` that works out each entry when it is read:
    _View(entry, state)[r] is entry(state, r)."""

    __slots__ = ("entry", "state")

    def __init__(self, entry, state):
        self.entry, self.state = entry, state

    def __getitem__(self, r):
        return self.entry(self.state, r)


class _Unkept:
    """The row store of ``_game_lengths`` above the cap: it keeps no row,
    so every read is None."""

    __slots__ = ()

    def __getitem__(self, state):
        return None


_UNKEPT = _Unkept()


class _Banned:
    """A move row that reads None at one draw, that of the move that undoes
    the last one, and the state's own row at every other draw."""

    __slots__ = ("row", "draw")

    def __init__(self, row, draw):
        self.row, self.draw = row, draw

    def __getitem__(self, r):
        return None if r == self.draw else self.row[r]


def monte_carlo_random_play(ctx: WreathContext, trials: int, seed: int,
                            stats: Optional[SearchStats] = None) -> float:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    with contextlib.closing(_game_lengths(ctx, random.Random(seed),
                                          stats)) as games:
        return sum(itertools.islice(games, trials)) / trials


def non_backtracking_expectation(ctx: WreathContext, trials: int, seed: int,
                                 stats: Optional[SearchStats] = None
                                 ) -> float:
    """Random play that never undoes a constant-vector move immediately."""
    if ctx.k_size <= 2:
        raise ContextTooSmall("non-backtracking play needs |K| > 2")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    with contextlib.closing(_game_lengths(
            ctx, random.Random(seed), stats,
            exclude_constant_backtrack=True)) as games:
        return sum(itertools.islice(games, trials)) / trials


# ---------------------------------------------------------------------------
# enumeration and counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnumerationResult:
    """The count of one enumeration and, under ``up_to_h``, of its H-orbits.

    ``sequences`` yields the winning move sequences in the order of the
    pruned prefix walk (ascending moves, depth first).  ``canonical_count``
    is the number of their H-orbits, None unless ``up_to_h``.
    """

    count: int
    canonical_count: Optional[int]
    sequences: Callable[[], Iterator[Tuple[int, ...]]] = field(
        repr=False, compare=False)


def enumerate_strategies(ctx: WreathContext, length: int,
                         *, palindromic=False, minimal_only=False,
                         up_to_h=False, stats: Optional[SearchStats] = None
                         ) -> EnumerationResult:
    """All length-N surjective strategies, counted over distinct beliefs.

    The strategies are the winning leaves of a pruned prefix tree: a prefix
    is a leaf at length N, and is pruned when the remaining moves cannot
    eliminate its belief set (at most |win_set| states disappear per step).
    Palindromic enumeration forces the mirrored half of the sequence.

    A prefix's subtree depends only on its node: its depth, its belief mask
    and, under ``palindromic``, the moves ``moves[:min(depth, N - depth)]``
    that the rest of the sequence must mirror.  A depth-first walk over an
    explicit stack expands each distinct node once and records its totals,
    the winning completions and the prefixes in its subtree, which every
    later prefix with that node reuses.  Each distinct (belief, move, spin)
    is stepped by the kernel once per call.  The result keeps only the
    winning branches, which ``sequences`` reads.  Under ``up_to_h`` their
    orbits under one spin of every move number (1/|H|) sum_h W(h), W(h) the
    paths whose every move h fixes (Burnside): that needs spins that fix the
    win set (else ``ContextMismatch``) and, stepping no belief, no budget.

    Every prefix of the tree counts against ``stats.limit`` as a state (see
    ``SearchStats``), a reused node with its whole subtree at once, so
    ``states_explored`` is the number of prefixes of the tree.  The count
    stops as soon as that running total passes the limit, leaving it at
    the limit; the total is never less than the nodes expanded, so the
    budget bounds the memos and the kernel steps too.
    """
    stats = stats if stats is not None else SearchStats()
    if up_to_h and not ctx.belief_kernel.spins_fix_win:
        raise ContextMismatch("up to spins needs spins that fix the win set")
    if minimal_only and length != minimal_length_bound(ctx):
        return EnumerationResult(count=0, sequences=lambda: iter(()),
                                 canonical_count=0 if up_to_h else None)
    k = ctx.k_size
    win_size = len(ctx.win_set)
    step = ctx.belief_kernel.step
    # the child belief of each (mask, move, spin) stepped so far
    children: Dict[Tuple[int, int, bool], int] = {}
    # per depth, the totals of each node expanded there by its mask:
    # (winning completions, prefixes in its subtree, its winning branches
    # as (move, the child's branches)).  Under palindromic a node past the
    # midpoint, at depth d, also mirrors moves[:N - d], the prefix of its
    # ancestor at depth N - d: opening that ancestor starts a new memo for
    # depth d.  A node before the midpoint mirrors its whole prefix, so no
    # other prefix reaches it and it has no memo.
    memos: Dict[int, Dict[int, Tuple[int, int, list]]] = {}
    won, lost = (1, 1, ()), (0, 1, ())  # a leaf or a pruned prefix
    moves: List[int] = []  # the prefix of the node on top of the stack
    stack = []  # (memo, mask, spin, room, children's memo, options left,
    #             spent and found before it, branches) per open node

    def expand(memo, mask, spent_before, found_before):
        """Open the node of the prefix ``moves`` on the stack."""
        depth = len(moves)
        remaining = length - depth
        mirror = remaining - 1
        if palindromic:
            if depth < remaining:  # the nodes at depth N - depth
                memos[remaining] = {}
            options = (moves[mirror],) if mirror < depth else range(k)
            child_memo = memos.get(depth + 1)
        else:
            options = range(k)
            child_memo = memos.setdefault(depth + 1, {})
        # a child with more than room states is pruned (room 0: a leaf);
        # after the last move only emptiness counts, which spins keep
        stack.append((memo, mask, remaining > 1, mirror * win_size,
                      child_memo, iter(options), spent_before, found_before,
                      []))

    # the running totals of prefixes entered and of winning sequences; the
    # hot loop counts locally and adds its count to stats at the end
    spent, found, limit = 1, 0, stats.limit - stats.states_explored
    root = initial_belief(ctx)
    try:
        if spent > limit:
            raise BudgetExceeded("enumeration budget exceeded")
        if not length or root.bit_count() > length * win_size:
            top = lost if root else won
        else:
            expand(None, root, 0, 0)
        while stack:
            memo, mask, spin, room, child_memo, left, spent_before, \
                found_before, branches = stack[-1]
            for mv in left:
                step_key = (mask, mv, spin)
                child = children.get(step_key)
                if child is None:
                    child = children[step_key] = step(mask, mv, spin)
                if child.bit_count() > room:
                    known = lost
                elif not room:
                    known = won
                elif child_memo is None:
                    known = None
                else:
                    known = child_memo.get(child)
                spent += 1 if known is None else known[1]
                if spent > limit:
                    raise BudgetExceeded("enumeration budget exceeded")
                if known is None:
                    moves.append(mv)
                    expand(child_memo, child, spent - 1, found)
                    break
                if known[0]:
                    found += known[0]
                    branches.append((mv, known[2]))
            else:
                stack.pop()
                # its subtree holds what the running totals gained
                top = (found - found_before, spent - spent_before, branches)
                if memo is not None:
                    memo[mask] = top
                if moves:
                    if top[0]:
                        stack[-1][-1].append((moves[-1], branches))
                    moves.pop()
    finally:
        # a spent budget stops the count at the limit
        stats.states_explored += min(spent, max(limit, 0))
    wins, _, root_branches = top

    def sequences() -> Iterator[Tuple[int, ...]]:
        """The winning sequences in the walk's order: its winning branches."""
        if wins and not length:
            yield ()
        path: List[int] = []
        stack = [iter(root_branches)]
        while stack:
            for mv, branches in stack[-1]:
                path.append(mv)
                if branches:
                    stack.append(iter(branches))
                    break
                yield tuple(path)
                path.pop()
            else:
                stack.pop()
                if path:
                    path.pop()

    canonical_count = wins if up_to_h else None  # W(h) = wins at length 0
    if up_to_h and wins and length:  # W(h)s per branch list, children first
        n = ctx.g_group.order
        images = [coordinate_map(n, [range(n)] * ctx.omega_size, row)
                  for row in ctx.action.act]
        paths = {id(won[2]): [1] * len(images)}  # by id; every leaf is won's
        stack = [root_branches]
        while stack:
            todo = [c for _, c in stack[-1] if id(c) not in paths]
            if not todo:
                branches = stack.pop()
                paths[id(branches)] = [sum(
                    paths[id(c)][h] for mv, c in branches if image[mv] == mv)
                    for h, image in enumerate(images)]
            stack += todo
        canonical_count = sum(paths[id(root_branches)]) // ctx.h_order
    return EnumerationResult(count=wins, canonical_count=canonical_count,
                             sequences=sequences)


def count_minimal_trivial_strategies(ctx: WreathContext) -> int:
    """Count of minimal strategies when the adversary is trivial."""
    result = enumerate_strategies(ctx, minimal_length_bound(ctx))
    return result.count
