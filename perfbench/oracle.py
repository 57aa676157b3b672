"""Answer checks that share no code with spinwreath's belief engine.

A puzzle is given by its switch group's multiplication table ``mul``, the
spin group as a list of permutations of the positions, and the winning set
as coordinate tuples.  Belief sets are plain Python sets of coordinate
tuples, so none of spinwreath's index encoding, bit masks or |K|^2 tables
is involved.  Only the group tables themselves come from the library.
"""

from __future__ import annotations

import itertools
from collections import Counter


def tables(ctx):
    """``(mul, perms, win)`` of a spinwreath context, in the form taken here."""
    mul = ctx.g_group.mul
    perms = [tuple(row) for row in ctx.action.act]
    win = {ctx.decode(w) for w in ctx.win_set}
    return mul, perms, win


def _step(mul, perms, win, belief, move, spin):
    moved = {tuple(mul[a][b] for a, b in zip(state, move)) for state in belief}
    moved -= win
    if not spin:
        return frozenset(moved)
    # the adversary may apply any spin; over a whole group the direction of
    # the action does not matter
    return frozenset(tuple(t[p] for p in perm) for t in moved for perm in perms)


def start_belief(n_g, omega, win):
    return frozenset(s for s in itertools.product(range(n_g), repeat=omega)
                     if s not in win)


def strategy_wins(mul, perms, win, moves, *, spin_period=None) -> bool:
    """True when every starting state is solved on every spin sequence."""
    belief = start_belief(len(mul), len(perms[0]), win)
    for i, move in enumerate(moves, start=1):
        if not belief:
            break
        spin = spin_period is None or i % spin_period == 0
        belief = _step(mul, perms, win, belief, tuple(move), spin)
    return not belief


def count_winning(mul, perms, win, length) -> int:
    """Number of length-``length`` move sequences that win.

    Dynamic programme over belief sets; a set larger than the number of
    states the remaining moves can still solve is dropped.
    """
    omega = len(perms[0])
    moves = list(itertools.product(range(len(mul)), repeat=omega))
    layer = Counter({start_belief(len(mul), omega, win): 1})
    for depth in range(length):
        remaining = length - depth
        nxt = Counter()
        for belief, ways in layer.items():
            if len(belief) > remaining * len(win):
                continue
            for move in moves:
                nxt[_step(mul, perms, win, belief, move, True)] += ways
        layer = nxt
    return layer.get(frozenset(), 0)
