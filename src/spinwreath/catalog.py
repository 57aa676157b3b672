"""Named puzzle instances and published move sequences used across tests."""

from __future__ import annotations

from . import groups
from .actions import WreathContext, cyclic_rotation_action
from .strategies import Strategy, strategy_from_coords


def four_switches_context() -> WreathContext:
    """Four on/off switches on a rotating square table."""
    return WreathContext(g_group=groups.cyclic(2),
                         action=cyclic_rotation_action(4),
                         name="Z2wrC4")


# The classical 15-move solution: A toggles all four switches, D a diagonal
# pair, S an adjacent pair, and "one" a single switch, interleaved as
# (A, D, A, S, A, D, A, one, A, D, A, S, A, D, A).
ALL = (1, 1, 1, 1)
DIAGONAL = (1, 0, 1, 0)
SIDE = (1, 0, 0, 1)
ONE = (1, 0, 0, 0)

FOUR_SWITCHES_MOVES = (
    ALL, DIAGONAL, ALL, SIDE, ALL, DIAGONAL, ALL,
    ONE,
    ALL, DIAGONAL, ALL, SIDE, ALL, DIAGONAL, ALL,
)


def four_switches_strategy(ctx: WreathContext = None) -> Strategy:
    if ctx is None:
        ctx = four_switches_context()
    return strategy_from_coords(ctx, FOUR_SWITCHES_MOVES)
