import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwreath import groups
from spinwreath.actions import (GroupAction, WreathContext, WreathElement,
                                coordinate_map, cyclic_rotation_action,
                                dihedral_action, natural_symmetric_action,
                                regular_action, trivial_action,
                                wreath_identity, wreath_inverse,
                                wreath_multiply)
from spinwreath.errors import NonFaithfulAction
from spinwreath.puzzle_parser import default_action, parse_expr


def four_switch_ctx():
    return WreathContext(g_group=groups.cyclic(2),
                         action=cyclic_rotation_action(4))


def test_four_switch_quarter_turn_product():
    # ((1,0,1,0), 90deg) * ((1,0,0,0), 180deg) = ((1,0,1,1), 270deg)
    ctx = four_switch_ctx()
    a = WreathElement(ctx=ctx, base=ctx.encode((1, 0, 1, 0)), spin=1)
    b = WreathElement(ctx=ctx, base=ctx.encode((1, 0, 0, 0)), spin=2)
    c = wreath_multiply(a, b)
    assert ctx.decode(c.base) == (1, 0, 1, 1)
    assert c.spin == 3


def test_quarter_turn_moves_coordinates_forward():
    # the 90deg spin carries the switch at position 0 to position 1
    ctx = four_switch_ctx()
    assert ctx.decode(ctx.k_act(1, ctx.encode((1, 0, 0, 0)))) == (0, 0, 0, 1)


@pytest.mark.parametrize("action", [
    cyclic_rotation_action(4), natural_symmetric_action(3),
    dihedral_action(8), regular_action(groups.cyclic(5)), trivial_action(),
])
def test_action_axioms(action):
    m = action.omega_size
    assert action.act[0] == tuple(range(m))
    h = action.h_group
    for a in range(h.order):
        for b in range(h.order):
            composed = tuple(action.act[a][action.act[b][w]] for w in range(m))
            assert action.act[h.mul[a][b]] == composed
    assert action.is_faithful()


def test_natural_actions_list_permutations_in_lex_order():
    # element x of S_n, A_n and D_2n acts on the points as the x-th
    # permutation in lexicographic order, the order groups.py indexes them in
    def sign(p):
        return (-1) ** sum(p[i] > p[j] for i, j in
                           itertools.combinations(range(len(p)), 2))

    for n in range(1, 6):
        perms = sorted(itertools.permutations(range(n)))
        assert natural_symmetric_action(n).act == tuple(perms)
        if n >= 3:
            action = default_action(parse_expr(f"Z2 wr A{n}").h_term)
            assert action.act == tuple(p for p in perms if sign(p) == 1)
    for order in range(4, 17, 2):
        n = order // 2
        perms = {tuple((k + s * i) % n for i in range(n))
                 for k in range(n) for s in (1, -1)}
        assert dihedral_action(order).act == tuple(sorted(perms))


def test_action_compatibility_rejected():
    h = groups.cyclic(2)
    with pytest.raises(ValueError):
        # act[1] has order 3, so act[1] o act[1] != identity = act[1*1]
        GroupAction(h_group=h, omega_size=3, act=((0, 1, 2), (1, 2, 0)))
    with pytest.raises(ValueError):
        GroupAction(h_group=h, omega_size=2, act=((1, 0), (0, 1)))
    # non-faithful is allowed at the GroupAction level; contexts check it
    kernel_only = GroupAction(h_group=h, omega_size=2, act=((0, 1), (0, 1)))
    assert not kernel_only.is_faithful()


def test_non_faithful_context_rejected():
    h = groups.cyclic(4)
    act = tuple((tuple((w + t) % 2 for w in range(2))) for t in range(4))
    action = GroupAction(h_group=h, omega_size=2, act=act)
    assert not action.is_faithful()
    with pytest.raises(NonFaithfulAction):
        WreathContext(g_group=groups.cyclic(2), action=action)
    ctx = WreathContext(g_group=groups.cyclic(2), action=action,
                        allow_non_faithful=True)
    assert ctx.k_size == 4


def test_encode_decode_round_trip():
    ctx = WreathContext(g_group=groups.cyclic(3),
                        action=cyclic_rotation_action(3))
    for i in range(ctx.k_size):
        assert ctx.encode(ctx.decode(i)) == i
    assert ctx.encode((1, 0, 0)) == 9  # omega = 0 is the most significant digit


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_coordinate_map_puts_each_digit_at_its_coordinate(data):
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    ctx = WreathContext(g_group=groups.cyclic(n),
                        action=cyclic_rotation_action(m))
    maps = [data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
            for _ in range(m)]
    row = data.draw(st.none() | st.permutations(range(m)))
    expected = []
    for u in range(ctx.k_size):
        coords = [0] * m
        for w, x in enumerate(ctx.decode(u)):
            coords[w if row is None else row[w]] = maps[w][x]
        expected.append(ctx.encode(coords))
    assert coordinate_map(n, maps, row) == expected


def test_wreath_group_axioms_random_triples():
    rng = random.Random(42)
    contexts = [
        four_switch_ctx(),
        WreathContext(g_group=groups.cyclic(3),
                      action=cyclic_rotation_action(3)),
        WreathContext(g_group=groups.symmetric(3),
                      action=cyclic_rotation_action(2)),
    ]
    for ctx in contexts:
        h_order = ctx.h_order
        ident = wreath_identity(ctx)
        for _ in range(10_000):
            xs = [WreathElement(ctx=ctx, base=rng.randrange(ctx.k_size),
                                spin=rng.randrange(h_order))
                  for _ in range(3)]
            a, b, c = xs
            left = wreath_multiply(wreath_multiply(a, b), c)
            right = wreath_multiply(a, wreath_multiply(b, c))
            assert left == right
            assert wreath_multiply(a, ident) == a
            assert wreath_multiply(ident, a) == a
            inv = wreath_inverse(a)
            assert wreath_multiply(a, inv) == ident
            assert wreath_multiply(inv, a) == ident


def test_orbit_masks_are_h_closed():
    ctx = four_switch_ctx()
    for i in range(ctx.k_size):
        mask = ctx.orbit_masks[i]
        for h in range(ctx.h_order):
            assert (mask >> ctx.k_act(h, i)) & 1
