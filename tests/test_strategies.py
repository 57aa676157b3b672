import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwreath import catalog, groups
from spinwreath.actions import (DENSE_TABLE_CAP, GroupAction, WreathContext,
                                cyclic_rotation_action, dihedral_action,
                                natural_symmetric_action, permutation_action,
                                regular_action, spin_transversals,
                                trivial_action)
from spinwreath.analysis import enumerate_strategies
from spinwreath.errors import BudgetExceeded, InputStrategyInvalid
from spinwreath.strategies import (Strategy, bits, initial_belief, interleave,
                                   minimal_length_bound, strategy_from_coords,
                                   verify, verify_naive)
from spinwreath.synthesis import SearchStats, search_belief_path, swap_action


def ctx_z2c2():
    return WreathContext(g_group=groups.cyclic(2),
                         action=cyclic_rotation_action(2))


# -- interleave --------------------------------------------------------------

def test_interleave_layout():
    ctx = ctx_z2c2()
    a = Strategy(ctx=ctx, moves=(1, 2))
    b = Strategy(ctx=ctx, moves=(3,))
    assert interleave(a, b).moves == (1, 2, 3, 1, 2)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=0, max_value=20),
       m=st.integers(min_value=0, max_value=20))
def test_interleave_length_formula(n, m):
    ctx = ctx_z2c2()
    a = Strategy(ctx=ctx, moves=(1,) * n)
    b = Strategy(ctx=ctx, moves=(2,) * m)
    assert len(interleave(a, b)) == m * n + m + n


# -- belief-state mechanics --------------------------------------------------

def test_two_switch_belief_walkthrough():
    # the classic 3-move solution: both, one, both
    ctx = ctx_z2c2()
    step = ctx.belief_kernel.step
    mask = initial_belief(ctx)
    assert set(bits(mask)) == {1, 2, 3}
    mask = step(mask, ctx.encode((1, 1)))  # kills (1,1)
    assert set(bits(mask)) == {1, 2}
    mask = step(mask, ctx.encode((1, 0)))  # kills one, spreads
    assert set(bits(mask)) == {3}
    mask = step(mask, ctx.encode((1, 1)))
    assert mask == 0


def test_belief_sets_stay_h_closed_and_shrink_slowly():
    rng = random.Random(7)
    ctx = WreathContext(g_group=groups.cyclic(2),
                        action=cyclic_rotation_action(3))
    for _ in range(200):
        mask = initial_belief(ctx)
        for _ in range(12):
            new = ctx.belief_kernel.step(mask, rng.randrange(ctx.k_size))
            members = set(bits(new))
            # closed under every spin
            for s in members:
                for h in range(ctx.h_order):
                    assert ctx.k_act(h, s) in members
            # the move is injective on K, so at most |win_set| states go
            assert len(members) >= len(set(bits(mask))) - len(ctx.win_set)
            mask = new


def _reference_step(ctx, mask, move, spin):
    """The per-bit belief step, written from k_mul, k_act and the win set."""
    out = 0
    for s in range(ctx.k_size):
        if (mask >> s) & 1:
            t = ctx.k_mul(s, move)
            if t not in ctx.win_set:
                for h in range(ctx.h_order if spin else 1):
                    out |= 1 << ctx.k_act(h, t)
    return out


def _kernel_contexts():
    z = groups.cyclic
    klein = groups.direct_product(z(2), z(2))
    c4_through_c2 = GroupAction(
        h_group=z(4), omega_size=2,
        act=tuple(tuple((w + t) % 2 for w in range(2)) for t in range(4)),
        name="C4-through-C2")
    contexts = [WreathContext(g_group=z(order), action=cyclic_rotation_action(n))
                for order, n in [(2, 2), (2, 3), (2, 4), (2, 6), (2, 8), (3, 2),
                                 (3, 3), (4, 2), (4, 4), (6, 3)]]
    contexts += [WreathContext(g_group=g, action=trivial_action())
                 for g in (z(2), z(3), z(4), z(5), z(8), groups.symmetric(3))]
    contexts += [
        WreathContext(g_group=klein, action=swap_action()),
        WreathContext(g_group=groups.direct_product(klein, z(2)),
                      action=swap_action()),
        WreathContext(g_group=z(2), action=regular_action(klein)),
        WreathContext(g_group=groups.symmetric(3), action=swap_action()),
        WreathContext(g_group=z(2), action=swap_action(), win_set={0, 3}),
        WreathContext(g_group=groups.loop5(), action=swap_action()),
        WreathContext(g_group=z(2), action=cyclic_rotation_action(4),
                      win_set={0, 5}),
        WreathContext(g_group=z(2), action=c4_through_c2,
                      allow_non_faithful=True),
        WreathContext(g_group=z(2), action=natural_symmetric_action(3)),
        WreathContext(g_group=z(3), action=dihedral_action(8)),
        WreathContext(g_group=groups.symmetric(4),
                      action=cyclic_rotation_action(3)),
        # nonabelian H whose spin closure takes several levels
        WreathContext(g_group=z(2), action=dihedral_action(16)),
        WreathContext(g_group=z(2), action=natural_symmetric_action(4)),
        WreathContext(g_group=z(2), action=permutation_action(
            groups.alternating(4), "A4-natural")),
        # its chain has a right transversal that is not a left one
        WreathContext(g_group=z(2), action=permutation_action(
            groups.alternating(5), "A5-natural")),
    ]
    return {f"{ctx.g_group.name}-{ctx.action.name}-win{sorted(ctx.win_set)}": ctx
            for ctx in contexts}


KERNEL_CONTEXTS = _kernel_contexts()


@pytest.mark.parametrize("label", sorted(KERNEL_CONTEXTS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_kernel_matches_the_per_bit_step(label, data):
    # random masks, most of them not closed under spins
    ctx = KERNEL_CONTEXTS[label]
    mask = data.draw(st.integers(min_value=0, max_value=(1 << ctx.k_size) - 1))
    move = data.draw(st.integers(min_value=0, max_value=ctx.k_size - 1))
    spin = data.draw(st.booleans())
    assert ctx.belief_kernel.step(mask, move, spin) == \
        _reference_step(ctx, mask, move, spin)


def _prime_power(order):
    """(p, e) with order == p ** e, or None."""
    p = next(d for d in range(2, order + 1) if order % d == 0)
    e = 0
    while order % p == 0:
        order, e = order // p, e + 1
    return (p, e) if order == 1 else None


@pytest.mark.parametrize("label", sorted(KERNEL_CONTEXTS))
def test_transversal_products_give_each_row_once(label):
    # closing level by level reaches the image under r_1∘r_2∘...∘r_k for
    # each choice of one row per level, the identity included: those
    # products must be the distinct rows of the action, each exactly once
    action = KERNEL_CONTEXTS[label].action
    ident = action.act[0]
    levels = spin_transversals(action)
    products = [ident]
    for level in levels:
        assert ident not in level
        products = [tuple(p[w] for w in r)
                    for p in products for r in (ident,) + level]
    assert sorted(products) == sorted(set(action.act))
    images = len(set(action.act))
    if images > 1 and _prime_power(images):
        p, e = _prime_power(images)
        assert sum(map(len, levels)) == (p - 1) * e


@pytest.mark.parametrize("action,images", [
    (cyclic_rotation_action(8), 3), (cyclic_rotation_action(16), 4),
    (dihedral_action(16), 4), (cyclic_rotation_action(3), 2),
])
def test_spin_closure_takes_p_minus_one_images_per_level(action, images):
    # |H| - 1 images, one per row, would be 7, 15, 15 and 2
    assert sum(map(len, spin_transversals(action))) == images


def test_spin_closure_of_a5_takes_one_image_per_coset():
    # the chain 1 < C2 < V4 < A4 < A5 has indices 2, 2, 3 and 5; a chain
    # that jumped from V4 to A5 would take 1 + 1 + 14 images
    action = permutation_action(groups.alternating(5), "A5-natural")
    assert [len(level) for level in spin_transversals(action)] == [1, 1, 2, 4]


@pytest.mark.parametrize("action,swaps", [
    (cyclic_rotation_action(8), 17), (dihedral_action(16), 13),
    (natural_symmetric_action(4), 6), (dihedral_action(10), 10),
])
def test_each_coset_is_represented_by_its_cheapest_row(action, swaps):
    # with switches Z2 a delta swap is a transposition of two coordinates;
    # the least member of each coset would cost 7 on S4 and 14 on D10, and
    # one image per row 44, 72, 46 and 26
    kernel = WreathContext(g_group=groups.cyclic(2),
                           action=action).belief_kernel
    assert sum(len(row) for level in kernel._levels for row in level) == swaps


@pytest.mark.parametrize("label", sorted(KERNEL_CONTEXTS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_kernel_inverses_match_k_inv(label, data):
    ctx = KERNEL_CONTEXTS[label]
    mask = data.draw(st.integers(min_value=0, max_value=(1 << ctx.k_size) - 1))
    image = sum(1 << ctx.k_inv(s) for s in range(ctx.k_size) if (mask >> s) & 1)
    assert ctx.belief_kernel.inverses(mask) == image


def _spins_fix_win(ctx):
    return all(ctx.k_act(h, w) in ctx.win_set
               for h in range(ctx.h_order) for w in ctx.win_set)


@pytest.mark.parametrize("label", sorted(KERNEL_CONTEXTS))
def test_kernel_knows_whether_spins_fix_the_win_set(label):
    ctx = KERNEL_CONTEXTS[label]
    assert ctx.belief_kernel.spins_fix_win == _spins_fix_win(ctx)


@pytest.mark.parametrize("label", sorted(label for label, ctx
                                         in KERNEL_CONTEXTS.items()
                                         if _spins_fix_win(ctx)))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_spun_moves_step_h_closed_masks_alike(label, data):
    # the premise of the belief search's H-orbit pruning: on a mask closed
    # under spins, a move and its spun images step to the same mask, and
    # the eliminating moves are a union of H-orbits
    ctx = KERNEL_CONTEXTS[label]
    kernel = ctx.belief_kernel
    orbits = set(ctx.orbit_masks)
    mask = sum(data.draw(st.sets(st.sampled_from(sorted(orbits)))))
    move = data.draw(st.integers(min_value=0, max_value=ctx.k_size - 1))
    eliminating = kernel.inverses(mask)
    for h in range(ctx.h_order):
        spun = ctx.k_act(h, move)
        assert kernel.step(mask, spun) == kernel.step(mask, move)
        assert (eliminating >> spun) & 1 == (eliminating >> move) & 1


@pytest.mark.parametrize("label", sorted(KERNEL_CONTEXTS))
def test_orbit_minima_hold_the_least_member_of_each_orbit(label):
    ctx = KERNEL_CONTEXTS[label]
    least = {min(bits(orbit)) for orbit in ctx.orbit_masks}
    assert ctx.belief_kernel.orbit_minima == sum(1 << s for s in least)


@pytest.mark.parametrize("label", sorted(KERNEL_CONTEXTS))
def test_dense_tables_match_their_definitions(label):
    ctx = KERNEL_CONTEXTS[label]
    g, action, m = ctx.g_group, ctx.action, ctx.omega_size
    h_inv = action.h_group.inv
    coords = [ctx.decode(a) for a in range(ctx.k_size)]
    # above the cap k_mul reads no table, and S4 wr C3's would hold |K|^2
    # = 191M entries
    if ctx.k_size <= DENSE_TABLE_CAP:
        assert [list(row) for row in ctx._k_mul_table] == [
            [ctx.encode([g.mul[x][y] for x, y in zip(a, b)]) for b in coords]
            for a in coords]
    assert list(ctx._k_inv_table) == [ctx.encode([g.inv[x] for x in a])
                                      for a in coords]
    assert [list(row) for row in ctx._k_act_table] == [
        [ctx.encode([a[action.act[h_inv[h]][w]] for w in range(m)])
         for a in coords]
        for h in range(ctx.h_order)]


@pytest.mark.parametrize("g_order,n", [(2, 8), (32, 2)])
def test_belief_consumers_build_no_dense_tables(g_order, n):
    ctx = WreathContext(g_group=groups.cyclic(g_order),
                        action=cyclic_rotation_action(n))
    verify(ctx, Strategy(ctx=ctx, moves=tuple(range(1, 40))))
    with pytest.raises(BudgetExceeded):
        search_belief_path(ctx, stats=SearchStats(limit=20))
    with pytest.raises(BudgetExceeded):
        enumerate_strategies(ctx, minimal_length_bound(ctx),
                             stats=SearchStats(limit=20))
    for table in ("_k_mul_table", "_k_act_table", "_k_inv_table",
                  "orbit_masks"):
        assert table not in ctx.__dict__


# -- verification ------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _winning_path(label, max_depth, spin_period):
    return search_belief_path(KERNEL_CONTEXTS[label], max_depth=max_depth,
                              spin_period=spin_period)


@pytest.mark.parametrize("label", sorted(label for label, ctx
                                         in KERNEL_CONTEXTS.items()
                                         if ctx.k_size <= 16))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_verify_agrees_with_verify_naive(label, data):
    ctx = KERNEL_CONTEXTS[label]
    # at most 4096 spin paths, so verify_naive stays quick
    longest = max(n for n in range(1, 9) if ctx.h_order ** n <= 4096)
    moves = data.draw(st.lists(st.integers(0, ctx.k_size - 1),
                               max_size=longest))
    period = data.draw(st.sampled_from([None, 2, 3]))
    path = _winning_path(label, longest, period)
    if path and data.draw(st.booleans()):
        # a winning path, in half of these cases with one move replaced
        moves = list(path)
        if data.draw(st.booleans()):
            moves[data.draw(st.integers(0, len(moves) - 1))] = data.draw(
                st.integers(0, ctx.k_size - 1))
    strat = Strategy(ctx=ctx, moves=tuple(moves))
    assert verify(ctx, strat, spin_period=period).valid == verify_naive(
        ctx, strat, budget=ctx.h_order ** len(moves), spin_period=period)


@pytest.mark.parametrize("moves", [(7, 5, 7), (3, 1, -1), (4,), (-4,),
                                   (3, 1, 3, 7), (3, 1, 3, -1)])
def test_verify_refuses_moves_outside_k(moves):
    # the kernel would read only a move's low base-|G| digits; (3, 1, 3)
    # wins, so the moves after it are never stepped
    ctx = ctx_z2c2()
    strat = Strategy(ctx=ctx, moves=moves)
    with pytest.raises(InputStrategyInvalid, match="not a base vector"):
        verify(ctx, strat)
    with pytest.raises(InputStrategyInvalid, match="not a base vector"):
        verify_naive(ctx, strat)
    assert verify(ctx, Strategy(ctx=ctx, moves=(3, 1, 3))).valid


def test_four_switch_fifteen_move_solution():
    ctx = catalog.four_switches_context()
    strat = catalog.four_switches_strategy(ctx)
    report = verify(ctx, strat)
    assert report.valid
    assert report.minimal and len(strat) == 15 == ctx.k_size - 1
    assert max(report.solved_at.values()) == 15


def test_verify_rejects_truncations():
    ctx = catalog.four_switches_context()
    strat = catalog.four_switches_strategy(ctx)
    for cut in (14, 10, 1, 0):
        assert not verify(ctx, Strategy(ctx=ctx, moves=strat.moves[:cut])).valid


def test_minimal_bound_accounts_for_win_set():
    ctx = WreathContext(g_group=groups.cyclic(2),
                        action=cyclic_rotation_action(2),
                        win_set={0, 3})
    # a single move can finish both unsolved states at once
    assert minimal_length_bound(ctx) == 1
    assert verify(ctx, Strategy(ctx=ctx, moves=(1,))).minimal


def test_no_strategy_shorter_than_bound_exhaustive():
    # Prop-style lower bound: exhaustively confirm nothing shorter works
    for ctx in [ctx_z2c2(),
                WreathContext(g_group=groups.cyclic(4),
                              action=cyclic_rotation_action(1))]:
        bound = minimal_length_bound(ctx)
        for length in range(bound):
            for moves in itertools.product(range(ctx.k_size), repeat=length):
                assert not verify(ctx, Strategy(ctx=ctx, moves=moves)).valid


def test_oracle_equivalence_exhaustive_z2c2():
    ctx = ctx_z2c2()
    for moves in itertools.product(range(4), repeat=4):
        strat = Strategy(ctx=ctx, moves=moves)
        assert verify(ctx, strat).valid == verify_naive(ctx, strat)


def _solved_at_brute_force(ctx, moves, spin_period):
    """First i by which every spin sequence has put s in the win set."""
    def spins(i):
        if spin_period is None or i % spin_period == 0:
            return range(ctx.h_order)
        return (0,)

    def worst_hit(s, i):
        # latest move at which s, about to face move i, is solved on some
        # spin path; None if some path leaves it unsolved after every move
        if i > len(moves):
            return None
        t = ctx.k_mul(s, moves[i - 1])
        if t in ctx.win_set:
            return i
        worst = i
        for h in spins(i):
            hit = worst_hit(ctx.k_act(h, t), i + 1)
            if hit is None:
                return None
            worst = max(worst, hit)
        return worst

    return {s: worst_hit(s, 1)
            for s in range(ctx.k_size) if s not in ctx.win_set}


@pytest.mark.parametrize("g,n,seed,spin_period",
                         [(groups.cyclic(2), 3, 101, None),
                          (groups.cyclic(3), 2, 202, None),
                          (groups.cyclic(2), 3, 303, 2),
                          (groups.symmetric(3), 2, 404, None),
                          (groups.symmetric(3), 2, 505, 3)],
                         ids=["2-3-101", "3-2-202", "2-3-303-period2",
                              "S3-2-404", "S3-2-505-period3"])
def test_oracle_equivalence_random(g, n, seed, spin_period):
    ctx = WreathContext(g_group=g, action=cyclic_rotation_action(n))
    rng = random.Random(seed)
    agreements = 0
    for _ in range(500):
        length = rng.randrange(0, 8)
        strat = Strategy(ctx=ctx,
                         moves=tuple(rng.randrange(ctx.k_size)
                                     for _ in range(length)))
        report = verify(ctx, strat, spin_period=spin_period)
        assert report.valid == verify_naive(ctx, strat,
                                            spin_period=spin_period)
        assert report.solved_at == _solved_at_brute_force(
            ctx, strat.moves, spin_period)
        agreements += 1
    assert agreements == 500


def test_spin_period_relaxes_the_game():
    # Z2 wr C3 is unsolvable with spins every turn; with a period longer than
    # the strategy no spins happen at all, so a Gray-code walk through the
    # seven nonzero configurations wins
    ctx = WreathContext(g_group=groups.cyclic(2),
                        action=cyclic_rotation_action(3))
    strat = strategy_from_coords(ctx, [
        (0, 0, 1), (0, 1, 1), (0, 0, 1), (1, 1, 1), (0, 0, 1), (0, 1, 1),
        (0, 0, 1),
    ])
    assert not verify(ctx, strat).valid
    assert verify(ctx, strat, spin_period=len(strat) + 1).valid
    assert verify_naive(ctx, strat, spin_period=len(strat) + 1)


def test_strategy_round_trips_and_palindromes():
    ctx = catalog.four_switches_context()
    strat = catalog.four_switches_strategy(ctx)
    assert strat.moves == strat.moves[::-1]
    assert strategy_from_coords(ctx, strat.coords()) == strat


@pytest.mark.parametrize("g", [groups.cyclic(2), groups.loop5()],
                         ids=["Z2", "loop5"])
@pytest.mark.parametrize("spin_period", [500, 1500])
def test_verify_naive_walks_long_strategies_without_recursing(g, spin_period):
    # 1,500 moves with spins on a few turns only: both enumerations walk
    # one path 1,500 turns deep, far past Python's recursion limit, and the
    # loop switches take the direct simulation rather than the projection
    ctx = WreathContext(g_group=g, action=swap_action())
    assert ctx.loop_mode == (g.order == 5)
    path = search_belief_path(ctx, spin_period=1500)
    for moves in (path, (), path[:-1]):
        strat = Strategy(ctx=ctx, moves=moves + (0,) * (1500 - len(moves)))
        assert verify_naive(ctx, strat, spin_period=spin_period) == verify(
            ctx, strat, spin_period=spin_period).valid
    # the winning path padded with identity moves wins under either period
    assert verify_naive(ctx, Strategy(ctx=ctx, moves=path + (0,) * (
        1500 - len(path))), spin_period=spin_period)
