import inspect
import itertools
import random
import sys
from collections import deque

import pytest

from spinwreath import decision, groups, synthesis
from spinwreath.actions import (WreathContext, cyclic_rotation_action,
                                regular_action, trivial_action)
from spinwreath.errors import (DoesNotGenerate, LiftedStrategyFailedVerification,
                               NotAPermutation, NotInvolutionGenerated,
                               NotSamePrime)
from spinwreath.strategies import Strategy, initial_belief, verify


# -- trivial wreath walks ----------------------------------------------------

def test_trivial_z2_is_the_single_move():
    strat = synthesis.construct_trivial(groups.cyclic(2), (1,))
    assert strat.moves == (1,)
    assert verify(strat.ctx, strat).minimal


def test_trivial_z3_orderings_give_distinct_strategies():
    g = groups.cyclic(3)
    a = synthesis.construct_trivial(g, (1, 2))
    b = synthesis.construct_trivial(g, (2, 1))
    assert a.moves != b.moves
    for s in (a, b):
        assert verify(s.ctx, s).valid and len(s) == 2


def test_trivial_s3_every_ordering_verifies():
    g = groups.symmetric(3)
    rng = random.Random(11)
    perms = list(itertools.permutations(range(1, 6)))
    for perm in rng.sample(perms, 40):
        strat = synthesis.construct_trivial(g, perm)
        report = verify(strat.ctx, strat)
        assert report.valid and report.minimal


def test_trivial_rejects_bad_perm():
    with pytest.raises(NotAPermutation):
        synthesis.construct_trivial(groups.cyclic(3), (1, 1))
    with pytest.raises(NotAPermutation):
        synthesis.construct_trivial(groups.cyclic(3), (0, 1, 2))


# -- covering walks ----------------------------------------------------------

def test_covering_walk_s3_transpositions_is_hamiltonian():
    g = groups.symmetric(3)
    t12 = g.labels.index('(1 2)')
    t13 = g.labels.index('(1 3)')
    walk = synthesis.covering_walk(g, [t12, t13])
    assert walk.is_hamiltonian and len(walk.steps) == 5
    assert sorted(walk.prefix_products) == list(range(6))


def test_covering_walk_z2_and_klein():
    walk = synthesis.covering_walk(groups.cyclic(2), [1])
    assert walk.step_elements() == (1,)
    klein = groups.direct_product(groups.cyclic(2), groups.cyclic(2))
    walk = synthesis.covering_walk(klein, [1, 2])
    assert walk.is_hamiltonian and len(walk.steps) == 3


def test_covering_walk_greedy_fallback_still_covers():
    g = groups.symmetric(4)
    t = [g.labels.index(lbl) for lbl in ('(1 2)', '(2 3)', '(3 4)')]
    walk = synthesis.covering_walk(g, t, budget=1)  # force the fallback
    assert set(walk.prefix_products) == set(range(24))


def test_covering_walk_rejects_non_generating_sets():
    with pytest.raises(DoesNotGenerate):
        synthesis.covering_walk(groups.cyclic(4), [2])
    with pytest.raises(DoesNotGenerate):
        synthesis.covering_walk(groups.symmetric(3), [])


# -- two interchangeable switches --------------------------------------------

def test_involution_pair_z2_is_the_classic_three_mover():
    strat = synthesis.construct_involution_pair(groups.cyclic(2))
    assert strat.coords() == ((1, 1), (1, 0), (1, 1))
    assert verify(strat.ctx, strat).minimal


def test_involution_pair_klein_is_minimal_fifteen():
    klein = groups.direct_product(groups.cyclic(2), groups.cyclic(2))
    strat = synthesis.construct_involution_pair(klein)
    report = verify(strat.ctx, strat)
    assert report.valid and report.minimal and len(strat) == 15


def test_involution_pair_needs_involution_generators():
    with pytest.raises(NotInvolutionGenerated):
        synthesis.construct_involution_pair(groups.cyclic(3))


def test_involution_pair_fails_for_s3():
    # The doubled-block/separator pattern only controls the difference
    # a b^-1 of a hidden state (a, b) when G is abelian: a doubled move
    # (t, t) keeps it, but a separator (t, e) turns it into
    # (a t a^-1)(a b^-1), which depends on the hidden a.  So for S3 no
    # interleaving of this shape works -- and in fact exhaustive belief
    # search shows S3 with two swapped positions has no surjective strategy
    # at all (see test_decision.py).
    with pytest.raises(LiftedStrategyFailedVerification):
        synthesis.construct_involution_pair(groups.symmetric(3))


# -- decomposition along a normal subgroup -----------------------------------

def test_decomposition_z4_over_its_two_element_subgroup():
    g = groups.cyclic(4)
    ctx = WreathContext(g_group=g, action=cyclic_rotation_action(2))
    n = next(s for s in groups.normal_subgroups(g) if len(s.members) == 2)
    ctx_n = WreathContext(g_group=groups.subgroup_as_group(n),
                          action=ctx.action)
    quot, _reps, _proj = groups.quotient(g, n)
    ctx_q = WreathContext(g_group=quot, action=ctx.action)
    strat_n = synthesis.construct_pgroup(ctx_n)
    strat_q = synthesis.construct_pgroup(ctx_q)
    strat = synthesis.construct_by_decomposition(ctx, n, strat_n, strat_q)
    report = verify(ctx, strat)
    assert report.valid and len(strat) == 15 and report.minimal


# -- p-group construction ----------------------------------------------------

@pytest.mark.parametrize("g,n,length", [
    (groups.cyclic(2), 2, 3),
    (groups.cyclic(2), 4, 15),
    (groups.cyclic(4), 2, 15),
    (groups.cyclic(3), 3, 26),
])
def test_pgroup_lengths_are_minimal(g, n, length):
    ctx = WreathContext(g_group=g, action=cyclic_rotation_action(n))
    strat = synthesis.construct_pgroup(ctx)
    report = verify(ctx, strat)
    assert report.valid and report.minimal and len(strat) == length


def test_pgroup_with_klein_spins():
    klein = groups.direct_product(groups.cyclic(2), groups.cyclic(2))
    ctx = WreathContext(g_group=groups.cyclic(2),
                        action=regular_action(klein))
    strat = synthesis.construct_pgroup(ctx)
    report = verify(ctx, strat)
    assert report.valid and report.minimal and len(strat) == 15


def test_pgroup_rejects_mixed_primes():
    with pytest.raises(NotSamePrime):
        synthesis.construct_pgroup(
            WreathContext(g_group=groups.cyclic(6),
                          action=cyclic_rotation_action(2)))
    with pytest.raises(NotSamePrime):
        synthesis.construct_pgroup(
            WreathContext(g_group=groups.cyclic(2),
                          action=cyclic_rotation_action(3)))


def test_pgroup_trivial_spin_group_is_allowed():
    # p-groups over a trivial H degenerate to a walk of G
    ctx = WreathContext(g_group=groups.cyclic(8), action=trivial_action())
    strat = synthesis.construct_pgroup(ctx)
    assert verify(ctx, strat).minimal and len(strat) == 7


# -- transport ---------------------------------------------------------------

def test_transport_through_quotient_projection():
    g = groups.cyclic(4)
    n = next(s for s in groups.normal_subgroups(g) if len(s.members) == 2)
    quot, _reps, proj = groups.quotient(g, n)
    src_ctx = WreathContext(g_group=g, action=cyclic_rotation_action(2))
    strat = synthesis.construct_pgroup(src_ctx)
    target_ctx = WreathContext(g_group=quot, action=cyclic_rotation_action(2))
    out = synthesis.transport_strategy(proj, strat, target_ctx)
    assert verify(target_ctx, out).valid
    assert len(out) == len(strat)


# -- belief search -----------------------------------------------------------

def test_search_finds_the_three_move_solution():
    ctx = WreathContext(g_group=groups.cyclic(2),
                        action=cyclic_rotation_action(2))
    strat = decision.decide_by_search(ctx).strategy
    assert verify(ctx, strat).valid and len(strat) == 3


def test_search_exhausts_on_z2_wr_c3():
    ctx = WreathContext(g_group=groups.cyclic(2),
                        action=cyclic_rotation_action(3))
    stats = synthesis.SearchStats()
    path = synthesis.search_belief_path(ctx, stats=stats)
    assert path is None and stats.exhausted
    assert decision.decide_by_search(ctx).verdict == "no"


def test_search_solves_the_four_switch_puzzle():
    ctx = WreathContext(g_group=groups.cyclic(2),
                        action=cyclic_rotation_action(4))
    strat = decision.decide_by_search(ctx).strategy
    assert verify(ctx, strat).valid


def test_search_respects_max_depth():
    ctx = WreathContext(g_group=groups.cyclic(2),
                        action=cyclic_rotation_action(2))
    assert synthesis.search_belief_path(ctx, max_depth=2) is None
    assert len(synthesis.search_belief_path(ctx, max_depth=3)) == 3


def test_search_with_spin_period_uses_waiting_moves():
    # with spins every other turn the searcher may pass (move by the
    # identity) to line up eliminations with quiet turns
    ctx = WreathContext(g_group=groups.cyclic(2),
                        action=cyclic_rotation_action(3))
    strat = decision.decide_by_search(ctx, spin_period=3).strategy
    assert verify(ctx, strat, spin_period=3).valid
    assert not verify(ctx, strat).valid


def test_search_leaves_the_recursion_limit_alone():
    # the search keeps its own stack, so a limit just above the caller's
    # depth suffices, and the process-wide limit is not raised
    saved = sys.getrecursionlimit()
    lowered = len(inspect.stack(0)) + 60
    sys.setrecursionlimit(lowered)
    try:
        s3 = WreathContext(g_group=groups.symmetric(3),
                           action=synthesis.swap_action())
        stats = synthesis.SearchStats()
        assert synthesis.search_belief_path(s3, stats=stats) is None
        assert stats.exhausted and stats.states_explored == 704
        ctx = WreathContext(g_group=groups.cyclic(2),
                            action=cyclic_rotation_action(4))
        path = synthesis.search_belief_path(ctx, max_depth=20)
        limit = sys.getrecursionlimit()
    finally:
        sys.setrecursionlimit(saved)
    assert limit == lowered
    assert path is not None and len(path) <= 20
    assert verify(ctx, Strategy(ctx=ctx, moves=path)).valid


def _shortest_win(ctx, spin_period):
    """Fewest moves that empty the belief set, by breadth-first search over
    (belief mask, phase) through every move; None when none does."""
    period = spin_period or 1
    start = (initial_belief(ctx), 0)
    depth = {start: 0}
    queue = deque([start])
    while queue:
        mask, phase = queue.popleft()
        nxt = (phase + 1) % period
        for mv in range(ctx.k_size):
            new = ctx.belief_kernel.step(mask, mv, nxt == 0)
            if new == 0:
                return depth[(mask, phase)] + 1
            if (new, nxt) not in depth:
                depth[(new, nxt)] = depth[(mask, phase)] + 1
                queue.append((new, nxt))
    return None


def test_search_under_a_spin_period_tries_the_identity():
    # every (belief mask, phase) node reachable through every move, the
    # identity included; Z2 wr C3 has no strategy with spins every other
    # turn, so the search must enter each of them once.  Without the
    # identity it would reach 12 of the 13.
    ctx = WreathContext(g_group=groups.cyclic(2),
                        action=cyclic_rotation_action(3))
    start = (initial_belief(ctx), 0)
    seen, queue = {start}, deque([start])
    while queue:
        mask, phase = queue.popleft()
        nxt = (phase + 1) % 2
        for mv in range(ctx.k_size):
            node = (ctx.belief_kernel.step(mask, mv, nxt == 0), nxt)
            assert node[0] != 0
            if node not in seen:
                seen.add(node)
                queue.append(node)
    stats = synthesis.SearchStats()
    assert synthesis.search_belief_path(ctx, spin_period=2,
                                        stats=stats) is None
    assert stats.exhausted
    assert stats.states_explored == len(seen) == 13


def test_max_depth_finds_the_shortest_length():
    z2, z3 = groups.cyclic(2), groups.cyclic(3)
    klein = groups.direct_product(z2, z2)
    contexts = [
        WreathContext(g_group=z2, action=cyclic_rotation_action(2)),
        WreathContext(g_group=z2, action=cyclic_rotation_action(3)),
        WreathContext(g_group=z3, action=cyclic_rotation_action(2)),
        WreathContext(g_group=groups.cyclic(4), action=trivial_action()),
        WreathContext(g_group=groups.symmetric(3), action=trivial_action()),
        WreathContext(g_group=klein, action=trivial_action()),
        WreathContext(g_group=z2, action=cyclic_rotation_action(4),
                      win_set={0, 5}),
        WreathContext(g_group=z2, action=cyclic_rotation_action(3),
                      win_set={3, 5}),
        WreathContext(g_group=z2, action=cyclic_rotation_action(2),
                      win_set={0, 3}),
    ]
    solvable = 0
    for ctx, period in itertools.product(contexts, (None, 2, 3)):
        length = _shortest_win(ctx, period)
        if length is None:
            continue
        solvable += 1
        path = synthesis.search_belief_path(ctx, max_depth=length,
                                            spin_period=period)
        assert path is not None and len(path) <= length, (ctx.name, period)
        assert verify(ctx, Strategy(ctx=ctx, moves=path),
                      spin_period=period).valid
        assert synthesis.search_belief_path(ctx, max_depth=length - 1,
                                            spin_period=period) is None
    assert solvable == 23


def _search_counting_steps(ctx, **kwargs):
    """(path, states entered, exhausted, kernel steps) of one search."""
    kernel = ctx.belief_kernel
    step, steps = kernel.step, []

    def counted(*args):
        steps.append(args)
        return step(*args)

    kernel.step = counted
    try:
        stats = synthesis.SearchStats()
        path = synthesis.search_belief_path(ctx, stats=stats, **kwargs)
    finally:
        del kernel.step
    return path, stats.states_explored, stats.exhausted, len(steps)


def test_search_tries_one_move_per_h_orbit():
    # spins every turn and the win set {0}: only the least move of each
    # H-orbit is stepped, and the same 704 states are entered (24,640
    # steps without the pruning)
    ctx = WreathContext(g_group=groups.symmetric(3),
                        action=synthesis.swap_action())
    path, states, exhausted, steps = _search_counting_steps(ctx)
    assert path is None and exhausted and states == 704
    assert steps <= 14080


@pytest.mark.parametrize("ctx,kwargs,found,states,steps", [
    # {0, 5} is not closed under the rotations of Z2 wr C4
    (WreathContext(g_group=groups.cyclic(2), action=cyclic_rotation_action(4),
                   win_set={0, 5}), {}, True, 17, 133),
    # spins every other turn leave some masks open under spins
    (WreathContext(g_group=groups.cyclic(2), action=cyclic_rotation_action(3)),
     {"spin_period": 2}, False, 13, 104),
])
def test_search_prunes_no_moves_off_its_preconditions(ctx, kwargs, found,
                                                      states, steps):
    path, entered, _exhausted, stepped = _search_counting_steps(ctx, **kwargs)
    assert (path is not None, entered, stepped) == (found, states, steps)
