import hashlib
import inspect
import itertools
import random
import sys
from collections import deque

import pytest

from spinwreath import decision, groups, synthesis
from spinwreath.actions import (WreathContext, cyclic_rotation_action,
                                regular_action, trivial_action)
from spinwreath.errors import (BaseCaseVerificationFailed, DoesNotGenerate,
                               InputStrategyInvalid,
                               LiftedStrategyFailedVerification,
                               NotAPermutation, NotInvolutionGenerated,
                               NotSamePrime, NotSurjective)
from spinwreath.puzzle_parser import parse_puzzle
from spinwreath.strategies import Strategy, initial_belief, interleave, verify


# -- trivial wreath walks ----------------------------------------------------

def test_trivial_z2_is_the_single_move():
    ctx = WreathContext(g_group=groups.cyclic(2), action=trivial_action())
    strat = synthesis.construct_trivial(ctx, (1,))
    assert strat.moves == (1,)
    assert verify(strat.ctx, strat).minimal


def test_trivial_z3_orderings_give_distinct_strategies():
    g = groups.cyclic(3)
    ctx = WreathContext(g_group=g, action=trivial_action())
    a = synthesis.construct_trivial(ctx, (1, 2))
    b = synthesis.construct_trivial(ctx, (2, 1))
    assert a.moves != b.moves
    for s in (a, b):
        assert verify(s.ctx, s).valid and len(s) == 2


def test_trivial_s3_every_ordering_verifies():
    g = groups.symmetric(3)
    ctx = WreathContext(g_group=g, action=trivial_action())
    rng = random.Random(11)
    perms = list(itertools.permutations(range(1, 6)))
    for perm in rng.sample(perms, 40):
        strat = synthesis.construct_trivial(ctx, perm)
        report = verify(strat.ctx, strat)
        assert report.valid and report.minimal


def test_trivial_rejects_bad_perm():
    ctx = WreathContext(g_group=groups.cyclic(3), action=trivial_action())
    with pytest.raises(NotAPermutation):
        synthesis.construct_trivial(ctx, (1, 1))
    with pytest.raises(NotAPermutation):
        synthesis.construct_trivial(ctx, (0, 1, 2))


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


def _recursive_hamiltonian_walk(g, gens, budget):
    """The former recursive depth-first search, kept as the reference."""
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


def _walk_groups():
    z2 = groups.cyclic(2)
    return [groups.symmetric(3), groups.symmetric(4), groups.symmetric(5),
            groups.dihedral(8),
            groups.direct_product(z2, groups.direct_product(z2, z2))]


@pytest.mark.parametrize("budget", [1, 100,
                                    synthesis.DEFAULT_HAMILTONIAN_BUDGET])
def test_covering_walk_matches_the_recursive_search(budget):
    # same generator order, same node accounting, same greedy fallback:
    # S5 runs out of even the default budget, the rest finish above 1
    for g in _walk_groups():
        gens = list(groups.involution_generators(g))
        reference = _recursive_hamiltonian_walk(g, gens, budget)
        assert synthesis._hamiltonian_walk(g, gens, budget) == reference
        walk = synthesis.covering_walk(g, gens, budget=budget)
        if reference is None:
            assert walk == synthesis._greedy_walk(g, gens)
        else:
            assert walk.steps == tuple(reference) and walk.is_hamiltonian


def test_covering_walk_leaves_the_recursion_limit_alone():
    # the 23-step Hamiltonian path of S4 is deeper than the lowered limit
    # allows a recursive search to go
    g = groups.symmetric(4)
    t = [g.labels.index(lbl) for lbl in ('(1 2)', '(2 3)', '(3 4)')]
    saved = sys.getrecursionlimit()
    lowered = len(inspect.stack(0)) + 15
    sys.setrecursionlimit(lowered)
    try:
        walk = synthesis.covering_walk(g, t)
        limit = sys.getrecursionlimit()
    finally:
        sys.setrecursionlimit(saved)
    assert limit == lowered
    assert walk.is_hamiltonian
    assert sorted(walk.prefix_products) == list(range(24))


def test_covering_walk_rejects_non_generating_sets():
    with pytest.raises(DoesNotGenerate):
        synthesis.covering_walk(groups.cyclic(4), [2])
    with pytest.raises(DoesNotGenerate):
        synthesis.covering_walk(groups.symmetric(3), [])


# -- two interchangeable switches --------------------------------------------

def test_involution_pair_z2_is_the_classic_three_mover():
    strat = synthesis.construct_involution_pair(WreathContext(
        g_group=groups.cyclic(2), action=synthesis.swap_action()))
    assert strat.coords() == ((1, 1), (1, 0), (1, 1))
    assert verify(strat.ctx, strat).minimal


def test_involution_pair_klein_is_minimal_fifteen():
    klein = groups.direct_product(groups.cyclic(2), groups.cyclic(2))
    strat = synthesis.construct_involution_pair(
        WreathContext(g_group=klein, action=synthesis.swap_action()))
    report = verify(strat.ctx, strat)
    assert report.valid and report.minimal and len(strat) == 15


def test_involution_pair_needs_involution_generators():
    with pytest.raises(NotInvolutionGenerated):
        synthesis.construct_involution_pair(WreathContext(
            g_group=groups.cyclic(3), action=synthesis.swap_action()))


def test_involution_pair_fails_for_s3():
    # The doubled-block/separator pattern only controls the difference
    # a b^-1 of a hidden state (a, b) when G is abelian: a doubled move
    # (t, t) keeps it, but a separator (t, e) turns it into
    # (a t a^-1)(a b^-1), which depends on the hidden a.  So for S3 no
    # interleaving of this shape works -- and in fact exhaustive belief
    # search shows S3 with two swapped positions has no surjective strategy
    # at all (see test_decision.py).
    with pytest.raises(LiftedStrategyFailedVerification):
        synthesis.construct_involution_pair(WreathContext(
            g_group=groups.symmetric(3), action=synthesis.swap_action()))


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


@pytest.mark.parametrize("puzzle,length,digest", [
    # H needs more than one generator
    ("Z2 wr D8", 15, "8e63d03effb0e770"),
    ("Z2 wr D16", 255, "e79e0596a98a85f2"),
    ("Z2 x Z2 wr D8", 255, "64f6f3e6240ab4b2"),
    ("Z4 wr D8", 255, "e5a208324f182eab"),
    # cyclic H
    ("Z2 wr C8", 255, "e79e0596a98a85f2"),
    ("Z3 wr C3", 26, "80961bd75c7042bb"),
    ("Z4 wr C4", 255, "e5a208324f182eab"),
    ("D8 wr C2", 63, "4f2968fdb8e737fd"),
])
def test_pgroup_strategies_are_pinned(puzzle, length, digest):
    # digests of the moves as built when every chain level tested all of H
    # and every subgroup was closed by pairwise products: the generator
    # tests must pick the same strategy move for move
    strat = synthesis.construct_pgroup(parse_puzzle(puzzle))
    text = " ".join(map(str, strat.moves))
    assert len(strat) == length
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def _reference_pgroup_strategy(ctx):
    """The former recursive construction, kept as the reference: a context
    for N and one for G/N at each composition factor, each strategy
    re-encoded into G, and the fixed-subspace chain of each factor of
    order p rebuilt from every tuple vector."""
    g = ctx.g_group
    if g.order == 1:
        return Strategy(ctx=ctx, moves=())
    p = groups.p_group_prime(g)
    if g.order == p:
        return _reference_prime_base_strategy(ctx)
    n = min((s for s in groups.normal_subgroups(g)
             if len(s.members) * p == g.order), key=lambda s: s.members)
    ctx_n = WreathContext(g_group=groups.subgroup_as_group(n),
                          action=ctx.action)
    quot, reps, _proj = groups.quotient(g, n)
    ctx_q = WreathContext(g_group=quot, action=ctx.action)
    embedded = synthesis.embed_strategy(ctx_n, ctx, n.members,
                                        _reference_pgroup_strategy(ctx_n))
    lifted = synthesis.embed_strategy(ctx_q, ctx, reps,
                                      _reference_pgroup_strategy(ctx_q))
    return interleave(embedded, lifted)


def _reference_prime_base_strategy(ctx):
    g = ctx.g_group
    p, m = g.order, ctx.omega_size
    powers = [0]
    for _ in range(p - 1):
        powers.append(g.mul[powers[-1]][1])
    act = ctx.action.act
    h_inv = ctx.action.h_group.inv

    def spin_vec(h, v):
        row = act[h_inv[h]]
        return tuple(v[row[w]] for w in range(m))

    def sub_vec(a, b):
        return tuple((x - y) % p for x, y in zip(a, b))

    h_gens = groups.generating_set(ctx.action.h_group)
    all_vectors = sorted(itertools.product(range(p), repeat=m))
    chain = [{tuple([0] * m)}]
    while len(chain[-1]) < p ** m:
        prev = chain[-1]
        nxt = {v for v in all_vectors
               if all(sub_vec(spin_vec(h, v), v) in prev for h in h_gens)}
        if len(nxt) <= len(prev):
            raise BaseCaseVerificationFailed(
                "fixed-subspace chain stopped growing; H is not a p-group "
                "on this module")
        chain.append(nxt)

    def build(level):
        if len(chain[level]) == p ** m:
            return []
        lower, upper = chain[level], chain[level + 1]
        reps, covered = [], set()
        for v in sorted(upper):
            if v not in covered:
                reps.append(v)
                covered.update(tuple((x + u) % p for x, u in zip(v, w))
                               for w in lower)
        deltas = [sub_vec(reps[j], reps[j - 1]) for j in range(1, len(reps))]
        out = list(deltas)
        for move in build(level + 1):
            out.append(move)
            out.extend(deltas)
        return out

    return Strategy(ctx=ctx, moves=tuple(ctx.encode([powers[c] for c in v])
                                         for v in build(0)))


@pytest.mark.parametrize("g", ["Z2", "Z3", "Z4", "Z8", "Z9", "Z2 x Z2",
                               "Z2 x Z4", "Z3 x Z3", "D8"])
def test_pgroup_strategies_match_the_recursive_construction(g):
    # the one loop down the composition series folds the same layers the
    # recursion interleaved, and a chain that stalls (H of another prime)
    # raises the same error
    for h in ("1", "C2", "C3", "C4", "D8", "Z2 x Z2"):
        ctx = parse_puzzle(f"{g} wr {h}")
        if ctx.k_size > 4096:
            continue
        try:
            reference = _reference_pgroup_strategy(ctx)
        except BaseCaseVerificationFailed as exc:
            with pytest.raises(BaseCaseVerificationFailed) as raised:
                synthesis._pgroup_strategy(ctx)
            assert str(raised.value) == str(exc)
        else:
            assert synthesis._pgroup_strategy(ctx).moves == reference.moves


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


def test_transport_refuses_what_it_cannot_push_forward():
    z2, z4 = groups.cyclic(2), groups.cyclic(4)
    n = next(s for s in groups.normal_subgroups(z4) if len(s.members) == 2)
    _quot, _reps, proj = groups.quotient(z4, n)
    z2_ctx = WreathContext(g_group=z2, action=cyclic_rotation_action(2))
    z4_ctx = WreathContext(g_group=z4, action=cyclic_rotation_action(2))
    strat = synthesis.construct_pgroup(z4_ctx)
    # a target context of another group: the kernel reads only the low
    # digits of a move, so Z4 move indices in Z2 wr C2 would still verify
    identity = groups.Homomorphism(source=z4, target=z4, map=(0, 1, 2, 3))
    with pytest.raises(InputStrategyInvalid, match="phi target"):
        synthesis.transport_strategy(identity, strat, z2_ctx)
    not_onto = groups.Homomorphism(source=z4, target=z4, map=(0, 2, 0, 2))
    with pytest.raises(NotSurjective):
        synthesis.transport_strategy(not_onto, strat, z4_ctx)
    with pytest.raises(InputStrategyInvalid, match="phi source"):
        synthesis.transport_strategy(
            proj, synthesis.construct_pgroup(z2_ctx), z2_ctx)
    with pytest.raises(InputStrategyInvalid, match="does not verify"):
        synthesis.transport_strategy(
            proj, Strategy(ctx=z4_ctx, moves=strat.moves[:-1]), z2_ctx)


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
        # D10 wr C2 exhausts along one branch of 270 states
        d10 = WreathContext(g_group=groups.dihedral(10),
                            action=synthesis.swap_action())
        stats = synthesis.SearchStats()
        assert synthesis.search_belief_path(d10, stats=stats) is None
        assert stats.exhausted and stats.states_explored == 270
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
    # turn.  The search enters 7 of them and steps the identity; each of
    # the 13 contains a mask of the final antichains.
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
    assert len(seen) == 13
    path, states, exhausted, steps = _search_counting_steps(ctx,
                                                            spin_period=2)
    assert path is None and exhausted and states == 7
    assert any(mv == 0 for _mask, mv, _spin in steps)
    stats = synthesis.SearchStats()
    synthesis.search_belief_path(ctx, spin_period=2, stats=stats)
    assert all(any(f & node == f for f in stats.beliefs) for node, _ in seen)


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
    """(path, states entered, exhausted, kernel step arguments) of one
    search."""
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
    return path, stats.states_explored, stats.exhausted, steps


def test_search_tries_one_move_per_h_orbit():
    # spins every turn and the win set {0}: only the least move of each
    # H-orbit is stepped, at most 20 of the 35 non-identity moves of each
    # of the 52 states entered (the exact memo entered 704 states in 14,080
    # steps)
    ctx = WreathContext(g_group=groups.symmetric(3),
                        action=synthesis.swap_action())
    path, states, exhausted, steps = _search_counting_steps(ctx)
    assert path is None and exhausted and states == 52
    assert len(steps) == 325


@pytest.mark.parametrize("ctx,kwargs,found,states,steps", [
    # {0, 5} is not closed under the rotations of Z2 wr C4
    (WreathContext(g_group=groups.cyclic(2), action=cyclic_rotation_action(4),
                   win_set={0, 5}), {}, True, 13, 84),
    # spins every other turn leave some masks open under spins
    (WreathContext(g_group=groups.cyclic(2), action=cyclic_rotation_action(3)),
     {"spin_period": 2}, False, 7, 46),
])
def test_search_prunes_no_moves_off_its_preconditions(ctx, kwargs, found,
                                                      states, steps):
    path, entered, _exhausted, stepped = _search_counting_steps(ctx, **kwargs)
    assert (path is not None, entered, len(stepped)) == (found, states, steps)


def test_a_depth_limited_search_enters_no_node_without_moves_left():
    # such a node could try no move; entering them took S3 wr C2, with
    # spins every other turn and at most 3 moves, from 66 states to 744
    ctx = WreathContext(g_group=groups.symmetric(3),
                        action=synthesis.swap_action())
    path, states, exhausted, _steps = _search_counting_steps(
        ctx, spin_period=2, max_depth=3)
    assert path is None and not exhausted and states == 66
