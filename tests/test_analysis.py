import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwreath import analysis, catalog, groups
from spinwreath.actions import (DENSE_TABLE_CAP, WreathContext,
                                coordinate_map, cyclic_rotation_action,
                                trivial_action)
from spinwreath.errors import (BudgetExceeded, ContextMismatch,
                               ContextTooSmall, InputStrategyInvalid)
from spinwreath.puzzle_parser import parse_puzzle
from spinwreath.strategies import (Strategy, initial_belief,
                                   minimal_length_bound, verify)
from spinwreath.synthesis import SearchStats, construct_pgroup
from test_decision import BUDGET_PUZZLES
from test_strategies import KERNEL_CONTEXTS


def ctx_of(g, n):
    return WreathContext(g_group=g, action=cyclic_rotation_action(n))


# -- exact expectations ------------------------------------------------------

def _reference_expectation(ctx, strategy):
    """The per-state Fraction loop, written from k_mul, k_act and the win set."""
    states = [s for s in range(ctx.k_size) if s not in ctx.win_set]
    dist = {s: Fraction(1, len(states)) for s in states}
    spin = Fraction(1, ctx.h_order)
    absorbed = []
    for i, move in enumerate(strategy.moves, start=1):
        new_dist = {}
        hit = Fraction(0)
        for s, mass in dist.items():
            t = ctx.k_mul(s, move)
            if t in ctx.win_set:
                hit += mass
                continue
            for h in range(ctx.h_order):
                u = ctx.k_act(h, t)
                new_dist[u] = new_dist.get(u, Fraction(0)) + mass * spin
        if hit:
            absorbed.append((i, hit))
        dist = new_dist
        if not dist:
            break
    total = sum((mass for _, mass in absorbed), Fraction(0))
    expected = None
    if total > 0:
        expected = sum((i * mass for i, mass in absorbed), Fraction(0)) / total
    return analysis.ExpectationReport(
        absorbed_probability=total,
        conditional_expected_moves=expected,
    )


def _state_expectation(ctx, strategy):
    """The path counts carried state by state, by coordinate maps over K:
    a second oracle, fast enough for |K| = 256 and 255 moves."""
    n, m, k, h_order = (ctx.g_group.order, ctx.omega_size, ctx.k_size,
                        ctx.h_order)
    win = sorted(ctx.win_set)
    mass = [0 if s in ctx.win_set else 1 for s in range(k)]
    # spin h sends t to u with coordinate w of u = coordinate act[h^-1][w]
    # of t, so new mass at u gathers the mass of that t
    h_inv, act = ctx.action.h_group.inv, ctx.action.act
    spins = [coordinate_map(n, [range(n)] * m, act[h_inv[h]])
             for h in range(h_order)]
    # mass at t after a move comes from the state s with s * move = t
    div = [[0] * n for _ in range(n)]
    for x in range(n):
        for c in range(n):
            div[c][ctx.g_group.mul[x][c]] = x
    total = moment = last = 0
    for i, move in enumerate(strategy.moves, start=1):
        moved = list(map(mass.__getitem__, coordinate_map(
            n, [div[c] for c in ctx.decode(move)])))
        hit = sum(moved[t] for t in win)
        for t in win:
            moved[t] = 0
        if hit:
            scale = h_order ** (i - last)
            total = total * scale + hit
            moment = moment * scale + i * hit
            last = i
        mass = list(map(sum, zip(*[map(moved.__getitem__, src)
                                   for src in spins])))
        if not any(mass):
            break
    if not total:
        return analysis.ExpectationReport(Fraction(0), None)
    paths = (k - len(win)) * h_order ** (last - 1)
    return analysis.ExpectationReport(Fraction(total, paths),
                                      Fraction(moment, total))


# every context with |K| <= 64 that the kernel and budget tests use
EXPECTATION_CONTEXTS = {
    label: ctx for label, ctx in {
        **KERNEL_CONTEXTS,
        **{puzzle: parse_puzzle(puzzle) for puzzle in BUDGET_PUZZLES},
    }.items() if ctx.k_size <= 64
}


@pytest.mark.parametrize("label", sorted(EXPECTATION_CONTEXTS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_expectation_matches_the_fraction_loop(label, data):
    ctx = EXPECTATION_CONTEXTS[label]
    k = ctx.k_size
    moves = data.draw(st.lists(st.integers(0, k - 1),
                               max_size=min(k + 2, 24)))
    strat = Strategy(ctx=ctx, moves=tuple(moves))
    assert analysis.exact_expected_moves(ctx, strat) == \
        _reference_expectation(ctx, strat) == _state_expectation(ctx, strat)


@pytest.mark.parametrize("puzzle",
                         ["Z16 wr C2", "Z4 wr C4", "Z2 wr C8", "Z2 wr D16"])
def test_orbit_masses_match_the_state_oracle_at_k_256(puzzle):
    # the p-group strategy wins from every state, on average in |K| / 2
    # moves; without its last move it absorbs only part of the mass
    ctx = parse_puzzle(puzzle)
    strat = construct_pgroup(ctx)
    report = analysis.exact_expected_moves(ctx, strat)
    assert report == _state_expectation(ctx, strat)
    assert report == analysis.ExpectationReport(Fraction(1),
                                                Fraction(ctx.k_size, 2))
    cut = Strategy(ctx=ctx, moves=strat.moves[:-1])
    report = analysis.exact_expected_moves(ctx, cut)
    assert report == _state_expectation(ctx, cut)
    assert report.absorbed_probability < 1


@settings(max_examples=10, deadline=None)
@given(moves=st.lists(st.integers(0, 255), max_size=300))
def test_orbit_masses_match_under_a_win_set_spins_move(moves):
    # the spins do not fix {0, 5}, so the start is not constant on orbits
    base = parse_puzzle("Z2 wr C8")
    ctx = WreathContext(g_group=base.g_group, action=base.action,
                        win_set={0, 5})
    assert not ctx.belief_kernel.spins_fix_win
    strat = Strategy(ctx=ctx, moves=tuple(moves))
    assert analysis.exact_expected_moves(ctx, strat) == \
        _state_expectation(ctx, strat)


@pytest.mark.parametrize("move", [16, 17, -1])  # k, k + 1 and -1
def test_expectation_refuses_moves_outside_k(move):
    # unchecked, a move's low base-|G| digits would be read as a move of K
    # ((1, 16) would absorb 1/15 on Z2 wr C4); the check comes before any
    # step, so a move after the mass is gone is refused too
    ctx = ctx_of(groups.cyclic(2), 4)
    winning = catalog.four_switches_strategy(ctx).moves
    for moves in [(1, move), winning + (move,)]:
        with pytest.raises(InputStrategyInvalid, match="not a base vector"):
            analysis.exact_expected_moves(ctx, Strategy(ctx=ctx, moves=moves))


@pytest.mark.parametrize("g_order,n", [(2, 8), (32, 2)])
def test_expectation_builds_no_dense_tables(g_order, n):
    ctx = ctx_of(groups.cyclic(g_order), n)
    strat = Strategy(ctx=ctx, moves=tuple(range(1, 40)))
    analysis.exact_expected_moves(ctx, strat)
    for table in ("_k_mul_table", "_k_act_table", "_k_inv_table",
                  "orbit_masks"):
        assert table not in ctx.__dict__


def test_four_switch_solution_takes_eight_moves_on_average():
    ctx = catalog.four_switches_context()
    strat = catalog.four_switches_strategy(ctx)
    report = analysis.exact_expected_moves(ctx, strat)
    assert report.absorbed_probability == 1
    assert report.conditional_expected_moves == Fraction(8)


def test_expectation_needs_a_state_outside_the_win_set():
    ctx = WreathContext(g_group=groups.cyclic(2),
                        action=cyclic_rotation_action(2),
                        win_set=frozenset(range(4)))
    with pytest.raises(ContextTooSmall):
        analysis.exact_expected_moves(ctx, Strategy(ctx=ctx, moves=(1,)))


def test_empty_strategy_absorbs_nothing():
    ctx = catalog.four_switches_context()
    report = analysis.exact_expected_moves(ctx, Strategy(ctx=ctx, moves=()))
    assert report.absorbed_probability == 0
    assert report.conditional_expected_moves is None


def test_partial_strategy_absorbs_partially():
    ctx = ctx_of(groups.cyclic(2), 2)
    strat = Strategy(ctx=ctx, moves=(ctx.encode((1, 1)),))
    report = analysis.exact_expected_moves(ctx, strat)
    assert report.absorbed_probability == Fraction(1, 3)


# -- random play -------------------------------------------------------------

def test_random_play_closed_forms():
    assert analysis.random_play_expectation(catalog.four_switches_context()) == 15
    assert analysis.random_play_expectation(ctx_of(groups.cyclic(2), 3)) == 7


def test_monte_carlo_matches_the_closed_form():
    ctx = ctx_of(groups.cyclic(2), 3)
    est = analysis.monte_carlo_random_play(ctx, trials=20000, seed=12345)
    exact = float(analysis.random_play_expectation(ctx))
    # standard deviation of the geometric stop time is ~sqrt(7*8) ~ 7.5,
    # so 20k trials put the mean well within 0.2 at 3 sigma
    assert abs(est - exact) < 0.2


def test_non_backtracking_play_beats_uniform_play():
    ctx = ctx_of(groups.cyclic(2), 3)
    est = analysis.non_backtracking_expectation(ctx, trials=20000, seed=999)
    assert est < float(analysis.random_play_expectation(ctx))


def test_non_backtracking_needs_more_than_two_moves():
    ctx = WreathContext(g_group=groups.cyclic(2), action=trivial_action())
    with pytest.raises(ContextTooSmall):
        analysis.non_backtracking_expectation(ctx, trials=10, seed=1)


@pytest.mark.parametrize("seed,uniform,non_backtracking", [
    (7, 6.696666666666666, 7.1866666666666665),
    (2024, 6.923333333333333, 6.55),
])
def test_monte_carlo_draws_are_pinned(seed, uniform, non_backtracking):
    # the sample means of 300 games on Z2 wr C3, as the per-game set-up
    # gave them: the set-up made once per call draws the same numbers
    ctx = ctx_of(groups.cyclic(2), 3)
    assert analysis.monte_carlo_random_play(ctx, 300, seed) == uniform
    assert analysis.non_backtracking_expectation(ctx, 300, seed) == \
        non_backtracking


def _randrange_game_lengths(ctx, rng, exclude_constant_backtrack=False):
    """The games of uniform random play drawn with ``rng.randrange``."""
    k, win = ctx.k_size, ctx.win_set
    low = 1 if 0 in win else 0
    undo = {}
    if exclude_constant_backtrack:
        m, inv = ctx.omega_size, ctx.g_group.inv
        undo = {ctx.encode([g] * m): ctx.encode([inv[g]] * m)
                for g in range(ctx.g_group.order)}
    while True:
        state = rng.randrange(low, k)
        while state in win:
            state = rng.randrange(low, k)
        banned = None
        turn = 0
        while True:
            turn += 1
            move = rng.randrange(1, k)
            while move == banned:
                move = rng.randrange(1, k)
            state = ctx.k_mul(state, move)
            if state in win:
                break
            banned = undo.get(move)
            state = ctx.k_act(rng.randrange(ctx.h_order), state)
        yield turn


# (puzzle, win set, games): 0 in the win set or not, |H| = 1, two constant
# moves to ban (Z3 wr C2), half of all spin draws redrawn (Z2 wr C4, |H| = 4
# from 3 bits), a win set {1} that a banned move would reach (Z3 wr C2: the
# games of both seeds redraw such a move), and |K| above DENSE_TABLE_CAP,
# where the rows work out each entry through k_mul/k_act
MONTE_CARLO_CASES = [
    ("Z2 wr C3", None, 300),
    ("Z2 wr C3", {5}, 300),
    ("Z2 wr C3", {0, 3, 6}, 300),
    ("Z3 wr 1", None, 300),
    ("Z3 wr 1", {2}, 300),
    ("Z4 wr C2", {1, 14}, 200),
    ("Z3 wr C2", None, 300),
    ("Z2 wr C4", None, 200),
    ("Z3 wr C2", {1}, 300),
    ("Z2 wr C13", None, 3),
]


@pytest.mark.parametrize("backtrack_free", [False, True],
                         ids=["uniform", "non-backtracking"])
@pytest.mark.parametrize("puzzle,win_set,games", MONTE_CARLO_CASES)
def test_monte_carlo_draws_what_randrange_draws(puzzle, win_set, games,
                                                backtrack_free):
    ctx = parse_puzzle(puzzle, win_set=win_set)
    assert (ctx.k_size > DENSE_TABLE_CAP) == (puzzle == "Z2 wr C13")
    for seed in (1, 2024):
        got = analysis._game_lengths(
            ctx, random.Random(seed), exclude_constant_backtrack=backtrack_free)
        want = _randrange_game_lengths(ctx, random.Random(seed),
                                       backtrack_free)
        assert list(itertools.islice(got, games)) == \
            list(itertools.islice(want, games))


def test_monte_carlo_is_reproducible():
    ctx = ctx_of(groups.cyclic(2), 2)
    a = analysis.monte_carlo_random_play(ctx, trials=500, seed=42)
    b = analysis.monte_carlo_random_play(ctx, trials=500, seed=42)
    assert a == b


# -- enumeration -------------------------------------------------------------

@pytest.mark.parametrize("order,count", [(2, 1), (3, 2), (4, 6)])
def test_minimal_counts_without_an_adversary_are_factorials(order, count):
    # with no spins every ordering of the non-identity elements works once,
    # so there are (|G| - 1)! minimal strategies
    ctx = WreathContext(g_group=groups.cyclic(order), action=trivial_action())
    assert analysis.count_minimal_trivial_strategies(ctx) == count


def test_minimal_count_for_s3_without_an_adversary():
    ctx = WreathContext(g_group=groups.symmetric(3), action=trivial_action())
    result = analysis.enumerate_strategies(ctx, 5)
    assert result.count == 120


def _unmemoized_walk(ctx, length, palindromic=False):
    """The pruned prefix tree of ``enumerate_strategies``, one step per prefix.

    Returns the winning sequences in the order the walk finds them, the
    number of prefixes entered and the set of distinct kernel inputs.
    """
    k, win_size = ctx.k_size, len(ctx.win_set)
    step = ctx.belief_kernel.step
    found, inputs = [], set()
    entered = 0

    def enter(moves, mask):
        nonlocal entered
        entered += 1
        depth = len(moves)
        if depth == length:
            if mask == 0:
                found.append(tuple(moves))
            return
        remaining = length - depth
        if bin(mask).count("1") > remaining * win_size:
            return
        mirror = length - 1 - depth
        spin = remaining > 1
        for mv in ([moves[mirror]] if palindromic and mirror < depth
                   else range(k)):
            inputs.add((mask, mv, spin))
            enter(moves + [mv], step(mask, mv, spin))

    enter([], initial_belief(ctx))
    return found, entered, inputs


@pytest.mark.parametrize("ctx,length,flags", [
    (WreathContext(g_group=groups.symmetric(3), action=trivial_action()), 5,
     {}),
    (ctx_of(groups.cyclic(2), 3), 7, {}),
    (ctx_of(groups.cyclic(2), 2), 3, {"palindromic": True}),
], ids=["S3-1", "Z2-C3", "Z2-C2-palindromic"])
def test_enumeration_counts_the_prefixes_it_enters(monkeypatch, ctx, length,
                                                   flags):
    # every prefix of the pruned tree counts as a state, while the kernel
    # steps each distinct (belief, move, spin) once
    _, entered, inputs = _unmemoized_walk(ctx, length, **flags)
    kernel = ctx.belief_kernel
    calls = []
    step = kernel.step

    def counting(mask, move, spin):
        calls.append((mask, move, spin))
        return step(mask, move, spin)

    monkeypatch.setattr(kernel, "step", counting)
    stats = SearchStats()
    analysis.enumerate_strategies(ctx, length, stats=stats, **flags)
    assert stats.states_explored == entered
    assert len(calls) == len(set(calls)) == len(inputs)
    assert set(calls) == inputs


def _canonical_count(ctx, found):
    """The number of H-orbits of sequences under one spin of every move."""
    return len({min(tuple(ctx.k_act(h, mv) for mv in moves)
                    for h in range(ctx.h_order)) for moves in found})


@pytest.mark.parametrize("puzzle,length,flags", [
    ("Z2 wr C4", 15, {}),
    ("Z2 wr C4", 15, {"palindromic": True}),
    ("Z2 wr C4", 15, {"minimal_only": True}),
    ("Z2 wr C4", 15, {"up_to_h": True}),
    # longer than minimal: beliefs of one size recur at different depths,
    # where the last move is stepped without spins
    ("Z2 wr C2", 7, {}),
    ("Z2 wr C2", 7, {"up_to_h": True, "palindromic": True}),
    ("S3 wr 1", 5, {"palindromic": True, "minimal_only": True}),
])
def test_enumeration_matches_the_unmemoized_walk(puzzle, length, flags):
    ctx = parse_puzzle(puzzle)
    found, entered, _ = _unmemoized_walk(
        ctx, length, palindromic=flags.get("palindromic", False))
    stats = SearchStats()
    result = analysis.enumerate_strategies(ctx, length, stats=stats, **flags)
    assert list(result.sequences()) == found
    assert result.count == len(found)
    assert result.canonical_count == (
        _canonical_count(ctx, found) if flags.get("up_to_h") else None)
    assert stats.states_explored == entered
    # a budget one short of the walk stops it at the last prefix
    stats = SearchStats(limit=entered - 1)
    with pytest.raises(BudgetExceeded):
        analysis.enumerate_strategies(ctx, length, stats=stats, **flags)
    assert stats.states_explored == entered - 1


def test_enumeration_budget_caps_the_running_total():
    ctx = WreathContext(g_group=groups.symmetric(3), action=trivial_action())
    stats = SearchStats()
    analysis.enumerate_strategies(ctx, 5, stats=stats)
    entered = stats.states_explored
    # states counted before the call share the budget, and the total never
    # passes it
    stats = SearchStats(states_explored=entered - 1, limit=2 * entered - 1)
    analysis.enumerate_strategies(ctx, 5, stats=stats)
    assert stats.states_explored == 2 * entered - 1
    stats = SearchStats(states_explored=entered, limit=2 * entered - 1)
    with pytest.raises(BudgetExceeded):
        analysis.enumerate_strategies(ctx, 5, stats=stats)
    assert stats.states_explored == 2 * entered - 1


WALK_PREFIX_CAP = 20_000  # the most prefixes a drawn oracle walk enters


@functools.lru_cache(maxsize=None)
def _walk_cases():
    """The (label, length, palindromic) triples drawn below.

    One below the minimal length, where the root is pruned at once, on
    every kernel context.  From the minimal length to two past it only
    |K| <= 32 is tried, and a triple is kept when ``enumerate_strategies``
    counts at most WALK_PREFIX_CAP prefixes; the oracle walk checks that
    count.
    """
    cases = []
    for label, ctx in sorted(KERNEL_CONTEXTS.items()):
        minimal = minimal_length_bound(ctx)
        cases += [(label, minimal - 1, pal) for pal in (False, True)]
        for length in range(minimal, minimal + 3) if ctx.k_size <= 32 else ():
            for pal in (False, True):
                try:
                    analysis.enumerate_strategies(
                        ctx, length, palindromic=pal,
                        stats=SearchStats(limit=WALK_PREFIX_CAP))
                except BudgetExceeded:
                    continue
                cases.append((label, length, pal))
    return cases


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_enumeration_agrees_with_the_walk_on_every_kernel_context(data):
    # strategies in order, both counts and the prefixes entered, under every
    # filter and win set; a budget raises exactly where the walk's did
    label, length, palindromic = data.draw(st.sampled_from(_walk_cases()))
    flags = {"palindromic": palindromic,
             "minimal_only": data.draw(st.booleans()),
             "up_to_h": data.draw(st.booleans())}
    ctx = KERNEL_CONTEXTS[label]
    if flags["up_to_h"] and not ctx.belief_kernel.spins_fix_win:
        # the orbits would not cover the strategies: refused before the walk,
        # which the rest of the test then checks without the orbit count
        stats = SearchStats()
        with pytest.raises(ContextMismatch):
            analysis.enumerate_strategies(ctx, length, stats=stats, **flags)
        assert stats.states_explored == 0
        flags["up_to_h"] = False
    found, entered, _ = _unmemoized_walk(ctx, length, palindromic=palindromic)
    if flags["minimal_only"] and length != minimal_length_bound(ctx):
        found, entered = [], 0
    stats = SearchStats(limit=entered)
    result = analysis.enumerate_strategies(ctx, length, stats=stats, **flags)
    assert list(result.sequences()) == found
    assert result.count == len(found)
    assert result.canonical_count == (
        _canonical_count(ctx, found) if flags["up_to_h"] else None)
    assert stats.states_explored == entered
    if entered:
        limit = data.draw(st.integers(0, entered - 1))
        stats = SearchStats(limit=limit)
        with pytest.raises(BudgetExceeded):
            analysis.enumerate_strategies(ctx, length, stats=stats, **flags)
        assert stats.states_explored == limit


def test_enumeration_budget_bounds_the_work_on_a_huge_tree(monkeypatch):
    # Z2 wr C8 at length 255 has about 2.3e74 strategies; the budget stops
    # the count after no more kernel steps than it allows prefixes
    ctx = parse_puzzle("Z2 wr C8")
    kernel = ctx.belief_kernel
    calls = 0
    step = kernel.step

    def counting(mask, move, spin):
        nonlocal calls
        calls += 1
        return step(mask, move, spin)

    monkeypatch.setattr(kernel, "step", counting)
    stats = SearchStats(limit=10_000)
    with pytest.raises(BudgetExceeded):
        analysis.enumerate_strategies(ctx, 255, stats=stats)
    assert stats.states_explored == 10_000
    assert 0 < calls <= 10_000


def enumerate_strategies_exhaustive(ctx, length, *, palindromic=False):
    """Plain product enumeration; the cross-check oracle for the backtracker."""
    out = []
    for seq in itertools.product(range(ctx.k_size), repeat=length):
        if palindromic and seq != seq[::-1]:
            continue
        strat = Strategy(ctx=ctx, moves=seq)
        if verify(ctx, strat).valid:
            out.append(strat)
    return out


def test_backtracker_agrees_with_plain_product_enumeration():
    for ctx, length in [(ctx_of(groups.cyclic(2), 2), 3),
                        (ctx_of(groups.cyclic(2), 2), 4),
                        (WreathContext(g_group=groups.cyclic(3),
                                       action=trivial_action()), 2)]:
        fast = analysis.enumerate_strategies(ctx, length)
        slow = enumerate_strategies_exhaustive(ctx, length)
        assert sorted(fast.sequences()) == sorted(s.moves for s in slow)


def test_palindromic_s3_strategies_match_the_known_twelve():
    ctx = WreathContext(g_group=groups.symmetric(3), action=trivial_action())
    result = analysis.enumerate_strategies(ctx, 5, palindromic=True)
    got = {tuple(ctx.g_group.label(ctx.decode(mv)[0]) for mv in moves)
           for moves in result.sequences()}
    expected = {
        ('(1 2)', '(1 3)', '(1 2)', '(1 3)', '(1 2)'),
        ('(1 2)', '(2 3)', '(1 2)', '(2 3)', '(1 2)'),
        ('(1 3)', '(1 2)', '(1 3)', '(1 2)', '(1 3)'),
        ('(1 3)', '(2 3)', '(1 3)', '(2 3)', '(1 3)'),
        ('(1 2 3)', '(1 2 3)', '(1 2)', '(1 2 3)', '(1 2 3)'),
        ('(1 2 3)', '(1 2 3)', '(1 3)', '(1 2 3)', '(1 2 3)'),
        ('(1 2 3)', '(1 2 3)', '(2 3)', '(1 2 3)', '(1 2 3)'),
        ('(1 3 2)', '(1 3 2)', '(1 2)', '(1 3 2)', '(1 3 2)'),
        ('(1 3 2)', '(1 3 2)', '(1 3)', '(1 3 2)', '(1 3 2)'),
        ('(1 3 2)', '(1 3 2)', '(2 3)', '(1 3 2)', '(1 3 2)'),
        ('(2 3)', '(1 2)', '(2 3)', '(1 2)', '(2 3)'),
        ('(2 3)', '(1 3)', '(2 3)', '(1 3)', '(2 3)'),
    }
    assert got == expected
    assert result.count == 12


def test_palindromic_enumeration_agrees_with_filtered_exhaustive():
    ctx = ctx_of(groups.cyclic(2), 2)
    fast = analysis.enumerate_strategies(ctx, 3, palindromic=True)
    slow = enumerate_strategies_exhaustive(ctx, 3, palindromic=True)
    assert sorted(fast.sequences()) == sorted(s.moves for s in slow)
    for moves in fast.sequences():
        assert moves == moves[::-1]


def test_counting_up_to_spins():
    # Burnside's count is the number of orbits of the listed strategies
    four = ctx_of(groups.cyclic(2), 4)
    result = analysis.enumerate_strategies(four, 15, up_to_h=True)
    assert (result.count, result.canonical_count) == (2048, 512)
    # the count reads no dense table (the oracle below builds them)
    for table in ("_k_mul_table", "_k_act_table", "_k_inv_table",
                  "orbit_masks"):
        assert table not in four.__dict__
    # C4 spins through C2, so two elements of H share each row
    through = KERNEL_CONTEXTS["Z2-C4-through-C2-win[0]"]
    for ctx, length in [(ctx_of(groups.cyclic(2), 2), 3), (through, 3),
                        (through, 5), (four, 15)]:
        result = analysis.enumerate_strategies(ctx, length, up_to_h=True)
        found = list(result.sequences())
        assert result.count >= result.canonical_count > 0
        assert result.canonical_count == _canonical_count(ctx, found)


def test_counting_up_to_spins_needs_a_win_set_the_spins_fix():
    # on Z2 wr C2 the spin sends 1 = (0, 1) to 2 = (1, 0), outside {0, 1}
    ctx = WreathContext(g_group=groups.cyclic(2),
                        action=cyclic_rotation_action(2), win_set={0, 1})
    stats = SearchStats()
    with pytest.raises(ContextMismatch):
        analysis.enumerate_strategies(ctx, 3, up_to_h=True, stats=stats)
    assert stats.states_explored == 0
    assert analysis.enumerate_strategies(ctx, 3).count > 0


def test_minimal_only_skips_other_lengths():
    ctx = ctx_of(groups.cyclic(2), 2)
    result = analysis.enumerate_strategies(ctx, 4, minimal_only=True)
    assert result.count == 0 and not list(result.sequences())


def test_single_switch_unique_strategy():
    ctx = WreathContext(g_group=groups.cyclic(2), action=trivial_action())
    result = analysis.enumerate_strategies(ctx, 1)
    assert result.count == 1
    assert list(result.sequences()) == [(1,)]
    assert verify(ctx, Strategy(ctx=ctx, moves=(1,))).minimal
