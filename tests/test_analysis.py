from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwreath import analysis, catalog, groups
from spinwreath.actions import WreathContext, cyclic_rotation_action, trivial_action
from spinwreath.errors import ContextTooSmall
from spinwreath.puzzle_parser import parse_puzzle
from spinwreath.strategies import Strategy, verify
from test_decision import BUDGET_PUZZLES
from test_strategies import KERNEL_CONTEXTS


def ctx_of(g, n):
    return WreathContext(g_group=g, action=cyclic_rotation_action(n))


# -- exact expectations ------------------------------------------------------

def _reference_expectation(ctx, strategy, adversary=None, initial=None):
    """The per-state Fraction loop, written from k_mul, k_act and the win set."""
    if adversary is None:
        adversary = analysis.uniform_adversary(ctx)
    if initial is None:
        initial = analysis.uniform_initial(ctx)
    dist = dict(initial)
    absorbed = []
    for i, move in enumerate(strategy.moves, start=1):
        new_dist = {}
        hit = Fraction(0)
        for s, mass in dist.items():
            t = ctx.k_mul(s, move)
            if t in ctx.win_set:
                hit += mass
                continue
            for h, weight in adversary.items():
                if weight == 0:
                    continue
                u = ctx.k_act(h, t)
                new_dist[u] = new_dist.get(u, Fraction(0)) + mass * weight
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
        stop_time_distribution=tuple(absorbed),
        adversary_model=("uniform i.i.d."
                         if adversary == analysis.uniform_adversary(ctx)
                         else "custom"),
    )


# every context with |K| <= 64 that the kernel and budget tests use
EXPECTATION_CONTEXTS = {
    label: ctx for label, ctx in {
        **KERNEL_CONTEXTS,
        **{puzzle: parse_puzzle(puzzle) for puzzle in BUDGET_PUZZLES},
    }.items() if ctx.k_size <= 64
}


def _distribution(data, keys):
    """Random positive and zero weights with mixed denominators, summing to 1."""
    raw = {key: Fraction(data.draw(st.integers(0, 4)),
                         data.draw(st.integers(1, 7))) for key in keys}
    if not any(raw.values()):
        raw[keys[0]] = Fraction(1)
    total = sum(raw.values())
    return {key: p / total for key, p in raw.items()}


@pytest.mark.parametrize("label", sorted(EXPECTATION_CONTEXTS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_expectation_matches_the_fraction_loop(label, data):
    ctx = EXPECTATION_CONTEXTS[label]
    k = ctx.k_size
    moves = data.draw(st.lists(st.integers(0, k - 1),
                               max_size=min(k + 2, 24)))
    adversary = data.draw(st.sampled_from(
        [None, analysis.uniform_adversary(ctx), "custom"]))
    if adversary == "custom":
        adversary = _distribution(data, list(range(ctx.h_order)))
    initial = None
    if data.draw(st.booleans()):
        support = data.draw(st.lists(st.integers(0, k - 1), min_size=1,
                                     max_size=6, unique=True))
        initial = _distribution(data, support)
    strat = Strategy(ctx=ctx, moves=tuple(moves))
    assert analysis.exact_expected_moves(ctx, strat, adversary, initial) == \
        _reference_expectation(ctx, strat, adversary, initial)


@pytest.mark.parametrize("g_order,n", [(2, 8), (32, 2)])
def test_expectation_builds_no_dense_tables(g_order, n):
    ctx = ctx_of(groups.cyclic(g_order), n)
    strat = Strategy(ctx=ctx, moves=tuple(range(1, 40)))
    analysis.exact_expected_moves(ctx, strat)
    analysis.exact_expected_moves(ctx, strat,
                                  adversary={0: Fraction(1, 3),
                                             1: Fraction(2, 3)},
                                  initial={3: Fraction(1, 2), 5: Fraction(1, 2)})
    for table in ("_k_mul_table", "_k_act_table", "_k_inv_table",
                  "orbit_masks"):
        assert table not in ctx.__dict__


def test_four_switch_solution_takes_eight_moves_on_average():
    ctx = catalog.four_switches_context()
    strat = catalog.four_switches_strategy(ctx)
    report = analysis.exact_expected_moves(ctx, strat)
    assert report.absorbed_probability == 1
    assert report.expected_moves() == Fraction(8)
    assert sum(m for _, m in report.stop_time_distribution) == 1


def test_expectation_is_eight_even_against_a_biased_spinner():
    # the adversary that always turns 90 degrees changes nothing: the
    # strategy's guarantees are spin-independent and so is its average
    ctx = catalog.four_switches_context()
    strat = catalog.four_switches_strategy(ctx)
    quarter_only = {h: Fraction(1 if h == 1 else 0) for h in range(4)}
    report = analysis.exact_expected_moves(ctx, strat, adversary=quarter_only)
    assert report.absorbed_probability == 1
    assert report.expected_moves() == Fraction(8)
    assert report.adversary_model == "custom"
    # weights that do not sum to 1 are rejected even under python -O
    with pytest.raises(ValueError):
        analysis.exact_expected_moves(ctx, strat, adversary={1: Fraction(2)})
    with pytest.raises(ValueError):
        analysis.exact_expected_moves(ctx, strat, initial={1: Fraction(1, 2)})


def test_empty_strategy_absorbs_nothing():
    ctx = catalog.four_switches_context()
    report = analysis.exact_expected_moves(ctx, Strategy(ctx=ctx, moves=()))
    assert report.absorbed_probability == 0
    assert report.expected_moves() is None


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


def test_backtracker_agrees_with_plain_product_enumeration():
    for ctx, length in [(ctx_of(groups.cyclic(2), 2), 3),
                        (ctx_of(groups.cyclic(2), 2), 4),
                        (WreathContext(g_group=groups.cyclic(3),
                                       action=trivial_action()), 2)]:
        fast = analysis.enumerate_strategies(ctx, length)
        slow = analysis.enumerate_strategies_exhaustive(ctx, length)
        assert sorted(s.moves for s in fast.strategies) == \
            sorted(s.moves for s in slow)


def test_palindromic_s3_strategies_match_the_known_twelve():
    ctx = WreathContext(g_group=groups.symmetric(3), action=trivial_action())
    result = analysis.enumerate_strategies(ctx, 5, palindromic=True)
    got = {tuple(ctx.g_group.label(c[0]) for c in s.coords())
           for s in result.strategies}
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
    slow = analysis.enumerate_strategies_exhaustive(ctx, 3, palindromic=True)
    assert sorted(s.moves for s in fast.strategies) == \
        sorted(s.moves for s in slow)
    for s in fast.strategies:
        assert s.moves == s.moves[::-1]


def test_counting_up_to_spins():
    ctx = ctx_of(groups.cyclic(2), 2)
    result = analysis.enumerate_strategies(ctx, 3, up_to_h=True)
    assert result.count >= result.canonical_count > 0
    # canonical forms really are H-orbit invariants
    for s in result.strategies:
        canon = analysis.canonicalize_strategy(ctx, s)
        rotated = Strategy(ctx=ctx,
                           moves=tuple(ctx.k_act(1, mv) for mv in s.moves))
        assert analysis.canonicalize_strategy(ctx, rotated) == canon


def test_minimal_only_skips_other_lengths():
    ctx = ctx_of(groups.cyclic(2), 2)
    result = analysis.enumerate_strategies(ctx, 4, minimal_only=True)
    assert result.count == 0 and not result.strategies


def test_single_switch_unique_strategy():
    ctx = WreathContext(g_group=groups.cyclic(2), action=trivial_action())
    result = analysis.enumerate_strategies(ctx, 1)
    assert result.count == 1
    assert result.strategies[0].moves == (1,)
    assert verify(ctx, result.strategies[0]).minimal
