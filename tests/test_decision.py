import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwreath import decision, groups
from spinwreath.actions import (WreathContext, cyclic_rotation_action,
                                natural_symmetric_action, regular_action)
from spinwreath.decision import (AbelianClassification, ExhaustiveBeliefSearch,
                                 OrbitRestriction, SwitchQuotient,
                                 classify_abelian, decide_by_search,
                                 decide_existence,
                                 find_nonexistence_certificate,
                                 min_spin_period, render_certificate,
                                 validate_certificate)
from spinwreath.errors import BudgetExceeded, NotAbelian
from spinwreath.puzzle_parser import parse_puzzle
from spinwreath.strategies import verify
from spinwreath.synthesis import SearchStats, search_belief_path, swap_action


def z(n):
    return groups.cyclic(n)


def ctx_of(g, n):
    return WreathContext(g_group=g, action=cyclic_rotation_action(n))


# -- abelian classification vs. search ---------------------------------------

def test_classification_agrees_with_search_on_small_abelian_contexts():
    klein = groups.direct_product(z(2), z(2))
    cases = [
        ctx_of(z(2), 2), ctx_of(z(2), 3), ctx_of(z(2), 4),
        ctx_of(z(3), 2), ctx_of(z(3), 3), ctx_of(z(4), 2),
        WreathContext(g_group=klein, action=cyclic_rotation_action(2)),
        WreathContext(g_group=z(2), action=regular_action(klein)),
    ]
    for ctx in cases:
        oracle = classify_abelian(ctx.g_group, ctx.action)
        searched = decide_by_search(ctx)
        assert oracle.verdict == searched.verdict, ctx.name
        if searched.verdict == "yes":
            assert verify(ctx, searched.strategy).valid


@pytest.mark.parametrize("text", ["Z6 wr 1", "Z10 wr 1", "Z2 x Z3 wr 1"])
def test_classification_says_yes_without_spins(text):
    # G wr 1 always has a strategy, whatever the order of G
    ctx = parse_puzzle(text)
    assert classify_abelian(ctx.g_group, ctx.action).verdict == "yes"
    assert decide_existence(ctx).verdict == "yes"


@pytest.mark.parametrize("text", ["Z2 wr C3", "Z3 wr C2", "Z4 wr C3",
                                  "Z6 wr C2", "Z9 wr C2", "Z2 wr C6"])
def test_classification_attaches_only_valid_certificates(text):
    ctx = parse_puzzle(text)
    result = classify_abelian(ctx.g_group, ctx.action)
    assert result.verdict == "no" == decide_existence(ctx).verdict
    # the leaf needs elementary abelian switches and a q-group of spins
    assert (result.certificate is not None) == (text in ("Z2 wr C3",
                                                         "Z3 wr C2"))
    if result.certificate is not None:
        assert validate_certificate(ctx, result.certificate)


def test_classification_rejects_nonabelian_switches():
    with pytest.raises(NotAbelian):
        classify_abelian(groups.symmetric(3), cyclic_rotation_action(2))


# -- certificate construction and validation ---------------------------------

def test_certificate_for_z6_quotients_to_a_prime_mismatch():
    ctx = ctx_of(z(6), 3)
    cert = find_nonexistence_certificate(ctx)
    assert isinstance(cert, SwitchQuotient)
    assert isinstance(cert.child, AbelianClassification)
    assert validate_certificate(ctx, cert)
    assert "SwitchQuotient" in render_certificate(cert)


def test_certificate_for_z2_wr_c6_restricts_to_an_orbit():
    ctx = ctx_of(z(2), 6)
    cert = find_nonexistence_certificate(ctx)
    assert isinstance(cert, OrbitRestriction)
    assert cert.orbit == (0, 2, 4)
    assert isinstance(cert.child, AbelianClassification)
    assert cert.child.p_switch == 2 and cert.child.q_spin == 3
    assert validate_certificate(ctx, cert)


def test_certificate_for_s4_switches():
    ctx = ctx_of(groups.symmetric(4), 3)
    cert = find_nonexistence_certificate(ctx)
    assert isinstance(cert, SwitchQuotient)
    assert validate_certificate(ctx, cert)


def test_tampered_certificates_fail_validation():
    ctx = ctx_of(z(2), 6)
    cert = find_nonexistence_certificate(ctx)
    wrong_prime = OrbitRestriction(
        embedding=cert.embedding, omega=cert.omega, orbit=cert.orbit,
        child=AbelianClassification(p_switch=2, q_spin=5),
    )
    assert not validate_certificate(ctx, wrong_prime)
    wrong_orbit = OrbitRestriction(
        embedding=cert.embedding, omega=cert.omega, orbit=(0, 1, 2),
        child=cert.child,
    )
    assert not validate_certificate(ctx, wrong_orbit)
    # a certificate for a different context should not validate here
    other = find_nonexistence_certificate(ctx_of(z(6), 3))
    assert not validate_certificate(ctx, other)


def test_exhaustive_leaf_certificate_validates():
    ctx = ctx_of(z(2), 3)
    result = decide_by_search(ctx)
    assert result.verdict == "no"
    assert isinstance(result.certificate, ExhaustiveBeliefSearch)
    assert result.states_explored <= 2 ** 8
    assert validate_certificate(ctx, result.certificate)


def test_forged_exhaustive_leaf_is_rejected(monkeypatch):
    # a belief search that wrongly claims exhaustion must not get its
    # forged "no" past the validator: Z2 wr C4 has a strategy
    def claims_exhaustion(ctx, *, stats=None, **kwargs):
        if stats is not None:
            stats.exhausted = True
        return None

    monkeypatch.setattr(decision, "search_belief_path", claims_exhaustion)
    ctx = ctx_of(z(2), 4)
    forged = ExhaustiveBeliefSearch(context_label=ctx.name, states_explored=1)
    assert not validate_certificate(ctx, forged)


def test_s3_with_two_swapped_positions_has_no_strategy():
    # nonabelian switches break the interchangeable-pair construction; the
    # belief graph is small enough to exhaust outright
    ctx = WreathContext(g_group=groups.symmetric(3), action=swap_action())
    result = decide_by_search(ctx)
    assert result.verdict == "no"
    assert isinstance(result.certificate, ExhaustiveBeliefSearch)
    # the leaf check reaches 704 belief sets, so a smaller budget rejects it
    assert validate_certificate(ctx, result.certificate)
    assert not validate_certificate(ctx, result.certificate, search_budget=100)


# -- the combined engine -----------------------------------------------------

def test_decide_yes_cases_return_verified_strategies():
    for ctx in [ctx_of(z(2), 4), ctx_of(z(3), 3)]:
        result = decide_existence(ctx)
        assert result.verdict == "yes"
        assert verify(ctx, result.strategy).valid


def test_decide_no_via_certificate_before_search():
    result = decide_existence(ctx_of(z(2), 3))
    assert result.verdict == "no"
    assert result.certificate is not None
    assert result.message == "nonexistence certificate found"


def test_decision_engine_agrees_with_pure_search():
    contexts = [
        ctx_of(z(2), 2), ctx_of(z(2), 3), ctx_of(z(2), 4),
        ctx_of(z(3), 2), ctx_of(z(4), 2), ctx_of(z(6), 2),
    ]
    for ctx in contexts:
        fast = decide_existence(ctx)
        slow = decide_by_search(ctx)
        assert fast.verdict == slow.verdict, ctx.name


def test_loop_switches_get_a_conjectural_verdict():
    l5 = groups.loop5()
    ctx = WreathContext(g_group=l5, action=cyclic_rotation_action(2))
    result = decide_existence(ctx)
    assert result.verdict in ("yes", "no")
    assert result.conjectural


def test_min_spin_period_for_the_three_switch_puzzle():
    ctx = ctx_of(z(2), 3)
    assert min_spin_period(ctx, 5) == 3


def test_min_spin_period_bound_too_small_returns_none():
    ctx = ctx_of(z(2), 3)
    assert min_spin_period(ctx, 2) is None


def test_exit_codes():
    assert decision.DecisionResult(verdict="yes").exit_code == 0
    assert decision.DecisionResult(verdict="no").exit_code == 3
    assert decision.DecisionResult(verdict="unknown").exit_code == 4


def test_nonstandard_win_sets_fall_back_to_search():
    ctx = WreathContext(g_group=z(2), action=cyclic_rotation_action(2),
                        win_set={0, 3})
    assert find_nonexistence_certificate(ctx) is None
    result = decide_existence(ctx)
    assert result.verdict == "yes"
    # either half-on move finishes both unsolved states at once
    assert len(result.strategy) == 1


def test_natural_s3_spins_on_three_switches():
    # H = S3 permuting three Z2 switches is unsolvable: the adversary can
    # commit to the rotation subgroup C3, which already beats every strategy
    ctx = WreathContext(g_group=z(2), action=natural_symmetric_action(3))
    result = decide_existence(ctx)
    assert result.verdict == "no"
    if result.certificate is not None:
        assert validate_certificate(ctx, result.certificate)


# -- one budget for the whole decision ---------------------------------------

# G in {Z2, Z3, Z4, Z5, Z6, Z8, Z2 x Z2, S3, D8} x H in {1, C2, C3, C4}, |K| <= 64
BUDGET_PUZZLES = [
    f"{g} wr {h}"
    for g in ("Z2", "Z3", "Z4", "Z5", "Z6", "Z8", "Z2 x Z2", "S3", "D8")
    for h in ("1", "C2", "C3", "C4")
    if parse_puzzle(f"{g} wr {h}").k_size <= 64
]


@settings(max_examples=40, deadline=None)
@given(puzzle=st.sampled_from(BUDGET_PUZZLES),
       budget=st.integers(min_value=1, max_value=5000),
       data=st.data())
def test_no_belief_search_explores_more_states_than_its_budget(puzzle, budget,
                                                               data):
    ctx = parse_puzzle(puzzle)
    assert decide_existence(ctx, budget=budget).states_explored <= budget

    stats = SearchStats()
    find_nonexistence_certificate(ctx, budget=budget, stats=stats)
    assert stats.states_explored <= budget

    # every spin period's decision counts into one total
    stats = SearchStats()
    try:
        min_spin_period(ctx, 3, budget=budget, stats=stats)
    except BudgetExceeded:
        pass
    assert stats.states_explored <= budget

    # a total shared with earlier searches counts against the same budget
    spent = data.draw(st.integers(min_value=0, max_value=budget))
    stats = SearchStats(states_explored=spent)
    try:
        search_belief_path(ctx, budget=budget, stats=stats)
    except BudgetExceeded:
        assert stats.states_explored == budget
    assert stats.states_explored <= budget


def test_validator_reads_no_tables_and_no_kernel(monkeypatch):
    # the exhaustive leaf is re-checked from the group tables alone
    ctx = WreathContext(g_group=groups.symmetric(3), action=swap_action())
    cert = decide_by_search(ctx).certificate

    def refuse(*args):
        raise AssertionError("the validator must not read this")

    for name in ("k_mul", "k_act", "k_inv"):
        monkeypatch.setattr(WreathContext, name, refuse)
    for name in ("orbit_masks", "belief_kernel"):
        monkeypatch.setattr(WreathContext, name, property(refuse))
    assert validate_certificate(ctx, cert)
    assert not validate_certificate(ctx, cert, search_budget=703)


def _reference_no_empty_set(ctx, budget):
    """The element-by-element breadth-first search over belief masks, from
    k_mul and the orbit masks: False once the empty set or more than
    ``budget`` belief sets are reached."""
    k, win, orbit = ctx.k_size, ctx.win_set, ctx.orbit_masks
    start = sum(1 << s for s in range(k) if s not in win)
    seen, queue = {start}, [start]
    for mask in queue:
        members = [s for s in range(k) if (mask >> s) & 1]
        for move in range(k):
            new = 0
            for s in members:
                t = ctx.k_mul(s, move)
                if t not in win:
                    new |= orbit[t]
            if new == 0:
                return False
            if new not in seen:
                seen.add(new)
                queue.append(new)
        if len(seen) > budget:
            return False
    return True


VALIDATOR_CASES = [
    # (context, budgets): the no-strategy contexts at and just under their
    # number of reachable belief sets, and contexts with a strategy
    (WreathContext(g_group=groups.symmetric(3), action=swap_action()),
     (1, 100, 703, 704, 10 ** 6)),
    (ctx_of(z(2), 3), (1, 2, 3, 10 ** 6)),
    (ctx_of(z(3), 2), (1, 3, 4, 10 ** 6)),
    (ctx_of(z(2), 6), (1, 3, 4, 10 ** 6)),
    (ctx_of(z(4), 3), (1, 7, 8, 10 ** 6)),
    (WreathContext(g_group=groups.direct_product(z(2), z(2)),
                   action=cyclic_rotation_action(3)), (1, 7, 8, 10 ** 6)),
    (ctx_of(z(2), 2), (1, 10 ** 6)),
    (ctx_of(z(2), 4), (1, 10 ** 6)),
    (ctx_of(z(3), 3), (2, 10 ** 6)),
    (WreathContext(g_group=groups.symmetric(3),
                   action=cyclic_rotation_action(1)), (10 ** 6,)),
    (WreathContext(g_group=groups.loop5(), action=swap_action()),
     (5, 2323, 2324)),
    (WreathContext(g_group=z(2), action=natural_symmetric_action(3)),
     (1, 2, 10 ** 6)),
]


def test_validator_verdicts_match_the_element_by_element_search():
    cases = 0
    for ctx, budgets in VALIDATOR_CASES:
        for budget in budgets:
            assert decision._belief_graph_has_no_empty_set(ctx, budget) == \
                _reference_no_empty_set(ctx, budget), (ctx.name, budget)
            cases += 1
    assert cases >= 30
