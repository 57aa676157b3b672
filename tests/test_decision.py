from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwreath import decision, groups
from spinwreath.actions import (GroupAction, WreathContext,
                                cyclic_rotation_action,
                                natural_symmetric_action, regular_action)
from spinwreath.analysis import enumerate_strategies
from spinwreath.decision import (AbelianClassification, ExhaustiveBeliefSearch,
                                 OrbitRestriction, SwitchQuotient, SylowSwap,
                                 classify_abelian, decide_by_search,
                                 decide_existence,
                                 find_nonexistence_certificate,
                                 min_spin_period, render_certificate,
                                 validate_certificate)
from spinwreath.errors import BudgetExceeded, NotAbelian
from spinwreath.puzzle_parser import parse_puzzle
from spinwreath.strategies import initial_belief, minimal_length_bound, verify
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


@pytest.mark.parametrize("puzzle,q", [("Z2 wr S3", 3), ("Z2 wr D10", 5)])
def test_a_transitive_spin_subgroup_restricts_to_every_position(puzzle, q):
    # the adversary commits to the rotations C_q, which are transitive, so
    # the orbit restriction keeps every switch and meets the prime mismatch
    ctx = parse_puzzle(puzzle)
    cert = find_nonexistence_certificate(ctx)
    assert isinstance(cert, OrbitRestriction)
    assert cert.orbit == tuple(range(ctx.omega_size)) and cert.omega == 0
    assert cert.embedding.source.order == q
    assert cert.child == AbelianClassification(p_switch=2, q_spin=q)
    assert validate_certificate(ctx, cert)
    assert decide_existence(ctx).certificate == cert


def test_a_full_orbit_claimed_for_an_intransitive_subgroup_is_rejected():
    # each C2 <= S3 swaps two of the three positions and fixes the third,
    # so no position has the orbit (0, 1, 2) under it
    ctx = parse_puzzle("Z2 wr S3")
    h = ctx.action.h_group
    cert = find_nonexistence_certificate(ctx)
    assert validate_certificate(ctx, cert)
    c2s = [tuple(sorted(sub)) for sub in groups.all_subgroups(h)
           if len(sub) == 2]
    assert len(c2s) == 3
    for members in c2s:
        for omega in range(3):
            forged = replace(cert, omega=omega,
                             embedding=decision._embedding_hom(h, members))
            assert not validate_certificate(ctx, forged)


# G in {Z2, Z4, Z6, S3} x H in {C2, C3, C6, S3, D10, A4, S4}, |K| <= 4096
CENSUS_SLICE = [
    f"{g} wr {h}"
    for g in ("Z2", "Z4", "Z6", "S3")
    for h in ("C2", "C3", "C6", "S3", "D10", "A4", "S4")
    if parse_puzzle(f"{g} wr {h}").k_size <= 4096
]


def test_census_slice_certificates_validate():
    # Z2 wr C2 and Z4 wr C2 are p-groups for one prime, so they have
    # strategies; every other row, S3 wr C2 included, is certified
    certified = set()
    for puzzle in CENSUS_SLICE:
        ctx = parse_puzzle(puzzle)
        cert = find_nonexistence_certificate(ctx)
        if cert is not None:
            assert validate_certificate(ctx, cert), puzzle
            certified.add(puzzle)
    assert len(CENSUS_SLICE) == 24 and len(certified) == 22
    assert set(CENSUS_SLICE) - certified == {"Z2 wr C2", "Z4 wr C2"}


# -- the Sylow leaf: two swapped copies of G ---------------------------------

# every group the parser names with |G| <= 32 (|K| <= 1,024), up to the
# names of one group (S2 = Z2, A3 = Z3, D4 = Z2 x Z2, D6 = S3), and some
# direct products; A5 (|K| = 3,600) is left out for time
SYLOW_GROUPS = ([f"Z{n}" for n in range(1, 33)] + ["S3", "S4", "A4"]
                + [f"D{n}" for n in range(8, 33, 2)]
                + ["Z2 x Z2", "Z2 x Z2 x Z2", "Z2 x S3", "Z3 x S3",
                   "Z2 x A4", "Z2 x D8", "Z4 x Z4"])


def _two_subgroups(g):
    """The subgroups of G whose order is a power of 2, by order."""
    return [s for s in groups.all_subgroups(g) if len(s) & (len(s) - 1) == 0]


def _swap_family(ctx, subgroups):
    """{F_S : S in subgroups} as masks over G wr C2, with F_S the states
    (a, b) such that a⁻¹b is not in S."""
    g = ctx.g_group
    return frozenset(
        sum(1 << ctx.encode((a, b)) for a in g.elements()
            for b in g.elements() if g.mul[g.inv[a]][b] not in s)
        for s in subgroups)


@pytest.mark.parametrize("text", SYLOW_GROUPS)
def test_the_sylow_family_is_closed_exactly_off_2_groups(text):
    ctx = parse_puzzle(f"{text} wr C2")
    g = ctx.g_group
    two_part = max(len(s) for s in _two_subgroups(g))
    sylows = [s for s in _two_subgroups(g) if len(s) == two_part]
    closed = decision._is_closed_family(g, ctx.action,
                                        _swap_family(ctx, sylows))
    assert closed == (groups.p_group_prime(g) not in (2, groups.TRIVIAL_P))


def test_only_the_sylow_class_of_s4_gives_a_closed_family():
    # S4 has seven classes of 2-subgroups: the trivial one, the
    # transpositions, the double transpositions, the normal and the other
    # Klein four-groups, C4, and the Sylow D8
    ctx = parse_puzzle("S4 wr C2")
    g = ctx.g_group
    classes = {frozenset(frozenset(g.conjugate(x, y) for y in s)
                         for x in g.elements())
               for s in _two_subgroups(g)}
    assert len(classes) == 7
    for members in classes:
        closed = decision._is_closed_family(g, ctx.action,
                                            _swap_family(ctx, members))
        assert closed == (len(next(iter(members))) == 8)


@pytest.mark.parametrize("text", ["A5 wr C2", "S5 wr C2", "A6 wr C2",
                                  "D6 wr C2", "Z6 wr C2", "A4 wr C2"])
def test_decide_answers_g_wr_c2_by_the_sylow_leaf(text):
    ctx = parse_puzzle(text)
    result = decide_existence(ctx)
    assert result.verdict == "no" and result.states_explored == 0
    assert result.certificate == SylowSwap(order=ctx.g_group.order)
    assert validate_certificate(ctx, result.certificate)


def test_the_sylow_leaf_reaches_an_involution_of_h():
    # C2 <= C4 swaps the positions 0 and 2: S3 wr C4 restricts to S3 wr C2
    ctx = parse_puzzle("S3 wr C4")
    cert = find_nonexistence_certificate(ctx)
    assert isinstance(cert, OrbitRestriction) and cert.orbit == (0, 2)
    assert cert.child == SylowSwap(order=6)
    assert validate_certificate(ctx, cert)


def test_h_itself_restricts_to_an_orbit_when_intransitive():
    # C2 as (01)(23): its restriction to {0,1} is S3 wr C2
    action = GroupAction(h_group=z(2), omega_size=4,
                         act=((0, 1, 2, 3), (1, 0, 3, 2)))
    ctx = WreathContext(g_group=groups.symmetric(3), action=action)
    result = decide_existence(ctx, stats=SearchStats(limit=3000))
    assert result.verdict == "no" and result.states_explored == 0
    cert = result.certificate
    assert isinstance(cert, OrbitRestriction) and cert.orbit == (0, 1)
    assert cert.child == SylowSwap(order=6)
    assert validate_certificate(ctx, cert)


# C2 fixing both positions: no swap
FIXED_C2 = GroupAction(h_group=z(2), omega_size=2, act=((0, 1), (0, 1)))


@pytest.mark.parametrize("ctx,order", [
    # 2-groups, whose Sylow subgroup is G itself
    (parse_puzzle("Z4 wr C2"), 4), (parse_puzzle("D8 wr C2"), 8),
    # not the swap of two positions
    (parse_puzzle("S3 wr C3"), 6), (parse_puzzle("Z6 wr C3"), 6),
    (WreathContext(g_group=groups.symmetric(3), action=FIXED_C2,
                   allow_non_faithful=True), 6),
    # the wrong order
    (parse_puzzle("S3 wr C2"), 12), (parse_puzzle("S3 wr C2"), 3),
    # the lemma holds for the win set {e} only
    (parse_puzzle("S3 wr C2", win_set=(0, 7)), 6),
], ids=["Z4 wr C2", "D8 wr C2", "S3 wr C3", "Z6 wr C3", "S3 wr fixed C2",
        "S3 wr C2, order 12", "S3 wr C2, order 3", "S3 wr C2, win set 0,7"])
def test_the_validator_refuses_a_misapplied_sylow_leaf(ctx, order):
    assert not validate_certificate(ctx, SylowSwap(order=order))


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
    assert len(result.certificate.beliefs) <= result.states_explored
    assert validate_certificate(ctx, result.certificate)


def test_forged_exhaustive_leaf_is_rejected(monkeypatch):
    # a belief search that wrongly claims exhaustion, with only the initial
    # belief entered, must not get its forged "no" past the validator:
    # Z2 wr C4 has a strategy
    def claims_exhaustion(ctx, *, stats, **kwargs):
        stats.exhausted = True
        stats.beliefs = frozenset({initial_belief(ctx)})
        return None

    monkeypatch.setattr(decision, "search_belief_path", claims_exhaustion)
    ctx = ctx_of(z(2), 4)
    forged = decide_by_search(ctx).certificate
    assert forged.beliefs == {initial_belief(ctx)}
    assert not validate_certificate(ctx, forged)


def test_s3_with_two_swapped_positions_has_no_strategy():
    # nonabelian switches break the interchangeable-pair construction; the
    # belief graph is small enough to exhaust outright
    ctx = WreathContext(g_group=groups.symmetric(3), action=swap_action())
    result = decide_by_search(ctx)
    assert result.verdict == "no"
    assert isinstance(result.certificate, ExhaustiveBeliefSearch)
    # the leaf carries the final antichain: 3 of the 704 reachable belief
    # sets, each of 24 states, after 52 states entered
    assert result.states_explored == 52
    assert len(result.certificate.beliefs) == 3
    assert {bin(f).count("1") for f in result.certificate.beliefs} == {24}
    assert validate_certificate(ctx, result.certificate)


def test_d10_with_two_swapped_positions_has_no_strategy():
    # the exact memo ran about 80,000 states here; the antichain of the
    # ⊆-minimal belief sets closes with 5 sets after at most 300
    ctx = WreathContext(g_group=groups.dihedral(10), action=swap_action())
    result = decide_by_search(ctx)
    assert result.verdict == "no"
    assert isinstance(result.certificate, ExhaustiveBeliefSearch)
    assert result.states_explored <= 300
    assert len(result.certificate.beliefs) == 5
    assert validate_certificate(ctx, result.certificate)


def test_tampered_exhaustive_families_are_rejected():
    ctx = WreathContext(g_group=groups.symmetric(3), action=swap_action())
    cert = decide_by_search(ctx).certificate
    # each member is needed: some step contains it and no other member
    for dropped in cert.beliefs:
        assert not validate_certificate(
            ctx, replace(cert, beliefs=cert.beliefs - {dropped}))
    for tampered in (frozenset(), cert.beliefs | {0},
                     cert.beliefs | {1 << ctx.k_size}):
        assert not validate_certificate(ctx, replace(cert, beliefs=tampered))
    # Z6 wr C2 has a closed family over the same 36 states, not this one
    other = decide_by_search(ctx_of(z(6), 2)).certificate
    assert len(other.beliefs) == 1
    assert validate_certificate(ctx_of(z(6), 2), other)
    assert not validate_certificate(ctx, other)


def test_a_no_under_a_spin_period_carries_no_certificate():
    # the (mask, phase) nodes entered are not closed under the every-turn
    # step, which is all the validator checks
    result = decide_by_search(ctx_of(z(2), 3), spin_period=2)
    assert result.verdict == "no"
    assert result.certificate is None
    assert result.states_explored == 7


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


def test_the_reductions_prove_s3_wr_c2_by_the_sylow_leaf():
    # |S3| = 6 is not a power of 2, so the base fact for two swapped
    # copies proves S3 wr C2 before any quotient, and nothing is searched
    ctx = WreathContext(g_group=groups.symmetric(3), action=swap_action())
    stats = SearchStats()
    cert = find_nonexistence_certificate(ctx, stats=stats)
    assert cert == SylowSwap(order=6) and stats.states_explored == 0
    result = decide_existence(ctx)
    assert result.verdict == "no" and result.states_explored == 0
    assert result.certificate == cert and validate_certificate(ctx, cert)


def test_the_reductions_search_no_sub_context_the_theorem_solves(
        monkeypatch):
    # p-groups for one prime have strategies, so no leaf below them can
    # hold a certificate: Z8 wr C4's quotients and restrictions are all
    # such groups and cost no state
    stats = SearchStats(limit=2000)
    assert find_nonexistence_certificate(parse_puzzle("Z8 wr C4"),
                                         stats=stats) is None
    assert stats.states_explored == 0
    searched = []

    def spy(ctx, **kwargs):
        searched.append(ctx)
        return decide_by_search(ctx, **kwargs)

    monkeypatch.setattr(decision, "decide_by_search", spy)
    for text in ("S3 wr C2", "Z6 wr 1", "Z2 wr S3"):
        decide_existence(parse_puzzle(text))
    # only the whole contexts that no reduction decides are searched:
    # the Sylow leaf proves S3 wr C2 and an orbit restriction Z2 wr S3
    assert [ctx.name for ctx in searched] == ["Z6 wr 1"]
    assert not any(groups.same_prime(ctx.g_group, ctx.action.h_group)
                   for ctx in searched)


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
    assert decide_existence(
        ctx, stats=SearchStats(limit=budget)).states_explored <= budget

    stats = SearchStats(limit=budget)
    find_nonexistence_certificate(ctx, stats=stats)
    assert stats.states_explored <= budget

    # every spin period's decision counts into one total
    stats = SearchStats(limit=budget)
    try:
        min_spin_period(ctx, 3, stats=stats)
    except BudgetExceeded:
        pass
    assert stats.states_explored <= budget

    # a total shared with earlier searches counts against the same budget
    spent = data.draw(st.integers(min_value=0, max_value=budget))
    stats = SearchStats(states_explored=spent, limit=budget)
    try:
        search_belief_path(ctx, stats=stats)
    except BudgetExceeded:
        assert stats.states_explored == budget
    assert stats.states_explored <= budget


# 64 < |K| <= 1,024; decide answers the p-group Z2 wr C8 by the theorem,
# S3 wr C3 by a quotient and A4 wr C2 and D10 wr C2 by the Sylow leaf, so
# there only enumeration and the direct search spend its budget; the win
# set {0, 11} skips the reductions, and decide's own search of D10 wr C2
# enters 61 states
LARGE_BUDGET_PUZZLES = [("A4 wr C2", None), ("S3 wr C3", None),
                        ("D10 wr C2", None), ("D10 wr C2", (0, 11)),
                        ("Z2 wr C8", None)]


@settings(max_examples=15, deadline=None)
@given(puzzle=st.sampled_from(LARGE_BUDGET_PUZZLES),
       budget=st.integers(min_value=1, max_value=500))
def test_one_search_stats_caps_every_engine_above_k_64(puzzle, budget):
    text, win_set = puzzle
    ctx = parse_puzzle(text, win_set=win_set)
    stats = SearchStats(limit=budget)
    for engine in (lambda: decide_existence(ctx, stats=stats),
                   lambda: find_nonexistence_certificate(ctx, stats=stats),
                   lambda: min_spin_period(ctx, 2, stats=stats),
                   lambda: enumerate_strategies(
                       ctx, minimal_length_bound(ctx), stats=stats),
                   lambda: search_belief_path(ctx, stats=stats)):
        try:
            engine()
        except BudgetExceeded:
            assert stats.states_explored == budget
        assert stats.states_explored <= budget


def test_the_reductions_search_nothing_the_tables_decide(monkeypatch):
    # on these contexts every certificate comes from the group tables, and
    # every sub-context without one is of p-groups for one prime: each
    # certificate, or None, comes back with both searches refused, past
    # |G| = 64 and |H| = 64 too
    def refuse(*args, **kwargs):
        raise AssertionError("the reductions must not search")

    monkeypatch.setattr(decision, "search_belief_path", refuse)
    monkeypatch.setattr(decision, "decide_by_search", refuse)
    for puzzle in CENSUS_SLICE + BUDGET_PUZZLES + ["D128 wr C3", "Z7 wr S5"]:
        ctx = parse_puzzle(puzzle)
        cert = find_nonexistence_certificate(ctx)
        assert cert is None or validate_certificate(ctx, cert), puzzle


def test_a_sub_context_the_tables_cannot_reduce_is_searched(monkeypatch):
    # with both base facts switched off, Z2 wr C6 is proved by a leaf
    # search of Z2 wr C3, its restriction to C3, and Z2 x S3 wr C2, whose
    # p-quotients are 2-groups like C2, by one of S3 wr C2, its quotient by
    # the center
    monkeypatch.setattr(decision, "_abelian_leaf", lambda g, action: None)
    monkeypatch.setattr(decision, "_sylow_leaf", lambda g, action: None)
    for puzzle, node, sub_order in (("Z2 wr C6", OrbitRestriction, 2),
                                    ("Z2 x S3 wr C2", SwitchQuotient, 6)):
        ctx = parse_puzzle(puzzle)
        stats = SearchStats()
        cert = find_nonexistence_certificate(ctx, stats=stats)
        assert isinstance(cert, node), puzzle
        sub_g = cert.phi.target if node is SwitchQuotient else ctx.g_group
        assert sub_g.order == sub_order, puzzle
        assert isinstance(cert.child, ExhaustiveBeliefSearch), puzzle
        assert 0 < stats.states_explored, puzzle
        assert validate_certificate(ctx, cert), puzzle


def test_a4_leaf_below_a_restriction_and_the_center():
    # A4 x Z3 has no p-quotient but Z3 x Z3, of the spins' prime, and C9
    # no prime-order subgroup but C3: the certificate restricts to C3,
    # divides out the center Z3 and searches A4 wr C3, |K| = 1,728
    ctx = parse_puzzle("A4 x Z3 wr C9")
    result = decide_existence(ctx, stats=SearchStats(limit=2000))
    assert result.verdict == "no" and result.states_explored == 1966
    cert = result.certificate
    assert isinstance(cert, OrbitRestriction) and cert.orbit == (0, 3, 6)
    assert isinstance(cert.child, SwitchQuotient)
    assert cert.child.phi.target.order == 12
    assert isinstance(cert.child.child, ExhaustiveBeliefSearch)
    assert validate_certificate(ctx, cert)


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
    dropped = max(cert.beliefs - {initial_belief(ctx)})
    assert not validate_certificate(
        ctx, replace(cert, beliefs=cert.beliefs - {dropped}))
    # the Sylow leaf is checked from |G| and the action table alone: not
    # even the multiplication table of A6 is read
    blank = replace(groups.alternating(6), mul=None, inv=None)
    big = WreathContext(g_group=blank, action=swap_action())
    assert validate_certificate(big, SylowSwap(order=360))
    assert not validate_certificate(big, SylowSwap(order=720))


def _reference_family(ctx):
    """The element-by-element breadth-first search over belief masks, from
    k_mul and the orbit masks: every reachable belief set, or None once the
    empty set is reached."""
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
                return None
            if new not in seen:
                seen.add(new)
                queue.append(new)
    return seen


NO_STRATEGY_CONTEXTS = [
    WreathContext(g_group=groups.symmetric(3), action=swap_action()),
    ctx_of(z(2), 3),
    ctx_of(z(3), 2),
    ctx_of(z(2), 6),
    ctx_of(z(4), 3),
    ctx_of(z(6), 2),
    WreathContext(g_group=groups.direct_product(z(2), z(2)),
                  action=cyclic_rotation_action(3)),
    WreathContext(g_group=groups.loop5(), action=swap_action()),
    WreathContext(g_group=z(2), action=natural_symmetric_action(3)),
]

STRATEGY_CONTEXTS = [
    ctx_of(z(2), 2),
    ctx_of(z(2), 4),
    ctx_of(z(3), 3),
    WreathContext(g_group=groups.symmetric(3),
                  action=cyclic_rotation_action(1)),
]


def test_validator_verdicts_match_the_element_by_element_search():
    for ctx in NO_STRATEGY_CONTEXTS:
        family = _reference_family(ctx)
        cert = decide_by_search(ctx).certificate
        # the leaf is an antichain of reachable belief sets
        assert family is not None and cert.beliefs <= family, ctx.name
        assert not any(f != e and f & e == f
                       for f in cert.beliefs for e in cert.beliefs), ctx.name
        # the whole reachable family is closed too, and the loop's leaf
        # validates as well: the closure needs no associativity
        assert decision._is_closed_family(ctx.g_group, ctx.action, family)
        assert validate_certificate(ctx, cert), ctx.name
    for ctx in STRATEGY_CONTEXTS:
        assert _reference_family(ctx) is None, ctx.name
