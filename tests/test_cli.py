import json
import tracemalloc

import pytest

from spinwreath import fileio
from spinwreath.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_no_for_three_switches(capsys):
    code, out, _ = run(capsys, "decide", "Z2 wr C3")
    assert code == 3
    assert "no" in out


def test_decide_yes_emits_the_strategy(capsys):
    code, out, _ = run(capsys, "decide", "Z2 wr C2")
    assert code == 0
    assert "strategy" in out


def test_decide_json_schema(capsys):
    code, out, _ = run(capsys, "decide", "Z2 wr C3", "--json")
    assert code == 3
    doc = json.loads(out)
    assert doc["schema"] == "spinwreath.cli/1"
    assert doc["command"] == "decide"
    assert doc["verdict"] == "no"
    assert "timing_seconds" in doc and "budget" in doc
    assert "certificate" in doc["payload"]
    assert doc["payload"]["validated"] is True


@pytest.mark.parametrize("argv,validated", [
    # a reduction, an exhaustive leaf, and one under a custom win set
    (["Z2 wr C3"], True),
    (["S3 wr C2"], True),
    (["S3 wr C2", "--win-set", "0,7"], True),
    # the states of a spin period above 1 are no certificate to validate
    (["Z2 wr C3", "--spin-period", "2"], False),
])
def test_decide_validates_every_no(capsys, argv, validated):
    code, out, _ = run(capsys, "decide", *argv, "--json")
    assert code == 3
    payload = json.loads(out)["payload"]
    assert payload["validated"] is validated
    assert ("certificate" in payload) is validated


def test_decide_reports_validated_only_for_a_no(capsys):
    # no reduction reaches A4 wr C3, so its search spends the budget
    for puzzle, code in (("Z2 wr C2", 0), ("A4 wr C3", 4)):
        got, out, _ = run(capsys, "decide", puzzle, "--budget", "20",
                          "--json")
        assert got == code
        assert "validated" not in json.loads(out)["payload"]


def test_decide_rejected_certificate_is_not_reported(capsys, monkeypatch):
    from spinwreath import cli

    monkeypatch.setattr(cli, "validate_certificate", lambda *a, **k: False)
    code, out, err = run(capsys, "decide", "S3 wr C2", "--json")
    assert code == 4
    assert out == ""
    assert "rejected" in err


def test_decide_counts_the_states_behind_a_certificate(capsys):
    # a custom win set skips the reductions, so the states are those the
    # search of the whole context enters before its antichain of 3 sets
    # closes
    code, out, _ = run(capsys, "decide", "S3 wr C2", "--win-set", "0,7",
                       "--json")
    assert code == 3
    doc = json.loads(out)
    assert "ExhaustiveBeliefSearch" in doc["payload"]["certificate"]
    assert "sets=3" in doc["payload"]["certificate"]
    assert doc["budget"]["states_explored"] == 16
    # under the win set {e} the Sylow leaf proves it, and no state is
    # entered
    code, out, _ = run(capsys, "decide", "S3 wr C2", "--json")
    assert code == 3
    doc = json.loads(out)
    assert doc["payload"]["certificate"] == "SylowSwap(|G|=6)"
    assert doc["budget"]["states_explored"] == 0


def test_decide_counts_the_states_of_a_failed_certificate_search(capsys):
    # Z6 wr 1 is no p-group, but its quotients Z2 and Z3 are, so no
    # reduction searches a leaf, and the one search of the whole context
    # finds a strategy in 5 states
    code, out, _ = run(capsys, "decide", "Z6 wr 1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "yes"
    assert doc["payload"]["message"] == "belief search found a strategy"
    assert doc["budget"]["states_explored"] == 5


def test_decide_answers_p_groups_by_the_theorem(capsys):
    # no certificate search runs on a p-group for one prime
    code, out, _ = run(capsys, "decide", "Z2 wr C4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "yes"
    assert doc["payload"]["message"] == "p-group construction"
    assert doc["budget"]["states_explored"] == 0


@pytest.mark.parametrize("puzzle", ["Z128 wr 1", "Z81 wr 1"])
def test_decide_answers_p_groups_past_order_64_by_the_theorem(capsys, puzzle):
    # the construction walks the subgroup chain, not the subgroup lattice
    # (which stops at |G| = 64), so no belief state is entered
    code, out, _ = run(capsys, "decide", puzzle, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "yes"
    assert doc["payload"]["message"] == "p-group construction"
    assert doc["budget"]["states_explored"] == 0


def test_a_broken_p_group_construction_is_not_swallowed(capsys, monkeypatch):
    from spinwreath import decision, synthesis
    from spinwreath.errors import BaseCaseVerificationFailed
    from spinwreath.puzzle_parser import parse_puzzle
    from spinwreath.strategies import Strategy

    build = synthesis._pgroup_strategy

    def drops_a_move(ctx):
        strat = build(ctx)
        return Strategy(ctx=ctx, moves=strat.moves[:-1])

    monkeypatch.setattr(synthesis, "_pgroup_strategy", drops_a_move)
    with pytest.raises(BaseCaseVerificationFailed):
        decision.decide_existence(parse_puzzle("Z2 wr C4"))
    code, _, err = run(capsys, "construct", "Z4 wr C2", "--method", "pgroup")
    assert code != 0
    assert err.startswith("error:")


@pytest.mark.parametrize("puzzle,budget,exit_code", [("A4 wr C3", 50, 4),
                                                     ("Z4 wr C4", 100, 0)])
def test_decide_explores_at_most_its_budget(capsys, puzzle, budget, exit_code):
    # the certificate leaves and the final search share the one budget
    code, out, _ = run(capsys, "decide", puzzle, "--budget", str(budget),
                       "--json")
    assert code == exit_code
    doc = json.loads(out)
    assert doc["budget"]["limit"] == budget
    assert doc["budget"]["states_explored"] <= budget


def test_certify_counts_the_states_of_its_leaves(capsys):
    # the Sylow leaf of S3 wr C2 rests on |G| and the swap: no search
    code, out, _ = run(capsys, "certify", "S3 wr C2", "--json")
    assert code == 3
    doc = json.loads(out)
    assert doc["payload"]["certificate"] == "SylowSwap(|G|=6)"
    assert doc["budget"]["states_explored"] == 0


def test_certify_answers_p_groups_by_the_theorem(capsys):
    # certify is decide plus the validator: a p-group is a "yes" from the
    # construction, so no belief search runs and no certificate is found
    code, out, _ = run(capsys, "certify", "Z2 wr C8", "--budget", "2000",
                       "--json")
    assert code == 4
    doc = json.loads(out)
    assert doc["verdict"] == "unknown"
    assert doc["budget"]["states_explored"] == 0


@pytest.mark.parametrize("puzzle", ["S3 wr C2", "D6 wr C2", "Z6 wr C3",
                                    "Z2 wr C6", "S4 wr C3", "A4 wr C2",
                                    "Z2 x Z2 wr C3", "Z2 wr C3"])
def test_certify_prints_the_certificate_of_decide(capsys, puzzle):
    code, out, _ = run(capsys, "decide", puzzle, "--json")
    assert code == 3
    decided = json.loads(out)["payload"]["certificate"]
    code, out, _ = run(capsys, "certify", puzzle, "--json")
    assert code == 3
    doc = json.loads(out)
    assert doc["payload"]["validated"] is True
    assert doc["payload"]["certificate"] == decided


def test_construct_verify_round_trip(tmp_path, capsys):
    out_path = tmp_path / "four.strategy"
    code, _, _ = run(capsys, "construct", "Z2 wr C4", "--method", "pgroup",
                     "--output", str(out_path))
    assert code == 0
    first = out_path.read_text()
    code, _, _ = run(capsys, "verify", "Z2 wr C4",
                     "--strategy", str(out_path))
    assert code == 0
    # what construct wrote is accepted and re-serialized byte-identically
    from spinwreath.puzzle_parser import parse_puzzle

    strat = fileio.load_strategy(str(out_path), parse_puzzle("Z2 wr C4"))
    assert fileio.format_strategy(strat) == first


def test_strategy_text_is_formatted_only_when_printed_or_written(
        tmp_path, capsys, monkeypatch):
    # --json prints no human record, so decide and construct format no
    # strategy text for it; construct --output still writes the file
    formatted = []
    format_strategy = fileio.format_strategy
    monkeypatch.setattr(fileio, "format_strategy",
                        lambda strat: formatted.append(strat)
                        or format_strategy(strat))
    for argv in (["decide", "Z2 wr C2"],
                 ["construct", "Z2 wr C2", "--method", "pgroup"]):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0 and json.loads(out)["payload"]["strategy"]
        assert not formatted
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "strategy Z2 wr C2 3" in out
        assert len(formatted) == 1
        formatted.clear()
    out_path = tmp_path / "z2c2.strategy"
    code, _, _ = run(capsys, "construct", "Z2 wr C2", "--method", "pgroup",
                     "--output", str(out_path), "--json")
    assert code == 0 and len(formatted) == 1
    assert out_path.read_text().startswith("strategy Z2 wr C2 3\n")


def test_strategy_payload_is_built_only_under_json(capsys, monkeypatch):
    # without --json main prints the human record alone, so decide and
    # construct build no payload strategy for it
    from spinwreath import cli

    built = []
    strategy_payload = cli._strategy_payload
    monkeypatch.setattr(cli, "_strategy_payload",
                        lambda strat: built.append(strat)
                        or strategy_payload(strat))
    for argv in (["decide", "Z2 wr C2"],
                 ["construct", "Z2 wr C2", "--method", "pgroup"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "strategy Z2 wr C2 3" in out
        assert not built
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert json.loads(out)["payload"]["strategy"]["length"] == 3
        assert len(built) == 1
        built.clear()


def test_construct_with_a_spin_period(tmp_path, capsys):
    from spinwreath.puzzle_parser import parse_puzzle
    from spinwreath.strategies import verify

    out_path = tmp_path / "period.strategy"
    code, _, _ = run(capsys, "construct", "Z2 wr C4", "--method", "pgroup",
                     "--spin-period", "2", "--output", str(out_path))
    assert code == 0
    ctx = parse_puzzle("Z2 wr C4")
    strat = fileio.load_strategy(str(out_path), ctx)
    assert verify(ctx, strat, spin_period=2).valid


@pytest.mark.parametrize("period", [2, 3])
@pytest.mark.parametrize("puzzle,method", [
    ("S3 wr 1", "trivial"), ("Z2 x Z2 wr C2", "involution"),
    ("Z2 wr C4", "pgroup")])
def test_construct_with_a_spin_period_by_method(tmp_path, capsys, puzzle,
                                                method, period):
    # construct checks each strategy once, against spins every turn; one
    # that beats them beats spins every r-th turn too
    from spinwreath.puzzle_parser import parse_puzzle
    from spinwreath.strategies import verify

    out_path = tmp_path / "period.strategy"
    code, _, _ = run(capsys, "construct", puzzle, "--method", method,
                     "--spin-period", str(period), "--output", str(out_path))
    assert code == 0
    ctx = parse_puzzle(puzzle)
    strat = fileio.load_strategy(str(out_path), ctx)
    assert verify(ctx, strat, spin_period=period).valid


@pytest.mark.parametrize("puzzle,method", [
    ("Z2 wr C8", "pgroup"), ("S3 wr 1", "trivial"),
    ("Z2 x Z2 wr C2", "involution")])
def test_construct_verifies_once(capsys, monkeypatch, puzzle, method):
    from spinwreath import cli, strategies, synthesis

    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return strategies.verify(*args, **kwargs)

    monkeypatch.setattr(synthesis, "verify", spy)
    monkeypatch.setattr(cli, "verify", spy)
    code, _, _ = run(capsys, "construct", puzzle, "--method", method)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("puzzle,method,header", [
    ("Z5 wr 1", "trivial", "strategy Z5 wr 1 4"),
    ("Z2 wr C2", "involution", "strategy Z2 wr C2 3"),
    ("Z2 wr C2", "pgroup", "strategy Z2 wr C2 3"),
    ("Z2 wr C2", "search", "strategy Z2 wr C2 3"),
    ("Z4 wr 1", "pgroup", "strategy Z4 wr 1 3"),
    # the trivial group has the empty involution generating set
    ("Z1 wr C2", "involution", "strategy Z1 wr C2 0"),
    ("1 wr C2", "involution", "strategy 1 wr C2 0")])
def test_construct_names_the_context_typed(capsys, puzzle, method, header):
    code, out, _ = run(capsys, "construct", puzzle, "--method", method)
    assert code == 0
    assert out.splitlines()[0] == header


# the contexts of G in {Z2, Z3, Z4, Z6, Z8, Z9, Z2 x Z2, S3, D8, D10, A4,
# Z12} and H in {1, C2, C3, C4, S3, D8}, win set {0} or {1}, that an
# interleave along a proper nontrivial normal subgroup of G solves: each
# is a p-group or has a trivial spin group
_NORMAL_SUBGROUP_GRID = (
    [(f"{g} wr {h}", "0", "pgroup") for g in ("Z4", "Z8", "Z2 x Z2", "D8")
     for h in ("1", "C2", "C4", "D8")]
    + [("Z9 wr 1", "0", "pgroup"), ("Z9 wr C3", "0", "pgroup")]
    + [(f"{g} wr 1", "1", "pgroup")
       for g in ("Z4", "Z8", "Z9", "Z2 x Z2", "D8")]
    + [(f"{g} wr 1", win, "trivial") for win in ("0", "1")
       for g in ("Z6", "S3", "D10", "A4", "Z12")])


@pytest.mark.parametrize("puzzle,win,method", _NORMAL_SUBGROUP_GRID)
def test_pgroup_or_trivial_covers_the_normal_subgroup_grid(
        tmp_path, capsys, puzzle, win, method):
    from spinwreath.puzzle_parser import parse_puzzle
    from spinwreath.strategies import verify

    out_path = tmp_path / "built.strategy"
    code, _, _ = run(capsys, "construct", puzzle, "--method", method,
                     "--win-set", win, "--output", str(out_path))
    assert code == 0
    ctx = parse_puzzle(puzzle, win_set={int(win)})
    assert verify(ctx, fileio.load_strategy(str(out_path), ctx)).valid


def test_construct_checks_a_win_set_the_constructor_did_not_use(capsys):
    # the involution construction builds its strategy for the win set {0}
    # and verifies it against the win set given; a strategy for {0} need not
    # win when only state 1 = (0, 1) counts as solved
    code, _, err = run(capsys, "construct", "Z2 wr C2",
                       "--method", "involution", "--win-set", "1")
    assert code == 2
    assert "verification" in err
    code, _, _ = run(capsys, "construct", "Z2 wr C2",
                     "--method", "involution", "--win-set", "3")
    assert code == 0


def test_verify_rejects_a_bad_strategy(tmp_path, capsys):
    bad = tmp_path / "bad.strategy"
    bad.write_text("strategy x 1\n1 0 0 0\n")
    code, out, _ = run(capsys, "verify", "Z2 wr C4", "--strategy", str(bad))
    assert code == 3
    assert "invalid" in out


def test_verify_naive_cross_check(tmp_path, capsys):
    out_path = tmp_path / "three.strategy"
    code, _, _ = run(capsys, "construct", "Z2 wr C2", "--method", "search",
                     "--output", str(out_path))
    assert code == 0
    code, _, _ = run(capsys, "verify", "Z2 wr C2",
                     "--strategy", str(out_path), "--naive")
    assert code == 0


def test_construct_trivial_needs_a_trivial_spin_group(capsys):
    code, _, err = run(capsys, "construct", "Z5 wr C2", "--method", "trivial")
    assert code == 2
    assert "trivial" in err
    code, out, _ = run(capsys, "construct", "Z5 wr 1", "--method", "trivial")
    assert code == 0
    assert out.startswith("strategy")


def test_construct_reports_the_states_it_searched(capsys):
    from spinwreath.decision import decide_by_search
    from spinwreath.puzzle_parser import parse_puzzle

    states = decide_by_search(parse_puzzle("S3 x Z2 wr 1")).states_explored
    code, out, _ = run(capsys, "construct", "S3 x Z2 wr 1", "--method",
                       "search", "--json")
    assert code == 0
    assert json.loads(out)["budget"]["states_explored"] == states == 11


def test_construct_involution_failure_is_a_usage_error(capsys):
    code, _, err = run(capsys, "construct", "S3 wr C2",
                       "--method", "involution")
    assert code == 2
    assert "verification" in err


def test_construct_search_failure_exit_codes(capsys):
    # an exhausted search proves "no" (3); a depth-limited one knows nothing (4)
    code, _, err = run(capsys, "construct", "S3 wr C2", "--method", "search")
    assert code == 3
    assert "no strategy" in err
    code, _, err = run(capsys, "construct", "Z2 wr C4", "--method", "search",
                       "--depth", "2")
    assert code == 4
    assert "no strategy" in err


def test_json_prints_a_record_on_every_verdict_exit(tmp_path, capsys):
    # a spent budget or an exhausted search stops the command with its line
    # on stderr, and --json still prints one record with the states counted
    idle = tmp_path / "idle.strategy"
    idle.write_text("strategy Z2 wr C2 4\n" + "0 0\n" * 4)
    for argv, code, verdict, states in (
            (["enumerate", "S3 wr 1", "--length", "5", "--budget", "100"],
             4, "unknown", 100),
            (["construct", "S3 wr C2", "--method", "search"], 3, "no", 52),
            (["verify", "Z2 wr C2", "--strategy", str(idle), "--naive",
              "--budget", "10"], 4, "unknown", 0),
            (["min-spin-period", "S3 wr C2", "--budget", "10"], 4, "unknown",
             10)):
        got, out, err = run(capsys, *argv, "--json")
        assert got == code
        doc = json.loads(out)
        assert doc["schema"] == "spinwreath.cli/1"
        assert doc["verdict"] == verdict
        assert doc["payload"] == {"context": argv[1],
                                  "message": err.split(": ", 1)[1].rstrip()}
        assert doc["budget"]["states_explored"] == states


def test_enumerate_palindromic_s3(capsys):
    code, out, _ = run(capsys, "enumerate", "S3 wr 1", "--length", "5",
                       "--palindromic", "--json")
    assert code == 0
    assert json.loads(out)["payload"]["count"] == 12


def test_expect_models(tmp_path, capsys):
    out_path = tmp_path / "w.strategy"
    run(capsys, "construct", "Z2 wr C4", "--method", "pgroup",
        "--output", str(out_path))
    code, out, _ = run(capsys, "expect", "Z2 wr C4", "--model", "strategy",
                       "--strategy", str(out_path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["expected_moves"] == "8"
    assert doc["payload"]["absorbed_probability"] == "1"
    code, out, _ = run(capsys, "expect", "Z2 wr C4", "--model", "random")
    assert code == 0 and "15" in out
    code, out, _ = run(capsys, "expect", "Z2 wr C2", "--model", "montecarlo",
                       "--trials", "200", "--seed", "5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 5 and doc["payload"]["trials"] == 200
    assert doc["payload"]["closed_form"] == "3"


def test_montecarlo_gives_no_closed_form_for_another_win_set(capsys):
    # the closed form |K| - 1 of random play holds for the win set {0} only
    code, out, _ = run(capsys, "expect", "Z2 wr C4", "--model", "montecarlo",
                       "--trials", "200", "--seed", "1", "--win-set", "0,5",
                       "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert "closed_form" not in payload
    assert payload["sample_mean"] < 15


def test_montecarlo_draws_an_unsolved_identity(capsys):
    # with the win set {1}, the identity 0 is the only unsolved state of
    # Z2 wr 1, and the one move 1 wins from it
    code, out, _ = run(capsys, "expect", "Z2 wr 1", "--model", "montecarlo",
                       "--win-set", "1", "--trials", "50", "--json")
    assert code == 0
    assert json.loads(out)["payload"]["sample_mean"] == 1.0


@pytest.mark.parametrize("model", ["montecarlo", "nonbacktracking"])
def test_a_game_past_the_turn_cap_is_unknown(capsys, monkeypatch, model):
    # Z2 wr C4 games take 15 turns on average: with a cap of 2 turns one of
    # the 50 seeded games passes it, and the command says unknown (exit 4)
    from spinwreath import analysis

    monkeypatch.setattr(analysis, "MAX_TURNS", 2)
    code, out, err = run(capsys, "expect", "Z2 wr C4", "--model", model,
                         "--trials", "50", "--seed", "1", "--json")
    assert code == 4
    assert json.loads(out)["verdict"] == "unknown"
    assert "budget exceeded" in err and "Traceback" not in err


@pytest.mark.parametrize("model", ["montecarlo", "nonbacktracking"])
def test_sampled_play_counts_each_turn_as_a_state(capsys, model):
    code, out, _ = run(capsys, "expect", "Z2 wr C4", "--model", model,
                       "--trials", "200", "--seed", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    turns = doc["budget"]["states_explored"]
    assert turns > 200 and doc["payload"]["sample_mean"] == turns / 200


@pytest.mark.parametrize("model", ["montecarlo", "nonbacktracking"])
def test_sampled_play_stops_at_the_budget(capsys, model):
    # one game on |K| = 2^24 takes about 1.7e7 turns; the budget cuts it.
    # A list over K would take over 100 MB, while the rows above
    # DENSE_TABLE_CAP work out each entry when it is read
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "expect", "Z2 wr C24", "--model", model,
                             "--trials", "1", "--seed", "1", "--budget",
                             "1000", "--json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert code == 4
    doc = json.loads(out)
    assert doc["verdict"] == "unknown"
    assert doc["budget"]["states_explored"] == 1000
    assert "budget exceeded" in err and "Traceback" not in err


def test_expect_needs_an_unsolved_state(tmp_path, capsys):
    one = tmp_path / "one.strategy"
    one.write_text("strategy Z2 wr 1 1\n1\n")
    for argv in (["Z1 wr 1", "--model", "montecarlo"],
                 ["Z2 wr 1", "--model", "montecarlo", "--win-set", "0,1"],
                 ["Z2 wr 1", "--strategy", str(one), "--win-set", "0,1"]):
        code, _, err = run(capsys, "expect", *argv)
        assert code == 2
        assert "win set" in err and "Traceback" not in err


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "Z2 wr C3")
    assert code == 3 and "prime mismatch" in out
    code, _, _ = run(capsys, "classify", "Z2 wr C4")
    assert code == 0


@pytest.mark.parametrize("puzzle,certificate", [
    # G is not elementary abelian, or H is no q-group: the classification
    # leaf does not apply, so classify attaches the certificate certify
    # finds, the Sylow leaf for two swapped copies of G
    ("Z4 wr C3", "SwitchQuotient(Z4 -> Z4/N2)"),
    ("Z6 wr C3", "SwitchQuotient(Z6 -> Z6/N3)"),
    ("Z6 wr C2", "SylowSwap(|G|=6)"),
    ("Z9 wr C2", "SylowSwap(|G|=9)"),
    ("Z2 wr C6", "OrbitRestriction(omega=0, orbit={0,2,4}"),
])
def test_classify_attaches_the_reduction_certificate(capsys, puzzle,
                                                     certificate):
    code, out, _ = run(capsys, "classify", puzzle, "--json")
    payload = json.loads(out)["payload"]
    assert code == 3 and payload["message"].startswith("prime mismatch")
    assert payload["certificate"].startswith(certificate)
    assert payload["validated"] is True
    _, out, _ = run(capsys, "certify", puzzle, "--json")
    assert json.loads(out)["payload"]["certificate"] == payload["certificate"]


def test_certify(capsys):
    code, out, _ = run(capsys, "certify", "Z6 wr C3")
    assert code == 3
    assert "SwitchQuotient" in out
    code, out, _ = run(capsys, "certify", "Z2 wr C2")
    assert code == 4
    assert "no nonexistence certificate" in out


def test_certify_rejected_certificate_is_not_reported_valid(capsys,
                                                             monkeypatch):
    from spinwreath import cli

    monkeypatch.setattr(cli, "validate_certificate", lambda *a, **k: False)
    code, out, err = run(capsys, "certify", "Z6 wr C3", "--json")
    assert code == 4
    assert out == ""
    assert "rejected" in err


def test_min_spin_period(capsys):
    code, out, _ = run(capsys, "min-spin-period", "Z2 wr C3", "--bound", "5")
    assert code == 0 and "3" in out
    code, _, _ = run(capsys, "min-spin-period", "Z2 wr C3", "--bound", "2")
    assert code == 3


def test_min_spin_period_shares_one_budget(capsys):
    # periods 1 and 2 spend 241 states, and period 3 runs out of the rest:
    # the total stops at the budget
    code, out, _ = run(capsys, "min-spin-period", "Z2 x Z2 wr C3",
                       "--bound", "5", "--budget", "3000", "--json")
    assert code == 4
    assert json.loads(out)["budget"]["states_explored"] == 3000


def test_parse_errors_exit_2(capsys):
    code, _, err = run(capsys, "decide", "Z2 wr !")
    assert code == 2
    assert "position" in err


@pytest.mark.parametrize("argv", [
    ["decide", "Z2 wr C2", "--win-set", "a"],
    ["decide", "Z2 wr C2", "--win-set", "9"],
    ["decide", "Z2 wr C2", "--spin-period", "0"],
    ["decide", "Z2 wr C2", "--spin-period", "-1"],
    ["expect", "Z2 wr C2", "--model", "montecarlo", "--trials", "0"],
    # classify and certify answer for spins every turn and the win set
    # {0}; decide takes both flags
    ["certify", "Z2 wr C3", "--spin-period", "3"],
    ["classify", "Z2 wr C3", "--spin-period", "2"],
    ["classify", "Z2 wr C3", "--win-set", "0,1,2,3,4,5,6,7"],
    ["certify", "Z2 wr C3", "--win-set", "0,7"],
    # expect, enumerate and min-spin-period answer for spins every turn,
    # and the closed form of random play for the win set {0}
    ["expect", "Z2 wr C3", "--model", "random", "--spin-period", "3"],
    ["enumerate", "Z2 wr C2", "--length", "4", "--spin-period", "2"],
    ["min-spin-period", "Z2 wr C3", "--spin-period", "2"],
    ["expect", "Z2 wr C4", "--model", "random", "--win-set", "0,5"],
    # min-spin-period searches the periods 1..bound, so it needs one
    ["min-spin-period", "Z2 wr C3", "--bound", "0"],
    ["min-spin-period", "Z2 wr C3", "--bound", "-2"],
    # only expect samples, so only expect takes a seed
    ["decide", "Z2 wr C2", "--seed", "1"],
    # a budget admits at least one state; a length or a depth may be 0
    ["decide", "S3 wr C2", "--budget", "-5", "--json"],
    ["decide", "S3 wr C2", "--budget", "0"],
    ["enumerate", "Z2 wr C2", "--length", "-1"],
    ["construct", "Z2 wr C2", "--method", "search", "--depth", "-1"],
    # a family of order 0, in the switch or the spin term
    ["decide", "Z0 wr C2"],
    ["decide", "Z2 wr C0"],
    ["decide", "S0 wr 1"],
    ["decide", "A0 wr 1"],
    ["decide", "D0 wr 1"],
    # the involution-pair construction needs exactly two positions
    ["construct", "Z2 wr C4", "--method", "involution"],
    # a path that is a directory is no file to read or write
    ["verify", "Z2 wr C2", "--strategy", "."],
    ["construct", "Z2 wr C2", "--method", "pgroup", "--output", "."],
    ["decide", "@."],
])
def test_malformed_flags_are_usage_errors(capsys, argv):
    # argparse exits by SystemExit, the handlers by returning the code
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "Traceback" not in err


def test_flags_that_change_the_game_reach_only_commands_that_use_them(capsys):
    code, _, _ = run(capsys, "decide", "Z2 wr C3", "--spin-period", "3")
    assert code == 0
    code, _, _ = run(capsys, "certify", "Z2 wr C3", "--spin-period", "1")
    assert code == 3
    code, _, _ = run(capsys, "classify", "Z2 wr C3", "--win-set", "0")
    assert code == 3
    # certify answers for the win set {0} only
    code, _, _ = run(capsys, "certify", "Z2 wr C3", "--win-set", "0,7")
    assert code == 2
    # the other models of expect honour a custom win set
    code, _, _ = run(capsys, "expect", "Z2 wr C4", "--model", "montecarlo",
                     "--trials", "50", "--win-set", "0,5")
    assert code == 0


def test_main_builds_its_parser_once(capsys, monkeypatch):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(2):
        code, _, _ = run(capsys, "decide", "Z2 wr C2", "--json")
        assert code == 0
    assert built == []


def test_enumerate_reports_the_prefixes_it_entered(capsys):
    from spinwreath.analysis import enumerate_strategies
    from spinwreath.puzzle_parser import parse_puzzle
    from spinwreath.synthesis import SearchStats

    stats = SearchStats()
    enumerate_strategies(parse_puzzle("S3 wr 1"), 5, stats=stats)
    code, out, _ = run(capsys, "enumerate", "S3 wr 1", "--length", "5",
                       "--json")
    assert code == 0
    assert json.loads(out)["budget"]["states_explored"] == \
        stats.states_explored > 0


def test_enumerate_output_writes_the_walks_strategies(tmp_path, capsys):
    from spinwreath.puzzle_parser import parse_puzzle
    from test_analysis import _canonical_count, _unmemoized_walk

    ctx = parse_puzzle("Z2 wr C2")
    found, _, _ = _unmemoized_walk(ctx, 7)
    assert len(found) == 4250
    path = tmp_path / "all.txt"
    code, _, _ = run(capsys, "enumerate", "Z2 wr C2", "--length", "7",
                     "--output", str(path))
    assert code == 0
    # one line per strategy, in the walk's order, each move as coordinates
    assert path.read_text().splitlines() == [
        " ".join(",".join(map(str, ctx.decode(mv))) for mv in moves)
        for moves in found]
    code, out, _ = run(capsys, "enumerate", "Z2 wr C2", "--length", "7",
                       "--up-to-h", "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["count"] == 4250
    assert payload["canonical_count"] == _canonical_count(ctx, found)


def test_enumerate_output_streams_the_listing(tmp_path, capsys,
                                             monkeypatch):
    # the file is written from the walk's sequences, with no Strategy built
    from spinwreath.puzzle_parser import parse_puzzle
    from spinwreath.strategies import Strategy
    from test_analysis import _unmemoized_walk

    def unbuilt(*args, **kwargs):
        raise AssertionError("--output built a Strategy")

    monkeypatch.setattr(Strategy, "__init__", unbuilt)
    ctx = parse_puzzle("Z2 wr C2")
    found, _, _ = _unmemoized_walk(ctx, 7)
    path = tmp_path / "all.txt"
    code, _, _ = run(capsys, "enumerate", "Z2 wr C2", "--length", "7",
                     "--output", str(path))
    assert code == 0
    assert path.read_bytes() == "".join(
        " ".join(",".join(map(str, ctx.decode(mv))) for mv in moves) + "\n"
        for moves in found).encode()


def test_enumerate_up_to_h_refuses_a_win_set_the_spins_move(capsys):
    # the spin of Z2 wr C2 sends 1 to 2, outside the win set {0, 1}
    code, out, err = run(capsys, "enumerate", "Z2 wr C2", "--win-set", "0,1",
                         "--length", "3", "--up-to-h")
    assert code == 2 and not out
    assert "win set" in err and "Traceback" not in err


def test_zero_length_and_depth_still_answer(capsys):
    code, out, _ = run(capsys, "enumerate", "Z2 wr C2", "--length", "0")
    assert code == 0 and "0 strategies of length 0" in out
    code, _, err = run(capsys, "construct", "Z2 wr C2", "--method", "search",
                       "--depth", "0")
    assert code == 4 and "depth 0" in err


def test_verify_naive_gives_a_verdict_on_a_long_strategy(tmp_path, capsys):
    # 1,500 identity moves, one spin on the last turn: two spin paths, each
    # 1,500 turns deep, and neither wins
    path = tmp_path / "long.strategy"
    path.write_text("strategy Z2 wr C2 1500\n" + "0 0\n" * 1500)
    code, out, err = run(capsys, "verify", "Z2 wr C2", "--strategy",
                         str(path), "--naive", "--spin-period", "1500")
    assert code == 3 and "invalid" in out
    assert "Traceback" not in err


def test_enumerate_long_lengths_run_out_of_budget_not_stack(capsys):
    # one prefix per move, 3000 deep: the budget stops it, not the stack
    code, _, err = run(capsys, "enumerate", "Z2 wr 1", "--length", "3000",
                       "--budget", "10000")
    assert code == 4
    assert "budget" in err and "Traceback" not in err


def test_missing_files_exit_2(capsys):
    code, _, err = run(capsys, "decide", "@/nonexistent.context")
    assert code == 2


def test_win_set_flag(capsys):
    code, out, _ = run(capsys, "decide", "Z2 wr C2", "--win-set", "0,3",
                       "--json")
    assert code == 0
    assert json.loads(out)["payload"]["strategy"]["length"] == 1


def test_loop_guard(tmp_path, capsys):
    from spinwreath import groups
    from spinwreath.actions import cyclic_rotation_action

    fileio.save_group(groups.loop5(), str(tmp_path / "l5.group"))
    fileio.save_group(groups.cyclic(2), str(tmp_path / "c2.group"))
    fileio.save_action(cyclic_rotation_action(2), str(tmp_path / "rot.action"))
    (tmp_path / "l5.context").write_text(
        "context L5 pair\ngroup l5.group\nspin-group c2.group\n"
        "action rot.action\n")
    code, _, err = run(capsys, "decide", f"@{tmp_path}/l5.context")
    assert code == 2 and "--loop" in err
    code, out, _ = run(capsys, "decide", f"@{tmp_path}/l5.context", "--loop")
    assert code in (0, 3)
    assert "conjectural" in out
    # certify and classify answer for group switches only
    for command in ("certify", "classify"):
        code, _, err = run(capsys, command, f"@{tmp_path}/l5.context",
                           "--loop")
        assert code == 2
        assert "group switches" in err and "Traceback" not in err
