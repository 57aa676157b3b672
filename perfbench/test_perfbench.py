"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import random
import statistics

import pytest

import oracle
import run
import spans
import workloads

run.load_program()


def loop(requests, tracer=None):
    res = run.run_loop(iter([list(requests)]), n_decks=1, tracer=tracer,
                       keep_outcomes=True)
    if tracer is None:  # the oracle's own calls are not to be traced
        run.check_claims(res)
    return res


def cheap_requests():
    """A few fast requests of every workload, each with its real check."""
    ladder = [r for r in workloads.build("verify-ladder", 1).items
              if "Z2_wr_C4" in r.label]
    small = workloads.build("verify-small", 1)
    small.prepare()
    decide = [r for r in workloads.build("decide-mix", 1).items
              if "S3 wr C2" not in r.label and "--budget" not in r.label]
    stats = [r for r in workloads.build("stats", 1).items
             if "Z2 wr C8" not in r.label and "Z4 wr C4" not in r.label
             and "Z16 wr C2" not in r.label]
    return ladder + small.items[::100] + decide[::2] + stats[::3]


def test_cheap_requests_pass_their_checks():
    res = loop(cheap_requests())
    assert res.failed == 0, res.failures


def test_a_wrong_verdict_counts_as_a_failure():
    entry = {"puzzle": "Z2 wr C4", "file": "Z2_wr_C4.strategy",
             "length": 15, "valid": False}  # the file is in fact valid
    res = loop([workloads._ladder_request(entry)])
    assert (res.attempted, res.failed) == (1, 1)


def test_a_wrong_library_answer_counts_as_a_failure():
    small = workloads.build("verify-small", 1)
    small.prepare()
    req = small.items[0]
    answer = req.check.__defaults__[0]
    answer[0] = not answer[0]
    res = loop([req])
    assert (res.attempted, res.failed) == (1, 1)


def test_a_losing_strategy_the_program_returns_counts_as_a_failure():
    # a request whose output is a strategy missing its last move
    good = workloads.cli_request(
        "decide", ["decide", "Z2 wr C2"],
        workloads._yes_strategy("Z2 wr C2"))
    code, text = good.call()
    doc = run.json.loads(text)
    doc["payload"]["strategy"]["moves"].pop()
    bad = workloads.Request(label="truncated", call=lambda: (code, run.json.dumps(doc)),
                            check=good.check, normalize=good.normalize)
    assert loop([good]).failed == 0
    assert loop([bad]).failed == 1


def test_an_exception_counts_as_a_failure_and_the_run_goes_on():
    def boom():
        raise RecursionError("deep")
    broken = workloads.Request(label="boom", call=boom,
                               check=lambda o: (True, None),
                               normalize=lambda o: o)
    ok = cheap_requests()[0]
    res = loop([broken, ok])
    assert (res.attempted, res.failed) == (2, 1)


def test_traced_and_untraced_outputs_are_identical():
    requests = cheap_requests()
    plain = loop(requests)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = loop(requests, tracer=tracer)
    finally:
        tracer.uninstall()
    assert traced.outcomes == plain.outcomes
    assert len(tracer.spans) > len(requests)
    # uninstall restored the originals
    from spinwreath import cli, strategies
    assert cli.verify is strategies.verify
    assert not hasattr(strategies.verify, "__wrapped__")


def test_span_self_times_sum_to_each_request_wall_time():
    requests = cheap_requests()
    tracer = spans.Tracer()
    tracer.install()
    try:
        res = loop(requests, tracer=tracer)
    finally:
        tracer.uninstall()
    own = tracer.self_times()
    total = [0.0] * res.attempted
    wall = [None] * res.attempted
    for span, self_time in zip(tracer.spans, own):
        total[span.request] += self_time
        if span.name == "request":
            wall[span.request] = span.end - span.start
    assert total == pytest.approx(wall, rel=1e-9, abs=1e-9)
    names = {span.name for span in tracer.spans}
    assert {"cli.main", "strategies.verify", "actions.tables",
            "synthesis.search_belief_path", "groups.quotient",
            "analysis.enumerate_strategies"} <= names
    metrics = spans.layer_metrics(tracer, res.attempted, res.paths,
                                  res.scales)
    assert all(value >= 0 for value in metrics.values())


def test_oracle_agrees_with_the_library_on_random_strategies():
    from spinwreath.puzzle_parser import parse_puzzle
    from spinwreath.strategies import Strategy, verify

    rng = random.Random(5)
    for text in ("Z2 wr C2", "Z2 wr C3", "S3 wr C2", "Z3 wr 1"):
        ctx = parse_puzzle(text)
        for _ in range(200):
            strat = Strategy(ctx=ctx, moves=tuple(
                rng.randrange(ctx.k_size) for _ in range(rng.randint(0, 8))))
            period = rng.choice([None, 2])
            assert oracle.strategy_wins(
                *oracle.tables(ctx), strat.coords(), spin_period=period
            ) == verify(ctx, strat, spin_period=period).valid


def test_stored_enumeration_count_matches_the_oracle():
    from spinwreath.puzzle_parser import parse_puzzle

    stored = {(c["puzzle"], c["length"]): c["count"]
              for c in workloads._answers()["enumerate"]}
    ctx = parse_puzzle("Z2 wr C2")
    assert oracle.count_winning(*oracle.tables(ctx), 7) == stored[("Z2 wr C2", 7)]


def test_percentiles_match_the_statistics_module():
    rng = random.Random(3)
    for n in (2, 3, 10, 101, 250):
        res = run.LoopResult()
        values = []
        for i in range(n):
            label = f"t{rng.randrange(7)}"
            value = float(sum(map(ord, label)))  # one value per type
            res.samples[label] = run.array("d", [value])
            res.counts[label] += 1
            values.append(value)
        res.attempted = n
        assert res.percentile(0.5) == pytest.approx(statistics.median(values))
        assert res.percentile(0.9) == pytest.approx(
            statistics.quantiles(values, n=10)[8])
