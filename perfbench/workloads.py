"""The four workloads and the known answer each request is checked against.

A workload is an endless series of *decks*.  A deck is a fixed multiset of
requests in an order shuffled by the seed, so every whole deck does the same
work and only the order changes from seed to seed.  The run loop stops only
between decks, which keeps the request mix, and so the percentiles, the same
on every run.

Each request has ``call()``, which is what gets timed, and ``check(outcome)``,
which returns ``(ok, claim)``.  A claim is a strategy the program returned;
the run loop collects them and ``verify_claim`` checks each distinct one with
``oracle`` after the timed loop.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Tuple

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

# Monte Carlo answers must lie within this many standard errors of the
# paper's closed form |K| - 1 (the standard deviation of the number of
# turns is taken as |K| - 1, as for a geometric distribution).
MC_TOLERANCE_SIGMAS = 5


@dataclass(frozen=True)
class Request:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Tuple[bool, object]]
    # the outcome in a form that compares equal across runs
    normalize: Callable[[object], object]


@dataclass
class Workload:
    items: List[Request]
    # one of these joins each deck in turn (deck i takes rotating[i % n])
    rotating: Tuple[Request, ...] = ()
    prepare: Optional[Callable[[], None]] = None

    def decks(self, rng: random.Random) -> Iterator[List[Request]]:
        i = 0
        while True:
            deck = list(self.items)
            if self.rotating:
                deck.append(self.rotating[i % len(self.rotating)])
            rng.shuffle(deck)
            yield deck
            i += 1


# ---------------------------------------------------------------------------
# CLI requests
# ---------------------------------------------------------------------------

def _call_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _doc(outcome):
    code, text = outcome
    return code, json.loads(text)


def _normalize_cli(outcome):
    code, doc = _doc(outcome)
    doc.pop("timing_seconds", None)
    return code, doc


def cli_request(label, argv, expect) -> Request:
    """``expect(code, doc)`` returns ``(ok, claim)``."""
    from spinwreath import cli

    argv = list(argv) + ["--json", "--quiet"]
    # cli.main is looked up at call time, so that a traced run sees the wrapper
    return Request(label=label, call=lambda: _call_cli(cli, argv),
                   check=lambda outcome: expect(*_doc(outcome)),
                   normalize=_normalize_cli)


def _no(code, doc):
    return code == 3 and doc["verdict"] == "no", None


def _yes_strategy(puzzle, *, win_set=None, spin_period=None, length=None):
    def expect(code, doc):
        strat = doc["payload"].get("strategy")
        if code != 0 or doc["verdict"] != "yes" or strat is None:
            return False, None
        if length is not None and strat["length"] != length:
            return False, None
        moves = tuple(tuple(m) for m in strat["moves"])
        return True, ("strategy", puzzle, win_set, spin_period, moves)
    return expect


def verify_claim(claim) -> bool:
    """Check a returned strategy with the independent belief oracle."""
    from spinwreath.puzzle_parser import parse_puzzle

    _kind, puzzle, win_set, spin_period, moves = claim
    ctx = parse_puzzle(puzzle, win_set=win_set)
    return oracle.strategy_wins(*oracle.tables(ctx), moves,
                                spin_period=spin_period)


def _answers():
    with open(os.path.join(DATA, "answers.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# verify-ladder: CLI verify on stored p-group strategies and truncations
# ---------------------------------------------------------------------------

LADDER_SMALL_WEIGHT = 6  # per deck, for each |K| <= 27 file
LADDER_ROTATING = "Z32 wr C2"  # one |K| = 1024 file joins each deck


def _ladder_request(entry) -> Request:
    path = os.path.join(DATA, entry["file"])
    valid = entry["valid"]

    def expect(code, doc):
        payload = doc["payload"]
        ok = (code == (0 if valid else 3)
              and doc["verdict"] == ("valid" if valid else "invalid")
              and payload["valid"] is valid
              and payload["length"] == entry["length"])
        return ok, None

    return cli_request(entry["file"],
                       ["verify", entry["puzzle"], "--strategy", path], expect)


def verify_ladder(seed: int) -> Workload:
    items, rotating = [], []
    for entry in _answers()["ladder"]:
        req = _ladder_request(entry)
        if entry["puzzle"] == LADDER_ROTATING:
            rotating.append(req)
        elif entry["k_size"] <= 27:
            items.extend([req] * LADDER_SMALL_WEIGHT)
        else:
            items.append(req)
    return Workload(items, tuple(rotating))


# ---------------------------------------------------------------------------
# verify-small: library verify() on seeded random strategies, |K| <= 16
# ---------------------------------------------------------------------------

SMALL_CONTEXTS = ("Z8 wr 1", "Z2 wr C3", "Z2 wr C4", "S3 wr 1")
SMALL_MAX_LENGTH = 15
# every length from 1 to 15 equally often, so that the seed changes the
# moves but not the mix of lengths that sets the cost
SMALL_PER_LENGTH = 40


def _normalize_report(report):
    return (report.valid, report.length, tuple(sorted(report.residual)),
            report.minimal,
            None if report.solved_at is None
            else tuple(sorted(report.solved_at.items())))


def verify_small(seed: int) -> Workload:
    from spinwreath import strategies
    from spinwreath.puzzle_parser import parse_puzzle

    rng = random.Random(seed)
    items = []
    pending = []  # (ctx, strategy, answer cell) filled in by prepare()
    for text in SMALL_CONTEXTS:
        ctx = parse_puzzle(text)
        for i in range(SMALL_PER_LENGTH * SMALL_MAX_LENGTH):
            length = 1 + i % SMALL_MAX_LENGTH
            strat = strategies.Strategy(
                ctx=ctx, moves=tuple(rng.randrange(ctx.k_size)
                                     for _ in range(length)))
            answer = [None]
            pending.append((ctx, strat, answer))
            items.append(Request(
                label=f"{text}#{i}",
                # looked up at call time so that a traced run sees the wrapper
                call=lambda ctx=ctx, strat=strat: strategies.verify(ctx, strat),
                check=lambda report, answer=answer: (
                    report.valid is answer[0], None),
                normalize=_normalize_report,
            ))

    def prepare():
        for ctx, strat, answer in pending:
            # verify_naive's budget caps |H|^N spin sequences; these
            # strategies are short enough to enumerate in full
            answer[0] = strategies.verify_naive(
                ctx, strat, budget=ctx.h_order ** len(strat))

    return Workload(items, prepare=prepare)


# ---------------------------------------------------------------------------
# decide-mix: decide / certify / min-spin-period with known answers
# ---------------------------------------------------------------------------

DECIDE_CHEAP_WEIGHT = 2  # per deck, for each request under 50 ms


def decide_mix(seed: int) -> Workload:
    def certified(code, doc):
        payload = doc["payload"]
        return (code == 3 and doc["verdict"] == "no"
                and payload.get("validated") is True), None

    def min_period(code, doc):
        return (code == 0 and doc["payload"].get("min_spin_period") == 3), None

    cheap = [
        # acceptance criteria 3 and 6: no strategy for Z2 wr C3
        ("decide", "Z2 wr C3", [], _no),
        # criterion 7: switch quotient Z6 -> Z2, 3-point orbit restriction,
        # switch quotient of S4
        ("decide", "Z6 wr C3", [], _no),
        ("decide", "Z2 wr C6", [], _no),
        ("decide", "S4 wr C3", [], _no),
        # A4 -> A4/V4 = Z3 against C2, and an elementary abelian 2-group
        # spun by C3: both primes differ, as in criterion 6
        ("decide", "A4 wr C2", [], _no),
        ("decide", "Z2 x Z2 wr C3", [], _no),
        # search answers: the returned strategy is checked by the oracle
        ("decide", "Z2 wr C4", ["--win-set", "0,5"],
         _yes_strategy("Z2 wr C4", win_set=(0, 5))),
        ("decide", "Z2 wr C2", ["--spin-period", "2"],
         _yes_strategy("Z2 wr C2", spin_period=2)),
        ("decide", "Z3 wr C2", ["--spin-period", "2"],
         _yes_strategy("Z3 wr C2", spin_period=2)),
        ("decide", "Z2 wr C3", ["--spin-period", "3"],
         _yes_strategy("Z2 wr C3", spin_period=3)),
        # README: rarer spins make Z2 wr C3 winnable from period 3 on
        ("min-spin-period", "Z2 wr C3", ["--bound", "5"], min_period),
    ]
    slow = [
        # the 704-state exhaustive search of the README; D6 is S3
        ("decide", "S3 wr C2", [], _no),
        ("decide", "D6 wr C2", [], _no),
        ("certify", "S3 wr C2", [], certified),
        # p-groups for one prime always have a |K| - 1 move strategy; the
        # small budget makes the certificate leaves give up first
        ("decide", "Z2 wr C8", ["--budget", "100"],
         _yes_strategy("Z2 wr C8", length=255)),
        ("decide", "Z4 wr C4", ["--budget", "100"],
         _yes_strategy("Z4 wr C4", length=255)),
        ("decide", "D8 wr C2", ["--budget", "500"],
         _yes_strategy("D8 wr C2", length=63)),
    ]
    items = []
    for weight, group in ((DECIDE_CHEAP_WEIGHT, cheap), (1, slow)):
        for command, puzzle, extra, expect in group:
            argv = [command, puzzle] + extra
            items.extend([cli_request(" ".join(argv), argv, expect)] * weight)
    return Workload(items)


# ---------------------------------------------------------------------------
# stats: expect and enumerate
# ---------------------------------------------------------------------------

STATS_CHEAP_WEIGHT = 3  # per deck, for each request under 60 ms


def _expected_moves(value: Fraction):
    def expect(code, doc):
        payload = doc["payload"]
        return (code == 0 and payload["absorbed_probability"] == "1"
                and payload["expected_moves"] == str(value)), None
    return expect


def _sample_mean(k_size: int, trials: int):
    closed_form = k_size - 1
    tolerance = MC_TOLERANCE_SIGMAS * closed_form / trials ** 0.5

    def expect(code, doc):
        mean = doc["payload"]["sample_mean"]
        return code == 0 and abs(mean - closed_form) <= tolerance, None
    return expect


def _count(value: int):
    def expect(code, doc):
        return code == 0 and doc["payload"]["count"] == value, None
    return expect


def stats(seed: int) -> Workload:
    def strategy_file(puzzle):
        return os.path.join(DATA, puzzle.replace(" ", "_") + ".strategy")

    def exact(puzzle, k_size):
        # the expected number of moves of these strategies is |K| / 2
        return ("expect", puzzle,
                ["--model", "strategy", "--strategy", strategy_file(puzzle)],
                _expected_moves(Fraction(k_size, 2)))

    def sampled(model, puzzle, k_size, trials, mc_seed):
        return ("expect", puzzle,
                ["--model", model, "--trials", str(trials),
                 "--seed", str(mc_seed)],
                _sample_mean(k_size, trials))

    counts = {(c["puzzle"], c["length"]): c["count"]
              for c in _answers()["enumerate"]}

    def enumerate_(puzzle, length, extra=(), value=None):
        value = counts[(puzzle, length)] if value is None else value
        return ("enumerate", puzzle, ["--length", str(length), *extra],
                _count(value))

    cheap = [
        exact("Z2 wr C4", 16),
        exact("Z3 wr C3", 27),
        sampled("montecarlo", "Z2 wr C4", 16, 2000, 1),
        sampled("montecarlo", "Z2 wr C3", 8, 4000, 2),
        sampled("nonbacktracking", "Z2 wr C3", 8, 4000, 3),
        sampled("nonbacktracking", "Z2 wr C4", 16, 2000, 4),
        # acceptance criterion 9: 12 palindromic strategies
        enumerate_("S3 wr 1", 5, ["--palindromic"], value=12),
        enumerate_("Z2 wr C2", 7),
    ]
    heavy = [
        exact("Z16 wr C2", 256),
        exact("Z4 wr C4", 256),
        exact("Z2 wr C8", 256),
        enumerate_("Z2 wr C4", 15),
    ]
    items = []
    for weight, group in ((STATS_CHEAP_WEIGHT, cheap), (1, heavy)):
        for command, puzzle, extra, expect in group:
            argv = [command, puzzle] + extra
            items.extend([cli_request(" ".join(argv), argv, expect)] * weight)
    return Workload(items)


BUILDERS = {
    "verify-ladder": verify_ladder,
    "verify-small": verify_small,
    "decide-mix": decide_mix,
    "stats": stats,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
