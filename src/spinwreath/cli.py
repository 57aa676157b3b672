"""Command-line interface.

Exit codes: 0 = Yes/valid, 2 = usage error, 3 = No/invalid, 4 = Unknown.

``main`` is the one front door: it parses with the parser built at import,
loads the context, makes the command's one ``SearchStats`` (every engine
call of the command counts into it, and its ``limit`` is ``--budget``, so
the budget caps the whole command) and emits the handler's ``Answer`` as
one JSON or human record.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import NamedTuple, Optional

from . import analysis, decision, fileio, synthesis
from .actions import WreathContext
from .decision import (DecisionResult, decide_by_search, decide_existence,
                       min_spin_period, render_certificate,
                       validate_certificate)
from .errors import (BudgetExceeded, CertificateRejected, FileFormatInvalid,
                     NoStrategyWithinDepth, SpinWreathError)
from .puzzle_parser import parse_expr, build_context
from .strategies import Strategy, minimal_length_bound, verify, verify_naive
from .synthesis import (SearchStats, construct_involution_pair,
                        construct_pgroup, construct_trivial)

JSON_SCHEMA = "spinwreath.cli/1"
EXIT_YES = 0
EXIT_USAGE = 2
EXIT_NO = 3
EXIT_UNKNOWN = 4


class Answer(NamedTuple):
    """What a handler asks ``main`` to print and return."""
    verdict: str
    payload: dict
    human: str
    exit_code: int
    seed: Optional[int] = None


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _non_negative_int(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return int(text)


def _index_set(text: str) -> frozenset:
    try:
        return frozenset(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")


def _load_context(args) -> WreathContext:
    text = args.puzzle.strip()
    if text.startswith("@") and " " not in text:
        ctx = fileio.load_context(text[1:])
    else:
        ctx = build_context(parse_expr(text))
    if args.win_set is not None:
        try:
            ctx = WreathContext(g_group=ctx.g_group, action=ctx.action,
                                win_set=args.win_set, name=ctx.name,
                                allow_non_faithful=ctx.allow_non_faithful)
        except ValueError as exc:  # an index outside K
            raise FileFormatInvalid(f"--win-set: {exc}")
    # the game flags a command cannot honour are usage errors
    standard = args.command in ("classify", "certify")
    random = args.command == "expect" and args.model == "random"
    every_turn = standard or args.command in ("enumerate", "expect",
                                              "min-spin-period")
    for refused, scope in (
            ((args.spin_period or 1) > 1 and every_turn, "spins every turn"),
            (ctx.win_set != {0} and (standard or random), "the win set {0}"),
            (ctx.loop_mode and standard, "group switches")):
        if refused:
            name = "expect --model random" if random else args.command
            raise FileFormatInvalid(f"{name} answers for {scope} only")
    if ctx.loop_mode and not args.loop:
        raise FileFormatInvalid(
            "the switch table is a non-associative loop; pass --loop to "
            "run the loop engine"
        )
    return ctx


def _strategy_payload(strat: Strategy):
    return {
        "length": len(strat),
        "moves": [list(c) for c in strat.coords()],
    }


# ---------------------------------------------------------------------------
# subcommands: each takes (args, ctx, stats) and returns an Answer
# ---------------------------------------------------------------------------

def _validated(ctx: WreathContext, result: DecisionResult) -> bool:
    """Whether the independent validator re-checked the certificate of a
    "no"; False when it has none (a spin period above 1).  A rejected
    certificate raises ``CertificateRejected``."""
    if result.certificate is None:
        return False
    if not validate_certificate(ctx, result.certificate):
        raise CertificateRejected(
            f"the validator rejected the certificate found for {ctx.name}")
    return True


def _cmd_decide(args, ctx, stats) -> Answer:
    result = decide_existence(ctx, spin_period=args.spin_period, stats=stats)
    payload = {"context": ctx.name, "k_size": ctx.k_size,
               "conjectural": result.conjectural, "message": result.message}
    if result.verdict == "no":
        payload["validated"] = _validated(ctx, result)
    lines = [f"{ctx.name}: {result.verdict}"
             + (" (conjectural: loop mode)" if result.conjectural else "")]
    if result.strategy is not None:
        if args.json:  # main prints the payload only then
            payload["strategy"] = _strategy_payload(result.strategy)
        else:  # and the human record only without --json
            lines.append(fileio.format_strategy(result.strategy).rstrip())
    if result.certificate is not None:
        cert_text = render_certificate(result.certificate)
        payload["certificate"] = cert_text
        lines.append(cert_text)
    return Answer(result.verdict, payload, "\n".join(lines), result.exit_code)


def _strategy_of(result: DecisionResult) -> Strategy:
    """The strategy of a "yes"; otherwise exit 3 for "no", 4 for "unknown"."""
    if result.verdict != "yes":
        raise NoStrategyWithinDepth(
            f"{result.message} ({result.states_explored} states)",
            exhausted=result.verdict == "no")
    return result.strategy


def _construct(args, ctx: WreathContext, stats: SearchStats) -> Strategy:
    method = args.method
    if method == "trivial":
        if ctx.h_order != 1:
            raise FileFormatInvalid(
                "--method trivial needs a trivial spin group (G wr 1)")
        return construct_trivial(ctx, range(1, ctx.g_group.order))
    if method == "involution":
        if ctx.omega_size != 2:
            raise FileFormatInvalid(
                "--method involution needs two positions (G wr C2)")
        return construct_involution_pair(ctx)
    if method == "pgroup":
        return construct_pgroup(ctx)
    return _strategy_of(decide_by_search(
        ctx, max_depth=args.depth, spin_period=args.spin_period, stats=stats))


def _cmd_construct(args, ctx, stats) -> Answer:
    # One check is enough: each method verified its strategy in ctx, search
    # under --spin-period and the others against spins every turn, which
    # beats spins every r-th turn too (that adversary only plays the identity
    # spin on the other turns; the belief step with the spin closure
    # contains the step without it, and the step is monotone).
    strat = _construct(args, ctx, stats)
    human = ""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(fileio.format_strategy(strat))
    elif not args.json:  # main prints the human record only then
        human = fileio.format_strategy(strat).rstrip("\n")
    payload = {"context": ctx.name, "method": args.method}
    if args.json:  # main prints the payload only then
        payload["strategy"] = _strategy_payload(strat)
    payload["minimal"] = len(strat) == minimal_length_bound(ctx)
    return Answer("yes", payload, human, EXIT_YES)


def _cmd_verify(args, ctx, stats) -> Answer:
    strat = fileio.load_strategy(args.strategy, ctx)
    if args.naive:
        valid = verify_naive(ctx, strat, budget=args.budget,
                             spin_period=args.spin_period)
        report = None
    else:
        report = verify(ctx, strat, spin_period=args.spin_period)
        valid = report.valid
    payload = {"context": ctx.name, "length": len(strat), "valid": valid}
    if report is not None:
        payload["minimal"] = report.minimal
        payload["residual"] = sorted(report.residual)
    verdict = "valid" if valid else "invalid"
    return Answer(verdict, payload,
                  f"{ctx.name}: {len(strat)}-move strategy is {verdict}",
                  EXIT_YES if valid else EXIT_NO)


def _cmd_enumerate(args, ctx, stats) -> Answer:
    result = analysis.enumerate_strategies(
        ctx, args.length, palindromic=args.palindromic,
        minimal_only=args.minimal_only, up_to_h=args.up_to_h, stats=stats,
    )
    if args.output:
        texts = {}  # each distinct move as written: its coordinates
        with open(args.output, "w", encoding="utf-8") as fh:
            for moves in result.sequences():
                for mv in moves:
                    if mv not in texts:
                        texts[mv] = ",".join(map(str, ctx.decode(mv)))
                fh.write(" ".join(map(texts.__getitem__, moves)) + "\n")
    payload = {"context": ctx.name, "length": args.length,
               "count": result.count,
               "canonical_count": result.canonical_count,
               "filters": {"palindromic": args.palindromic,
                           "minimal_only": args.minimal_only,
                           "up_to_h": args.up_to_h}}
    human = f"{ctx.name}: {result.count} strategies of length {args.length}"
    if result.canonical_count is not None:
        human += (f" ({result.canonical_count} up to one spin applied to "
                  "every move)")
    return Answer("ok", payload, human, EXIT_YES)


def _cmd_expect(args, ctx, stats) -> Answer:
    seed = args.seed if args.seed is not None else 0
    payload = {"context": ctx.name, "model": args.model}
    if args.model == "strategy":
        if not args.strategy:
            raise FileFormatInvalid("--model strategy needs --strategy FILE")
        strat = fileio.load_strategy(args.strategy, ctx)
        report = analysis.exact_expected_moves(ctx, strat)
        expected = report.conditional_expected_moves
        payload.update({
            "absorbed_probability": str(report.absorbed_probability),
            "expected_moves": None if expected is None else str(expected),
            "adversary": "uniform i.i.d.",
        })
        human = (f"{ctx.name}: absorbed {report.absorbed_probability}, "
                 f"expected moves {expected}")
        seed = None
    elif args.model == "random":
        exact = analysis.random_play_expectation(ctx)
        payload["expected_moves"] = str(exact)
        human = f"{ctx.name}: random play expects {exact} moves"
        seed = None
    elif args.model == "montecarlo":
        mean = analysis.monte_carlo_random_play(ctx, args.trials, seed,
                                                stats)
        payload.update({"trials": args.trials, "sample_mean": mean})
        if ctx.win_set == {0}:  # the closed form holds for {0} only
            payload["closed_form"] = str(
                analysis.random_play_expectation(ctx))
        human = (f"{ctx.name}: sample mean {mean:.4f} over {args.trials} "
                 f"trials (seed {seed})")
    else:
        mean = analysis.non_backtracking_expectation(ctx, args.trials, seed,
                                                     stats)
        payload.update({"trials": args.trials, "sample_mean": mean})
        human = (f"{ctx.name}: non-backtracking sample mean {mean:.4f} "
                 f"over {args.trials} trials (seed {seed})")
    return Answer("ok", payload, human, EXIT_YES, seed)


def _cmd_classify(args, ctx, stats) -> Answer:
    result = decision.classify_abelian(ctx.g_group, ctx.action)
    if result.verdict == "no" and result.certificate is None:
        # the leaf's own hypotheses fail (Z4 wr C3, say): a reduction to a
        # context where they hold certifies the same "no"
        result = dataclasses.replace(
            result, certificate=decision.find_nonexistence_certificate(
                ctx, stats=stats))
    payload = {"context": ctx.name, "message": result.message}
    if result.certificate is not None:
        payload["certificate"] = render_certificate(result.certificate)
    if result.verdict == "no":
        payload["validated"] = _validated(ctx, result)
    return Answer(result.verdict, payload,
                  f"{ctx.name}: {result.verdict} ({result.message})",
                  result.exit_code)


def _cmd_certify(args, ctx, stats) -> Answer:
    result = decide_existence(ctx, stats=stats)
    if result.verdict != "no":
        return Answer("unknown", {"context": ctx.name},
                      f"{ctx.name}: no nonexistence certificate found",
                      EXIT_UNKNOWN)
    validated = _validated(ctx, result)
    text = render_certificate(result.certificate)
    return Answer("no", {"context": ctx.name, "certificate": text,
                         "validated": validated}, text, EXIT_NO)


def _cmd_min_spin_period(args, ctx, stats) -> Answer:
    r = min_spin_period(ctx, args.bound, stats=stats)
    if r is None:
        return Answer("no", {"context": ctx.name, "bound": args.bound},
                      f"{ctx.name}: no winning spin period up to {args.bound}",
                      EXIT_NO)
    return Answer("yes", {"context": ctx.name, "min_spin_period": r},
                  f"{ctx.name}: minimum spin period {r}", EXIT_YES)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("puzzle", help='puzzle expression, e.g. "Z2 wr C4", '
                                       "or @context-file")
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress on stderr")
    common.add_argument("--budget", type=_positive_int,
                        default=synthesis.DEFAULT_SEARCH_BUDGET,
                        help="search/enumeration state budget")
    common.add_argument("--win-set", type=_index_set, default=None,
                        help="comma-separated winning base-vector indices")
    common.add_argument("--spin-period", type=_positive_int, default=None,
                        help="adversary spins only every r-th turn")
    common.add_argument("--loop", action="store_true",
                        help="allow non-associative switch tables")

    parser = argparse.ArgumentParser(
        prog="spinwreath",
        description="spinning-switches puzzles as wreath products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("decide", parents=[common],
                   help="does a surjective strategy exist?")

    p = sub.add_parser("construct", parents=[common],
                       help="build a verified strategy")
    p.add_argument("--method", required=True,
                   choices=["trivial", "involution", "pgroup", "search"])
    p.add_argument("--output", default=None, help="write the strategy file here")
    p.add_argument("--depth", type=_non_negative_int, default=None,
                   help="depth limit for --method search")

    p = sub.add_parser("verify", parents=[common],
                       help="check a strategy file")
    p.add_argument("--strategy", required=True, help="strategy file to check")
    p.add_argument("--naive", action="store_true",
                   help="cross-check by enumerating all spin sequences")

    p = sub.add_parser("enumerate", parents=[common],
                       help="count/list surjective strategies of a length")
    p.add_argument("--length", type=_non_negative_int, required=True)
    p.add_argument("--palindromic", action="store_true")
    p.add_argument("--minimal-only", action="store_true")
    p.add_argument("--up-to-h", action="store_true")
    p.add_argument("--output", default=None,
                   help="stream strategies here, one per line")

    p = sub.add_parser("expect", parents=[common],
                       help="expected number of moves")
    p.add_argument("--model", default="strategy",
                   choices=["strategy", "random", "montecarlo",
                            "nonbacktracking"])
    p.add_argument("--strategy", default=None, help="strategy file")
    p.add_argument("--trials", type=_positive_int, default=100000)
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the sampled models")

    sub.add_parser("classify", parents=[common],
                   help="abelian-switches solvability classification")
    sub.add_parser("certify", parents=[common],
                   help="decide, and validate a \"no\" by its certificate")

    p = sub.add_parser("min-spin-period", parents=[common],
                       help="smallest spin interval that allows a win")
    p.add_argument("--bound", type=_positive_int, default=8)

    return parser


_PARSER = _build_parser()

_HANDLERS = {
    "decide": _cmd_decide,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "enumerate": _cmd_enumerate,
    "expect": _cmd_expect,
    "classify": _cmd_classify,
    "certify": _cmd_certify,
    "min-spin-period": _cmd_min_spin_period,
}


def _stopped(ctx: WreathContext, exc: SpinWreathError,
             exhausted: bool = False) -> Answer:
    """The record of a command that an exhausted search ("no") or a spent
    budget ("unknown") stopped; its line went to stderr."""
    verdict, code = ("no", EXIT_NO) if exhausted else ("unknown", EXIT_UNKNOWN)
    return Answer(verdict, {"context": ctx.name, "message": str(exc)}, "",
                  code)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    started = time.perf_counter()
    stats = SearchStats(limit=args.budget)
    try:
        ctx = _load_context(args)
        answer = _HANDLERS[args.command](args, ctx, stats)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        answer = _stopped(ctx, exc)
    except NoStrategyWithinDepth as exc:
        print(f"no strategy: {exc}", file=sys.stderr)
        answer = _stopped(ctx, exc, exc.exhausted)
    except CertificateRejected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except (SpinWreathError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        doc = {
            "schema": JSON_SCHEMA,
            "command": args.command,
            "verdict": answer.verdict,
            "payload": answer.payload,
            "timing_seconds": round(time.perf_counter() - started, 6),
            "budget": {
                "limit": stats.limit,
                "states_explored": stats.states_explored,
            },
        }
        if answer.seed is not None:
            doc["seed"] = answer.seed
        print(json.dumps(doc))  # one line: an indent makes json encode in Python
    elif answer.human:
        print(answer.human)
    return answer.exit_code


if __name__ == "__main__":
    sys.exit(main())
