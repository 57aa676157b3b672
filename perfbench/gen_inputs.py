"""Regenerate the stored inputs of the benchmark.

    python3 perfbench/gen_inputs.py

Writes one p-group strategy per rung of the verify ladder, and the same
strategy without its last move, into ``perfbench/data``.  Each file is
checked with ``oracle.strategy_wins``: the full strategy must win and the
truncated one must not (it is one move shorter than the |K| - 1 lower
bound).  The enumeration counts used by the ``stats`` workload are computed
with ``oracle.count_winning``.  Everything lands in ``data/answers.json``,
so a benchmark run never synthesizes a strategy.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

LADDER = ["Z2 wr C4", "Z3 wr C3", "Z16 wr C2", "Z4 wr C4", "Z2 wr C8",
          "Z2 wr D16", "Z32 wr C2"]
ENUMERATE = [("Z2 wr C4", 15), ("Z2 wr C2", 7)]


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    import oracle
    from spinwreath import fileio
    from spinwreath.puzzle_parser import parse_puzzle
    from spinwreath.strategies import Strategy
    from spinwreath.synthesis import construct_pgroup

    os.makedirs(DATA, exist_ok=True)
    ladder = []
    for puzzle in LADDER:
        ctx = parse_puzzle(puzzle)
        strat = construct_pgroup(ctx)
        stem = puzzle.replace(" ", "_")
        mul, perms, win = oracle.tables(ctx)
        for suffix, moves in (("", strat.moves), (".truncated", strat.moves[:-1])):
            entry = Strategy(ctx=ctx, moves=moves)
            valid = oracle.strategy_wins(mul, perms, win, entry.coords())
            if valid != (suffix == ""):
                raise SystemExit(f"{puzzle}{suffix}: oracle says valid={valid}")
            name = f"{stem}{suffix}.strategy"
            fileio.save_strategy(entry, os.path.join(DATA, name))
            ladder.append({"puzzle": puzzle, "k_size": ctx.k_size,
                           "file": name, "length": len(moves),
                           "valid": valid})
            print(f"{name}: {len(moves)} moves, valid={valid}", flush=True)
    counts = []
    for puzzle, length in ENUMERATE:
        ctx = parse_puzzle(puzzle)
        count = oracle.count_winning(*oracle.tables(ctx), length)
        counts.append({"puzzle": puzzle, "length": length, "count": count})
        print(f"{puzzle} length {length}: {count} winning sequences")
    with open(os.path.join(DATA, "answers.json"), "w", encoding="utf-8") as fh:
        json.dump({"ladder": ladder, "enumerate": counts}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
