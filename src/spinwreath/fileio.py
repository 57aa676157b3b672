"""Plain-text file formats for groups, actions, contexts, and strategies.

All formats are line-oriented: a header line naming the object, then rows of
space-separated integers.  Blank lines and `#` comments are skipped.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from . import groups
from .actions import GroupAction, WreathContext
from .errors import FileFormatInvalid
from .groups import FiniteGroup
from .strategies import Strategy, strategy_from_coords


def _content_lines(text: str) -> List[str]:
    out = []
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            out.append(stripped)
    return out


def _ints(line: str, what: str) -> List[int]:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError:
        raise FileFormatInvalid(f"{what}: expected integers, got {line!r}")


# ---------------------------------------------------------------------------
# groups:  `group <name> <order>` (or `loop <name> <order>`), n table rows,
#          optional `labels <l0> <l1> ...` line
# ---------------------------------------------------------------------------

def format_group(g: FiniteGroup) -> str:
    head = "group" if g.is_associative else "loop"
    lines = [f"{head} {g.name} {g.order}"]
    lines += [" ".join(str(x) for x in row) for row in g.mul]
    if g.labels:
        # labels may contain spaces, so separate them with '|'
        lines.append("labels " + "|".join(g.labels))
    return "\n".join(lines) + "\n"


def parse_group(text: str) -> FiniteGroup:
    lines = _content_lines(text)
    if not lines:
        raise FileFormatInvalid("group file is empty")
    head = lines[0].split()
    if len(head) != 3 or head[0] not in ("group", "loop"):
        raise FileFormatInvalid(
            "group file must start with 'group <name> <order>' or "
            "'loop <name> <order>'"
        )
    kind, name, order_s = head
    try:
        order = int(order_s)
    except ValueError:
        order = 0  # refused with the orders below 1
    if order < 1:
        raise FileFormatInvalid(f"bad group order {order_s!r}")
    if len(lines) < 1 + order:
        raise FileFormatInvalid(
            f"group file declares order {order} but has {len(lines) - 1} rows"
        )
    table = [_ints(line, "group table") for line in lines[1:1 + order]]
    labels: Optional[List[str]] = None
    for extra in lines[1 + order:]:
        key, _, rest = extra.partition(" ")
        if key == "labels":
            labels = rest.split("|")
            if len(labels) != order:
                raise FileFormatInvalid("labels line has the wrong arity")
        else:
            raise FileFormatInvalid(f"unexpected line in group file: {extra!r}")
    return groups.from_table(table, loop_mode=(kind == "loop"),
                             labels=labels, name=name)


def load_group(path: str) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_group(fh.read())


def save_group(g: FiniteGroup, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_group(g))


# ---------------------------------------------------------------------------
# actions:  `action <H-name> <m>`, then |H| rows of m images
# ---------------------------------------------------------------------------

def format_action(a: GroupAction) -> str:
    lines = [f"action {a.h_group.name} {a.omega_size}"]
    lines += [" ".join(str(x) for x in row) for row in a.act]
    return "\n".join(lines) + "\n"


def parse_action(text: str, h_group: FiniteGroup) -> GroupAction:
    lines = _content_lines(text)
    if not lines:
        raise FileFormatInvalid("action file is empty")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "action":
        raise FileFormatInvalid("action file must start with 'action <H-name> <m>'")
    _, name, m_s = head
    try:
        m = int(m_s)
    except ValueError:
        raise FileFormatInvalid(f"bad omega size {m_s!r}")
    rows = [_ints(line, "action row") for line in lines[1:]]
    if len(rows) != h_group.order:
        raise FileFormatInvalid(
            f"action file has {len(rows)} rows; the spin group has order "
            f"{h_group.order}"
        )
    if any(len(r) != m or sorted(r) != list(range(m)) for r in rows):
        raise FileFormatInvalid("action rows must be permutations of 0..m-1")
    try:
        return GroupAction(h_group=h_group, omega_size=m,
                           act=tuple(tuple(r) for r in rows), name=name)
    except ValueError as exc:
        raise FileFormatInvalid(str(exc))


def load_action(path: str, h_group: FiniteGroup) -> GroupAction:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_action(fh.read(), h_group)


def save_action(a: GroupAction, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_action(a))


# ---------------------------------------------------------------------------
# contexts:  `context <name>`, `group <path>`, `spin-group <path>`,
#            `action <path>`, optional `win <i> <j> ...`
# ---------------------------------------------------------------------------

def format_context(ctx: WreathContext, group_path: str, spin_group_path: str,
                   action_path: str) -> str:
    lines = [
        f"context {ctx.name}",
        f"group {group_path}",
        f"spin-group {spin_group_path}",
        f"action {action_path}",
    ]
    if ctx.win_set != frozenset({0}):
        lines.append("win " + " ".join(str(w) for w in sorted(ctx.win_set)))
    return "\n".join(lines) + "\n"


def load_context(path: str) -> WreathContext:
    with open(path, "r", encoding="utf-8") as fh:
        lines = _content_lines(fh.read())
    base = os.path.dirname(os.path.abspath(path))
    fields = {}
    name = ""
    win = None
    for line in lines:
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "context":
            name = rest
        elif key in ("group", "spin-group", "action"):
            fields[key] = os.path.join(base, rest)
        elif key == "win":
            win = frozenset(_ints(rest, "win set"))
        else:
            raise FileFormatInvalid(f"unexpected line in context file: {line!r}")
    for key in ("group", "spin-group", "action"):
        if key not in fields:
            raise FileFormatInvalid(f"context file is missing a '{key}' line")
    g = load_group(fields["group"])
    h = load_group(fields["spin-group"])
    action = load_action(fields["action"], h)
    try:
        return WreathContext(g_group=g, action=action, win_set=win, name=name)
    except ValueError as exc:  # a win index outside K
        raise FileFormatInvalid(f"win set: {exc}")


# ---------------------------------------------------------------------------
# strategies:  `strategy <context-name> <N>`, then N rows of m element indices
# ---------------------------------------------------------------------------

def format_strategy(strat: Strategy) -> str:
    lines = [f"strategy {strat.ctx.name} {len(strat)}"]
    for coords in strat.coords():
        lines.append(" ".join(str(c) for c in coords))
    return "\n".join(lines) + "\n"


def parse_strategy(text: str, ctx: WreathContext) -> Strategy:
    lines = _content_lines(text)
    if not lines:
        raise FileFormatInvalid("strategy file is empty")
    # context names may contain spaces; the move count is the last token
    head = lines[0].rsplit(None, 1)
    if len(head) != 2 or not head[0].startswith("strategy "):
        raise FileFormatInvalid(
            "strategy file must start with 'strategy <context-name> <N>'"
        )
    try:
        n = int(head[1])
    except ValueError:
        raise FileFormatInvalid(f"bad strategy length {head[1]!r}")
    rows = [_ints(line, "strategy move") for line in lines[1:]]
    if len(rows) != n:
        raise FileFormatInvalid(
            f"strategy file declares {n} moves but has {len(rows)} rows"
        )
    order = ctx.g_group.order
    for row in rows:
        if len(row) != ctx.omega_size or any(not 0 <= c < order for c in row):
            raise FileFormatInvalid(
                f"each move needs {ctx.omega_size} indices in 0..{order - 1}"
            )
    return strategy_from_coords(ctx, rows)


def load_strategy(path: str, ctx: WreathContext) -> Strategy:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_strategy(fh.read(), ctx)


def save_strategy(strat: Strategy, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_strategy(strat))
