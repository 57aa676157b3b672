"""Tiny expression language for puzzle instances.

    Expr      := GroupTerm "wr" GroupTerm [ "on" ActionSpec ]
    GroupTerm := Z<n> | C<n> | S<n> | A<n> | D<2n> | 1
               | GroupTerm "x" GroupTerm | @file
    ActionSpec := @file

"wr" binds loosest, "x" tighter.  Recursive descent with one token of
lookahead; errors carry the character position they were raised at.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from . import fileio, groups
from .actions import (GroupAction, WreathContext, cyclic_rotation_action,
                      dihedral_action, natural_symmetric_action,
                      permutation_action, regular_action, trivial_action)
from .errors import ParseError, UnknownGroupFamily
from .groups import FiniteGroup


# ---------------------------------------------------------------------------
# syntax tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupAtom:
    family: str  # "Z", "C", "S", "A", "D", "1", or "@"
    n: int = 0
    path: str = ""


@dataclass(frozen=True)
class GroupProduct:
    left: "GroupTerm"
    right: "GroupTerm"


GroupTerm = Union[GroupAtom, GroupProduct]


@dataclass(frozen=True)
class PuzzleExpr:
    g_term: GroupTerm
    h_term: GroupTerm
    action_path: Optional[str] = None


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(wr\b|on\b|x\b|@[^\s]+|[A-Z]+[0-9]+|1)")


@dataclass(frozen=True)
class _Token:
    text: str
    pos: int


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None or m.start(1) != i:
            raise ParseError(
                f"unrecognized token at position {i}: {text[i:i + 10]!r}",
                position=i,
                expected=("group term", "wr", "x", "on", "@file"),
            )
        tokens.append(_Token(text=m.group(1), pos=i))
        i = m.end()
    return tokens


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(
                f"unexpected end of input at position {len(self.text)}",
                position=len(self.text), expected=("group term",),
            )
        self.i += 1
        return tok

    def expect(self, text: str):
        tok = self.peek()
        if tok is None or tok.text != text:
            pos = tok.pos if tok else len(self.text)
            got = tok.text if tok else "end of input"
            raise ParseError(f"expected {text!r} at position {pos}, got {got!r}",
                             position=pos, expected=(text,))
        self.i += 1

    def atom(self) -> GroupAtom:
        tok = self.take()
        t = tok.text
        if t == "1":
            return GroupAtom(family="1")
        if t.startswith("@"):
            return GroupAtom(family="@", path=t[1:])
        m = re.fullmatch(r"([A-Z]+)([0-9]+)", t)
        if m is None:
            raise ParseError(f"expected a group term at position {tok.pos}, "
                             f"got {t!r}", position=tok.pos,
                             expected=("Z<n>", "C<n>", "S<n>", "A<n>",
                                       "D<2n>", "1", "@file"))
        family, n = m.group(1), int(m.group(2))
        if family not in ("Z", "C", "S", "A", "D"):
            raise ParseError(
                f"unknown group family {family!r} at position {tok.pos}",
                position=tok.pos, expected=("Z", "C", "S", "A", "D"),
            )
        if n < 1:
            raise ParseError(f"{t} at position {tok.pos}: a group order "
                             "must be at least 1", position=tok.pos,
                             expected=("an order of at least 1",))
        return GroupAtom(family=family, n=n)

    def term(self) -> GroupTerm:
        left: GroupTerm = self.atom()
        while self.peek() is not None and self.peek().text == "x":
            self.take()
            left = GroupProduct(left=left, right=self.atom())
        return left

    def expr(self) -> PuzzleExpr:
        g = self.term()
        self.expect("wr")
        h = self.term()
        action_path = None
        if self.peek() is not None and self.peek().text == "on":
            self.take()
            spec = self.take()
            if not spec.text.startswith("@"):
                raise ParseError(
                    f"expected @file after 'on' at position {spec.pos}",
                    position=spec.pos, expected=("@file",),
                )
            action_path = spec.text[1:]
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input at position {tok.pos}: "
                             f"{tok.text!r}", position=tok.pos,
                             expected=("end of input",))
        return PuzzleExpr(g_term=g, h_term=h, action_path=action_path)


def parse_expr(text: str) -> PuzzleExpr:
    return _Parser(text).expr()


def print_term(term: GroupTerm) -> str:
    if isinstance(term, GroupAtom):
        if term.family == "1":
            return "1"
        if term.family == "@":
            return "@" + term.path
        return f"{term.family}{term.n}"
    return f"{print_term(term.left)} x {print_term(term.right)}"


def print_expr(expr: PuzzleExpr) -> str:
    out = f"{print_term(expr.g_term)} wr {print_term(expr.h_term)}"
    if expr.action_path:
        out += f" on @{expr.action_path}"
    return out


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------

def build_group(term: GroupTerm) -> FiniteGroup:
    if isinstance(term, GroupProduct):
        return groups.direct_product(build_group(term.left),
                                     build_group(term.right))
    if term.family == "1":
        return groups.trivial()
    if term.family == "@":
        return fileio.load_group(term.path)
    if term.family in ("Z", "C"):
        return groups.cyclic(term.n)
    if term.family == "S":
        return groups.symmetric(term.n)
    if term.family == "A":
        return groups.alternating(term.n)
    if term.family == "D":
        if term.n % 2:
            raise UnknownGroupFamily(f"D{term.n}: dihedral order must be even")
        return groups.dihedral(term.n)
    raise UnknownGroupFamily(f"unknown family {term.family!r}")


def default_action(term: GroupTerm) -> GroupAction:
    """The action implied by the spin term when no `on` clause is given."""
    if isinstance(term, GroupAtom):
        if term.family == "1":
            return trivial_action()
        if term.family in ("Z", "C"):
            return cyclic_rotation_action(term.n)
        if term.family == "S":
            return natural_symmetric_action(term.n)
        if term.family == "A":
            return permutation_action(groups.alternating(term.n),
                                      f"A{term.n}-natural")
        if term.family == "D":
            if term.n % 2:
                raise UnknownGroupFamily(f"D{term.n}: dihedral order must be even")
            return dihedral_action(term.n)
    # products and table-loaded groups fall back to the regular action
    return regular_action(build_group(term))


def build_context(expr: PuzzleExpr, *, win_set=None,
                  name: str = "") -> WreathContext:
    g = build_group(expr.g_term)
    if expr.action_path is not None:
        h = build_group(expr.h_term)
        action = fileio.load_action(expr.action_path, h)
    else:
        action = default_action(expr.h_term)
    return WreathContext(g_group=g, action=action, win_set=win_set,
                         name=name or print_expr(expr))


def parse_puzzle(text: str, *, win_set=None) -> WreathContext:
    return build_context(parse_expr(text), win_set=win_set)
