"""Finite H-sets, the wreath product G wr H, and indexing of the base K = G^Omega."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from . import groups
from .errors import (ContextMismatch, ContextTooLarge, InputStrategyInvalid,
                     NonFaithfulAction)
from .groups import FiniteGroup

K_SIZE_HARD_CAP = 2 ** 62
# the belief kernel's |Omega| |G| digit masks of |K| bits each, in bits
KERNEL_MASK_BITS_CAP = 2 ** 31
DENSE_TABLE_CAP = 4096


@dataclass(frozen=True)
class GroupAction:
    """A faithful action of h_group on {0..omega_size-1}."""

    h_group: FiniteGroup
    omega_size: int
    act: tuple  # act[h][omega]
    name: str = "action"

    def __post_init__(self):
        h = self.h_group
        m = self.omega_size
        if len(self.act) != h.order or any(len(row) != m for row in self.act):
            raise ValueError("action table has wrong dimensions")
        ident = tuple(range(m))
        if self.act[0] != ident:
            raise ValueError("identity of H must act trivially")
        if not h.is_associative:
            raise ValueError("H must be a group to act")
        # act(a s) = act(a) act(s) for every a and each generator s gives
        # act(a w) = act(a) act(w) for every w, by induction on a word for w
        for s in groups.generating_set(h):
            for a in range(h.order):
                composed = tuple(self.act[a][x] for x in self.act[s])
                if self.act[h.mul[a][s]] != composed:
                    raise ValueError("action table is not compatible with H")

    def kernel(self) -> tuple:
        ident = tuple(range(self.omega_size))
        return tuple(h for h in range(self.h_group.order) if self.act[h] == ident)

    def is_faithful(self) -> bool:
        return len(self.kernel()) == 1

    def require_faithful(self):
        if not self.is_faithful():
            raise NonFaithfulAction(
                f"action of {self.h_group.name} on {self.omega_size} points "
                "is not faithful"
            )


def cyclic_rotation_action(n: int) -> GroupAction:
    """C_n rotating n positions one step per generator application.

    The table is act[t][w] = (w - t) mod n, which makes a positive spin move
    each switch one position forward (position w then holds the switch that
    was at w - 1 ... equivalently the coordinate at w comes from w + t).
    """
    h = groups.cyclic(n)
    act = tuple(tuple((w - t) % n for w in range(n)) for t in range(n))
    return GroupAction(h_group=h, omega_size=n, act=act, name=f"C{n}-rotation")


def permutation_action(h: FiniteGroup, name: str) -> GroupAction:
    """A permutation group on the points it permutes: act[x] = h.perms[x]."""
    return GroupAction(h_group=h, omega_size=len(h.perms[0]), act=h.perms,
                       name=name)


def natural_symmetric_action(n: int) -> GroupAction:
    return permutation_action(groups.symmetric(n), f"S{n}-natural")


def dihedral_action(order: int) -> GroupAction:
    """Dihedral group of the given order on order/2 polygon corners."""
    return permutation_action(groups.dihedral(order), f"D{order}-polygon")


def trivial_action() -> GroupAction:
    return GroupAction(h_group=groups.trivial(), omega_size=1, act=((0,),),
                       name="trivial")


def regular_action(h: FiniteGroup) -> GroupAction:
    """H acting on its own |H| elements by left translation."""
    act = tuple(tuple(h.mul[a][w] for w in range(h.order))
                for a in range(h.order))
    return GroupAction(h_group=h, omega_size=h.order, act=act,
                       name=f"{h.name}-regular")


def coordinate_map(n: int, maps, row=None) -> List[int]:
    """Index list over K whose entry u is the base vector with digit
    maps[w][u_w] at coordinate row[w] (at coordinate w when row is None),
    u_w being the base-n digit w of u; coordinate 0 is the most significant.
    """
    m = len(maps)
    out = [0]
    for w, values in enumerate(maps):
        weight = n ** (m - 1 - (w if row is None else row[w]))
        scaled = [x * weight for x in values]
        out = [c + y for c in out for y in scaled]
    return out


def orbit_least(n: int, act) -> List[int]:
    """Entry s: the least base vector in the H-orbit of s, for the action
    table act (act[h][w]) of H on the coordinates of K = G^Omega, |G| = n.

    The images of all of K under one row form one coordinate map, and the
    least of a base vector's images over every row is its orbit's minimum.
    The map puts coordinate w at row[w], the image under the row's inverse,
    which is one of the rows too.
    """
    m = len(act[0])
    least = range(n ** m)
    for row in dict.fromkeys(act[1:]):  # act[0] is the identity
        least = list(map(min, least, coordinate_map(n, [range(n)] * m, row)))
    return list(least)


@dataclass(frozen=True)
class WreathContext:
    """A full puzzle instance: switches G at |Omega| positions spun by H."""

    g_group: FiniteGroup
    action: GroupAction
    win_set: frozenset = None  # type: ignore[assignment]
    name: str = ""
    allow_non_faithful: bool = False

    def __post_init__(self):
        if self.g_group.order ** self.action.omega_size > K_SIZE_HARD_CAP:
            raise ContextTooLarge("|G|^|Omega| exceeds 2^62")
        if not self.allow_non_faithful:
            self.action.require_faithful()
        if self.win_set is None:
            object.__setattr__(self, "win_set", frozenset({0}))
        else:
            object.__setattr__(self, "win_set", frozenset(self.win_set))
        if not self.win_set or not all(
            0 <= w < self.k_size for w in self.win_set
        ):
            raise ValueError("win_set must be a nonempty subset of K")
        if not self.name:
            object.__setattr__(
                self,
                "name",
                f"{self.g_group.name}wr{self.action.h_group.name}",
            )

    # -- sizes --------------------------------------------------------------

    @property
    def omega_size(self) -> int:
        return self.action.omega_size

    @property
    def h_order(self) -> int:
        return self.action.h_group.order

    @property
    def k_size(self) -> int:
        return self.g_group.order ** self.action.omega_size

    @property
    def loop_mode(self) -> bool:
        return not self.g_group.is_associative

    # -- base-vector indexing (mixed radix, omega = 0 most significant) -----

    def encode(self, coords: Sequence[int]) -> int:
        n = self.g_group.order
        idx = 0
        for c in coords:
            idx = idx * n + c
        return idx

    @cached_property
    def _weights(self) -> Tuple[int, ...]:  # of each coordinate's digit
        n, m = self.g_group.order, self.omega_size
        return tuple(n ** (m - 1 - w) for w in range(m))

    def decode(self, idx: int) -> Tuple[int, ...]:
        n = self.g_group.order
        return tuple(idx // w % n for w in self._weights)

    # -- belief kernel -------------------------------------------------------

    @cached_property
    def belief_kernel(self) -> "BeliefKernel":
        bits = self.omega_size * self.g_group.order * self.k_size
        if bits > KERNEL_MASK_BITS_CAP:
            raise ContextTooLarge(f"the belief kernel's masks of {self.name} "
                                  f"would take {bits} bits, over 2^31")
        return BeliefKernel(self.g_group, self.action, self.win_set)

    # -- dense tables for small K -------------------------------------------
    # Sampled play reads _k_act_table's spin rows; the other builders serve
    # only perfbench/spans.py and tests until ROADMAP items 5 and 9.

    @cached_property
    def _k_mul_table(self):
        n, mul = self.g_group.order, self.g_group.mul
        return tuple(coordinate_map(n, [mul[x] for x in self.decode(a)])
                     for a in range(self.k_size))

    @cached_property
    def _k_inv_table(self):
        return coordinate_map(self.g_group.order,
                              [self.g_group.inv] * self.omega_size)

    @cached_property
    def _k_act_table(self):
        # row h puts coordinate w of the input at coordinate act[h][w]
        n, m = self.g_group.order, self.omega_size
        return tuple(coordinate_map(n, [range(n)] * m, row)
                     for row in self.action.act)

    @cached_property
    def orbit_masks(self):
        """orbit_masks[i] = bitmask of the H-orbit of base vector i."""
        act = self._k_act_table
        out = []
        for i in range(self.k_size):
            mask = 0
            for h in range(self.h_order):
                mask |= 1 << act[h][i]
            out.append(mask)
        return tuple(out)

    # -- base arithmetic: digit by digit, with no tuple built ----------------

    def k_mul(self, a: int, b: int) -> int:
        n, mul = self.g_group.order, self.g_group.mul
        c = 0
        for w in self._weights:
            c += mul[a // w % n][b // w % n] * w
        return c

    def k_inv(self, a: int) -> int:
        n, inv = self.g_group.order, self.g_group.inv
        return sum(inv[a // w % n] * w for w in self._weights)

    def k_act(self, h: int, a: int) -> int:
        """Coordinate w of the result is coordinate act[h^-1][w] of the input."""
        n, weight = self.g_group.order, self._weights
        c = 0
        for v, w in zip(self.action.act[self.action.h_group.inv[h]], weight):
            c += a // weight[v] % n * w
        return c

    def require_same(self, other: "WreathContext"):
        if (self.g_group != other.g_group or self.action != other.action
                or self.win_set != other.win_set):
            raise ContextMismatch("operands come from different contexts")


def spin_transversals(action: GroupAction) -> tuple:
    """The rows of right transversals T_1, ..., T_k of the levels of
    ``groups.subgroup_chain`` for the action's image, identity rows left out.

    Level i is H_i = H_{i-1} T_i, so each row of the action is
    r_1∘r_2∘...∘r_k for exactly one choice of each r_i from T_i or the
    identity.  Elements with the same row are one element of the image, so
    a non-faithful action gets the chain of its image.  Every level of a
    p-group has index p, so the levels hold (p-1) log_p |H| rows in all.
    Each right coset of H_{i-1} is represented by the member whose row has
    the most cycles, the one with the fewest delta swaps.
    """
    act = action.act
    first: dict = {}
    for h, row in enumerate(act):
        first.setdefault(row, h)
    name = [first[row] for row in act]  # the least element with h's row
    return tuple(
        tuple(act[min(coset, key=lambda h: (_transpositions(act[h]), h))]
              for coset in cosets[1:])
        for cosets in groups.subgroup_chain(action.h_group.mul, name))


def _transpositions(row) -> int:
    """The transpositions that make up a permutation: |Omega| - cycles."""
    seen, cycles = set(), 0
    for w in range(len(row)):
        if w not in seen:
            cycles += 1
            while w not in seen:
                seen.add(w)
                w = row[w]
    return len(row) - cycles


class BeliefKernel:
    """One belief step applied to a whole bitmask over K at once.

    Bit s of a mask stands for base vector s, whose coordinate w is the
    base-|G| digit of weight |G|^(|Omega|-1-w).  A move right-multiplies each
    coordinate, which permutes that coordinate's digit: the bits whose digit
    moves by the same distance move together, so coordinate w and switch
    element g take one masked shift per distinct distance.  Inversion permutes
    every coordinate's digit the same way, so the inverses of a whole mask
    take one pass of masked shifts too.  A spin permutes coordinates; each
    coordinate transposition trades the digits' prime sub-digits one at a
    time, sum(p - 1) delta swaps over the prime factors p of |G| with
    multiplicity (Warren, Hacker's Delight, ch. 7): 5 rather than |G| - 1
    = 31 for |G| = 32.  The spin closure runs through the levels of
    ``spin_transversals``: a mask closed under H_{i-1} ORed with its images
    under the rows of T_i is closed under H_i = H_{i-1} T_i, so the levels
    together reach every row of the action while taking sum(|T_i| - 1)
    images rather than one per row, (p-1) log_p |H| for a p-group H.  The
    shift masks are built on first use of each (w, g) and of inversion; the
    masks together are O(|Omega| |G|^2) of |K| bits, plus sum(p - 1) per
    coordinate transposition of each transversal row.
    """

    def __init__(self, g_group: FiniteGroup, action: GroupAction,
                 win_set: frozenset):
        n, m = g_group.order, action.omega_size
        full = (1 << n ** m) - 1
        self._n, self._m = n, m
        self._mul, self._inv = g_group.mul, g_group.inv
        self._weight = tuple(n ** (m - 1 - w) for w in range(m))
        # _digit[w][x]: the bits whose coordinate w is x
        self._digit = tuple(
            tuple((((1 << wt) - 1) << (x * wt)) * (full // ((1 << n * wt) - 1))
                  for x in range(n))
            for wt in self._weight
        )
        self._keep = full & ~sum(1 << s for s in win_set)
        self._shifts: dict = {}  # (w, g) -> (left shifts, right shifts)
        self._moves: dict = {}  # move -> the _shifts entries it applies
        # the delta swaps of each transversal row, level by level
        self._levels = tuple(tuple(self._swaps(row) for row in level)
                             for level in spin_transversals(action))
        self._act = action.act
        self._win_set = win_set

    def _move_shifts(self, move: int) -> tuple:
        """The masked shifts of each coordinate that the move changes."""
        if not 0 <= move < self._n ** self._m:
            # the digits below would read only the move's low digits
            raise InputStrategyInvalid(
                f"move {move} is not a base vector of K "
                f"(0..{self._n ** self._m - 1})")
        out = []
        for w in range(self._m - 1, -1, -1):
            move, g = divmod(move, self._n)
            if g:  # the identity leaves coordinate w alone
                if (w, g) not in self._shifts:
                    self._shifts[w, g] = self._digit_shifts(
                        w, [row[g] for row in self._mul])
                out.append(self._shifts[w, g])
        return tuple(out)

    @cached_property
    def _inversion(self) -> tuple:
        return tuple(self._digit_shifts(w, self._inv) for w in range(self._m))

    def _digit_shifts(self, w: int, image) -> tuple:
        """Masked shifts that send digit x of coordinate w to image[x]."""
        by_distance: dict = {}
        for x, y in enumerate(image):
            by_distance[y - x] = by_distance.get(y - x, 0) | self._digit[w][x]
        wt = self._weight[w]
        return (tuple((d * wt, sel) for d, sel in by_distance.items() if d >= 0),
                tuple((-d * wt, sel) for d, sel in by_distance.items() if d < 0))

    def _swaps(self, row) -> tuple:
        """Delta swaps that put input coordinate row[w] at coordinate w.

        A digit x of G is read as prime sub-digits, |G| = f_1 f_2 ... f_r in
        mixed radix (sub-digit i is x // u_i % f_i, u_i = f_1 ... f_(i-1)),
        and two coordinates trade one sub-digit at a time, f_i - 1 swaps
        each: sum(f_i - 1) per transposition rather than |G| - 1.
        """
        n, digit = self._n, self._digit
        radices = []  # the prime factors of |G| with multiplicity
        for p in groups.prime_factors(n):
            q = n
            while q % p == 0:
                radices.append(p)
                q //= p
        out = []
        held = list(range(self._m))  # held[w]: input coordinate now at w
        for a in range(self._m):
            b = held.index(row[a])
            if b == a:
                continue
            held[a], held[b] = held[b], held[a]
            # a < b, so digit a has the larger weight: the bit with sub-digits
            # (x, x+k) at (a, b) trades places with the one with (x+k, x)
            delta = self._weight[a] - self._weight[b]
            u = 1
            for f in radices:
                sub_a, sub_b = [0] * f, [0] * f
                for x in range(n):
                    sub_a[x // u % f] |= digit[a][x]
                    sub_b[x // u % f] |= digit[b][x]
                for k in range(1, f):
                    sel = 0
                    for x in range(f - k):
                        sel |= sub_a[x] & sub_b[x + k]
                    out.append((k * u * delta, sel))
                u *= f
        return tuple(out)

    def step(self, mask: int, move: int, spin: bool = True) -> int:
        """Apply the move, drop the win set, then close under spins."""
        shifts = self._moves.get(move)
        if shifts is None:
            shifts = self._moves[move] = self._move_shifts(move)
        for left, right in shifts:
            out = 0
            for s, sel in left:
                out |= (mask & sel) << s
            for s, sel in right:
                out |= (mask & sel) >> s
            mask = out
        mask &= self._keep
        if not spin:
            return mask
        for level in self._levels:
            closed = mask
            for swaps in level:
                image = closed
                for delta, sel in swaps:
                    t = ((image >> delta) ^ image) & sel
                    image ^= t ^ (t << delta)
                mask |= image
        return mask

    @cached_property
    def _rows(self) -> tuple:
        """Each distinct row of the action but the identity."""
        return tuple(row for row in dict.fromkeys(self._act[1:])
                     if row != self._act[0])

    @cached_property
    def spins_fix_win(self) -> bool:
        """Whether every spin maps the win set onto itself."""
        n, weight = self._n, self._weight
        return all(sum(s // weight[row[w]] % n * weight[w]
                       for w in range(self._m)) in self._win_set
                   for row in self._rows for s in self._win_set)

    @cached_property
    def orbit_minima(self) -> int:
        """The mask of the least member of each H-orbit of K."""
        return int("".join(["1" if t == s else "0" for s, t in
                            enumerate(orbit_least(self._n, self._act))][::-1]),
                   2)

    def inverses(self, mask: int) -> int:
        """The mask of the coordinate-wise inverses of the mask's members.

        Inverses are two-sided, so inversion is an involution of G and the
        result is also the set of base vectors whose inverse is in the mask.
        The loop is the one ``step`` runs on a move's shifts; ``step`` keeps
        its own copy because a call per step slows enumeration by 2-3%.
        """
        for left, right in self._inversion:
            out = 0
            for s, sel in left:
                out |= (mask & sel) << s
            for s, sel in right:
                out |= (mask & sel) >> s
            mask = out
        return mask


@dataclass(frozen=True)
class WreathElement:
    ctx: WreathContext
    base: int  # base-vector index
    spin: int  # H element index

    def coords(self):
        return self.ctx.decode(self.base)


def wreath_identity(ctx: WreathContext) -> WreathElement:
    return WreathElement(ctx=ctx, base=0, spin=0)


def wreath_multiply(a: WreathElement, b: WreathElement) -> WreathElement:
    a.ctx.require_same(b.ctx)
    ctx = a.ctx
    base = ctx.k_mul(a.base, ctx.k_act(a.spin, b.base))
    spin = ctx.action.h_group.mul[a.spin][b.spin]
    return WreathElement(ctx=ctx, base=base, spin=spin)


def wreath_inverse(a: WreathElement) -> WreathElement:
    ctx = a.ctx
    hinv = ctx.action.h_group.inv[a.spin]
    return WreathElement(ctx=ctx, base=ctx.k_act(hinv, ctx.k_inv(a.base)),
                         spin=hinv)
