"""Finite H-sets, the wreath product G wr H, and indexing of the base K = G^Omega."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from . import groups
from .errors import ContextMismatch, ContextTooLarge, NonFaithfulAction
from .groups import FiniteGroup, Subgroup, subgroup_as_group

K_SIZE_HARD_CAP = 2 ** 62
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
        for a in range(h.order):
            for b in range(h.order):
                composed = tuple(self.act[a][self.act[b][w]] for w in range(m))
                if self.act[h.mul[a][b]] != composed:
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

    def quotient_by_kernel(self) -> "GroupAction":
        """Replace H by H/kernel so that the induced action is faithful."""
        ker = frozenset(self.kernel())
        if len(ker) == 1:
            return self
        sub = Subgroup(parent=self.h_group, members=tuple(sorted(ker)),
                       is_normal=True)
        quot, reps, proj = groups.quotient(self.h_group, sub)
        act = tuple(self.act[reps[q]] for q in range(quot.order))
        return GroupAction(h_group=quot, omega_size=self.omega_size, act=act,
                           name=f"{self.name}/ker")


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


def gather(n: int, digits) -> List[int]:
    """Index list over K whose entry at u is the sum over the coordinates w
    of digits[w][u_w], u_w being the base-n digit w of u (w = 0 first)."""
    out = [0]
    for values in digits:
        out = [c + v for c in out for v in values]
    return out


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

    def decode(self, idx: int) -> Tuple[int, ...]:
        n = self.g_group.order
        out = [0] * self.omega_size
        for w in range(self.omega_size - 1, -1, -1):
            idx, out[w] = divmod(idx, n)
        return tuple(out)

    # -- belief kernel -------------------------------------------------------

    @cached_property
    def belief_kernel(self) -> "BeliefKernel":
        return BeliefKernel(self.g_group, self.action, self.win_set)

    # -- dense tables for small K -------------------------------------------
    # Read element by element through k_mul / k_act / k_inv: by Monte Carlo
    # play (k_mul, k_act) and canonicalize_strategy (k_act) in the analysis
    # code, verify_naive (all three) and the wreath arithmetic.  The belief
    # kernel, the belief search, the exact expectation and the certificate
    # validator never build them; orbit_masks is read only by tests and by
    # the table timing of perfbench/spans.py.

    @cached_property
    def _dense(self) -> bool:
        return self.k_size <= DENSE_TABLE_CAP

    @cached_property
    def _k_mul_table(self):
        mul = self.g_group.mul
        coords = [self.decode(i) for i in range(self.k_size)]
        return tuple(
            tuple(self.encode([mul[x][y] for x, y in zip(a, b)]) for b in coords)
            for a in coords
        )

    @cached_property
    def _k_inv_table(self):
        inv = self.g_group.inv
        return tuple(
            self.encode([inv[x] for x in self.decode(i)])
            for i in range(self.k_size)
        )

    @cached_property
    def _k_act_table(self):
        return tuple(
            tuple(self._act_slow(h, i) for i in range(self.k_size))
            for h in range(self.h_order)
        )

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

    # -- base arithmetic -----------------------------------------------------

    def k_mul(self, a: int, b: int) -> int:
        if self._dense:
            return self._k_mul_table[a][b]
        mul = self.g_group.mul
        return self.encode(
            [mul[x][y] for x, y in zip(self.decode(a), self.decode(b))]
        )

    def k_inv(self, a: int) -> int:
        if self._dense:
            return self._k_inv_table[a]
        inv = self.g_group.inv
        return self.encode([inv[x] for x in self.decode(a)])

    def _act_slow(self, h: int, a: int) -> int:
        hinv = self.action.h_group.inv[h]
        row = self.action.act[hinv]
        coords = self.decode(a)
        return self.encode([coords[row[w]] for w in range(self.omega_size)])

    def k_act(self, h: int, a: int) -> int:
        """Coordinate w of the result is coordinate act[h^-1][w] of the input."""
        if self._dense:
            return self._k_act_table[h][a]
        return self._act_slow(h, a)

    def require_same(self, other: "WreathContext"):
        if (self.g_group != other.g_group or self.action != other.action
                or self.win_set != other.win_set):
            raise ContextMismatch("operands come from different contexts")


class BeliefKernel:
    """One belief step applied to a whole bitmask over K at once.

    Bit s of a mask stands for base vector s, whose coordinate w is the
    base-|G| digit of weight |G|^(|Omega|-1-w).  A move right-multiplies each
    coordinate, which permutes that coordinate's digit: the bits whose digit
    moves by the same distance move together, so coordinate w and switch
    element g take one masked shift per distinct distance.  Inversion permutes
    every coordinate's digit the same way, so the inverses of a whole mask
    take one pass of masked shifts too.  A spin permutes coordinates; each
    coordinate transposition is |G|-1 delta swaps (Warren, Hacker's Delight,
    ch. 7).  The rows of the action table are the whole image of H, so the
    spin closure is the OR of the mask's images under every row.  The shift
    masks are built on first use of each (w, g) and of inversion; the masks
    together are O(|Omega| |G|^2) of |K| bits, plus |G|-1 per coordinate
    transposition of each row.
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
        # each distinct row but the identity, and its delta swaps
        self._rows = tuple(row for row in dict.fromkeys(action.act[1:])
                           if row != action.act[0])
        self._spins = tuple(self._swaps(row) for row in self._rows)
        self._win_set = win_set

    def _move_shifts(self, move: int) -> tuple:
        """The masked shifts of each coordinate that the move changes."""
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
        """Delta swaps that put input coordinate row[w] at coordinate w."""
        n, digit = self._n, self._digit
        out = []
        held = list(range(self._m))  # held[w]: input coordinate now at w
        for a in range(self._m):
            b = held.index(row[a])
            if b == a:
                continue
            held[a], held[b] = held[b], held[a]
            # a < b, so digit a has the larger weight: the bit with digits
            # (x, x+k) at (a, b) trades places with the one with (x+k, x)
            delta = self._weight[a] - self._weight[b]
            for k in range(1, n):
                sel = 0
                for x in range(n - k):
                    sel |= digit[a][x] & digit[b][x + k]
                out.append((k * delta, sel))
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
        out = mask
        for swaps in self._spins:
            image = mask
            for delta, sel in swaps:
                t = ((image >> delta) ^ image) & sel
                image ^= t ^ (t << delta)
            out |= image
        return out

    @cached_property
    def spins_fix_win(self) -> bool:
        """Whether every spin maps the win set onto itself."""
        n, weight = self._n, self._weight
        return all(sum(s // weight[row[w]] % n * weight[w]
                       for w in range(self._m)) in self._win_set
                   for row in self._rows for s in self._win_set)

    @cached_property
    def orbit_minima(self) -> int:
        """The mask of the least member of each H-orbit of K.

        A row puts input digit v at the coordinate w with row[w] == v, so
        the images of all of K under one row form one list, built digit by
        digit in O(|K| |Omega|); the least of a base vector's images over
        every row is its orbit's minimum.
        """
        least = range(self._n ** self._m)
        for row in self._rows:
            image = [0]
            for v in range(self._m):
                wt = self._weight[row.index(v)]
                image = [c + x * wt for c in image for x in range(self._n)]
            least = list(map(min, least, image))
        return int("".join(["1" if t == s else "0"
                            for s, t in enumerate(least)][::-1]), 2)

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
