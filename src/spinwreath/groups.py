"""Finite groups (and loops) as dense multiplication tables.

Elements are integer indices 0..n-1 with the identity canonically at 0.
All algebra is table lookups; this is meant for small groups (a few hundred
elements at most), which is all the rest of the package ever needs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import (
    MissingInverse,
    NoIdentity,
    NotAbelian,
    NotAssociative,
    NotNormal,
    OrderBoundExceeded,
    PrimeDoesNotDivideOrder,
    TableNotLatin,
)

#: Sentinel prime returned by ``p_group_prime`` for the trivial group,
#: which is a p-group for every prime at once.  1 is not a prime, so the
#: value cannot collide with a genuine answer.
TRIVIAL_P = 1

DEFAULT_SUBGROUP_ORDER_BOUND = 64


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group (or loop) given by its multiplication table."""

    order: int
    mul: tuple  # tuple of tuples, mul[a][b]
    inv: tuple
    is_associative: bool = True
    labels: Optional[tuple] = None
    name: str = "G"
    # permutation groups only: perms[x] is element x as a permutation of
    # 0..n-1, in lexicographic order, so that x acts on point w as perms[x][w]
    perms: Optional[tuple] = field(default=None, compare=False)

    @property
    def identity(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.order)

    def label(self, x: int) -> str:
        if self.labels is not None:
            return self.labels[x]
        return str(x)

    def element_order(self, x: int) -> int:
        n, y = 1, x
        while y != 0:
            y = self.mul[y][x]
            n += 1
        return n

    def is_abelian(self) -> bool:
        return all(
            self.mul[a][b] == self.mul[b][a]
            for a in range(self.order)
            for b in range(self.order)
        )

    def conjugate(self, g: int, x: int) -> int:
        return self.mul[self.mul[g][x]][self.inv[g]]

    def __repr__(self):
        kind = "group" if self.is_associative else "loop"
        return f"<{kind} {self.name} of order {self.order}>"


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    members: tuple  # sorted element indices

    @property
    def order(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Homomorphism:
    source: FiniteGroup
    target: FiniteGroup
    map: tuple  # map[a] in target for a in source
    surjective: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "surjective", len(set(self.map)) == self.target.order
        )

    def check(self) -> bool:
        src, tgt, f = self.source, self.target, self.map
        if f[0] != 0:
            return False
        return all(
            f[src.mul[a][b]] == tgt.mul[f[a]][f[b]]
            for a in range(src.order)
            for b in range(src.order)
        )

    def is_injective(self) -> bool:
        return len(set(self.map)) == self.source.order


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _validate_table(mul, order, *, name):
    universe = set(range(order))
    for row in mul:
        if set(row) != universe:
            raise TableNotLatin(f"{name}: row is not a permutation of 0..{order-1}")
    for j in range(order):
        if {mul[i][j] for i in range(order)} != universe:
            raise TableNotLatin(f"{name}: column {j} is not a permutation")
    # locate a two-sided identity
    identity = None
    for e in range(order):
        if all(mul[e][x] == x and mul[x][e] == x for x in range(order)):
            identity = e
            break
    if identity is None:
        raise NoIdentity(f"{name}: no two-sided identity")
    return identity


def _relabel(mul, identity, labels):
    """Permute element indices so that the identity sits at index 0."""
    order = len(mul)
    perm = [identity] + [x for x in range(order) if x != identity]
    pos = {old: new for new, old in enumerate(perm)}
    new_mul = tuple(
        tuple(pos[mul[perm[a]][perm[b]]] for b in range(order)) for a in range(order)
    )
    new_labels = tuple(labels[perm[a]] for a in range(order)) if labels else None
    return new_mul, new_labels


def from_table(raw: Sequence[Sequence[int]], *, loop_mode=False,
               labels=None, name="G") -> FiniteGroup:
    order = len(raw)
    if order < 1 or any(len(row) != order for row in raw):
        raise TableNotLatin(f"{name}: table is not square")
    mul = tuple(tuple(int(x) for x in row) for row in raw)
    identity = _validate_table(mul, order, name=name)
    if identity != 0:
        mul, labels = _relabel(mul, identity, labels)
    inv = []
    for x in range(order):
        y = next((y for y in range(order)
                  if mul[x][y] == 0 and mul[y][x] == 0), None)
        if y is None:
            raise MissingInverse(f"{name}: element {x} has no two-sided inverse")
        inv.append(y)
    associative = all(
        mul[mul[a][b]][c] == mul[a][mul[b][c]]
        for a in range(order) for b in range(order) for c in range(order)
    )
    if not associative and not loop_mode:
        raise NotAssociative(f"{name}: table is not associative (use loop mode?)")
    return FiniteGroup(order=order, mul=mul, inv=tuple(inv),
                       is_associative=associative,
                       labels=tuple(labels) if labels else None, name=name)


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    mul = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    inv = tuple((-a) % n for a in range(n))
    return FiniteGroup(order=n, mul=mul, inv=inv, name=f"Z{n}")


def trivial() -> FiniteGroup:
    return FiniteGroup(order=1, mul=((0,),), inv=(0,), name="1")


def _perm_compose(p, q):
    """(p*q)(x) = p(q(x))."""
    return tuple(p[q[x]] for x in range(len(p)))


def _perm_inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _perm_label(p):
    """Cycle notation on points 1..n."""
    n = len(p)
    seen, parts = set(), []
    for start in range(n):
        if start in seen or p[start] == start:
            seen.add(start)
            continue
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(x + 1)
            x = p[x]
        parts.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(parts) if parts else "e"


def _group_from_perms(perms, name):
    perms = tuple(sorted(perms))  # the identity is lex-first, so index 0
    index = {p: i for i, p in enumerate(perms)}
    mul = tuple(
        tuple(index[_perm_compose(a, b)] for b in perms) for a in perms
    )
    inv = tuple(index[_perm_inverse(a)] for a in perms)
    labels = tuple(_perm_label(p) for p in perms)
    return FiniteGroup(order=len(perms), mul=mul, inv=inv,
                       labels=labels, name=name, perms=perms)


def symmetric(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("n must be >= 1")
    return _group_from_perms(itertools.permutations(range(n)), f"S{n}")


def _perm_sign(p):
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def alternating(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("n must be >= 1")
    perms = [p for p in itertools.permutations(range(n)) if _perm_sign(p) == 1]
    return _group_from_perms(perms, f"A{n}")


def dihedral(order: int) -> FiniteGroup:
    """Dihedral group of the given (even) order, acting on order/2 points."""
    if order < 2 or order % 2:
        raise ValueError("dihedral order must be even and >= 2")
    n = order // 2
    rotations = [tuple((i + k) % n for i in range(n)) for k in range(n)]
    reflections = [tuple((k - i) % n for i in range(n)) for k in range(n)]
    return _group_from_perms(set(rotations) | set(reflections), f"D{order}")


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    if not (a.is_associative and b.is_associative):
        raise NotAssociative("direct products are only defined for groups")
    n, m = a.order, b.order
    mul = tuple(
        tuple(a.mul[x // m][y // m] * m + b.mul[x % m][y % m] for y in range(n * m))
        for x in range(n * m)
    )
    inv = tuple(a.inv[x // m] * m + b.inv[x % m] for x in range(n * m))
    labels = None
    if a.labels or b.labels:
        labels = tuple(
            f"({a.label(x // m)},{b.label(x % m)})" for x in range(n * m)
        )
    return FiniteGroup(order=n * m, mul=mul, inv=inv, labels=labels,
                       name=f"{a.name}x{b.name}")


def loop5() -> FiniteGroup:
    """The smallest loop that is not a group (order 5, two-sided inverses)."""
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    return from_table(table, loop_mode=True,
                      labels=("1", "a", "b", "c", "d"), name="L5")


# ---------------------------------------------------------------------------
# subgroup machinery
# ---------------------------------------------------------------------------

def _require_group(g: FiniteGroup, what: str):
    if not g.is_associative:
        raise NotAssociative(f"{what} requires an associative group")


def closure(g: FiniteGroup, gens: Iterable[int]) -> frozenset:
    """The subgroup generated by ``gens``: a breadth-first walk of the
    Cayley graph from the identity, each element reached multiplied on the
    right by each generator, so |S|·|gens| products for a subgroup S.

    In a finite group the monoid the generators produce is the whole
    subgroup (an inverse is a positive power), so right products suffice;
    a loop is not closed that way, hence the group requirement.
    """
    _require_group(g, "closure")
    gens = tuple(set(gens))
    elems = {0}
    frontier = [0]
    for a in frontier:  # the walk appends to the list it reads
        row = g.mul[a]
        for x in gens:
            c = row[x]
            if c not in elems:
                elems.add(c)
                frontier.append(c)
    return frozenset(elems)


def generating_set(g: FiniteGroup) -> tuple:
    """A small generating set of G: each element, in index order, that the
    ones before it do not generate."""
    gens, members = (), frozenset({0})
    for x in range(1, g.order):
        if x not in members:
            gens += (x,)
            members = closure(g, gens)
    return gens


def subgroup_generated(g: FiniteGroup, gens: Sequence[int]) -> Subgroup:
    _require_group(g, "subgroup_generated")
    return Subgroup(parent=g, members=tuple(sorted(closure(g, gens))))


def _is_normal(g: FiniteGroup, members: frozenset, g_gens: tuple) -> bool:
    """N is normal iff xNx^-1 ⊆ N for each generator x of G."""
    return all(
        g.conjugate(x, s) in members for x in g_gens for s in members
    )


def all_subgroups(g: FiniteGroup):
    """Every subgroup, each extension <S, x> closed from the generating
    tuple that found S plus x.

    An x in S, or in a coset S·x already tried, is skipped: <S, b·x> =
    <S, x> for b in S.
    """
    _require_group(g, "subgroup enumeration")
    if g.order > DEFAULT_SUBGROUP_ORDER_BOUND:
        raise OrderBoundExceeded(
            f"|G| = {g.order} exceeds the subgroup enumeration bound "
            f"{DEFAULT_SUBGROUP_ORDER_BOUND}"
        )
    found = {frozenset({0}): ()}
    queue = [frozenset({0})]
    while queue:
        base = queue.pop()
        gens = found[base]
        tried = set(base)
        for x in range(1, g.order):
            if x in tried:
                continue
            tried.update(g.mul[b][x] for b in base)
            ext_gens = gens + (x,)
            ext = closure(g, ext_gens)
            if ext not in found:
                found[ext] = ext_gens
                queue.append(ext)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def normal_subgroups(g: FiniteGroup):
    g_gens = generating_set(g)
    return [Subgroup(parent=g, members=tuple(sorted(members)))
            for members in all_subgroups(g)
            if _is_normal(g, members, g_gens)]


def subgroup_as_group(sub: Subgroup) -> FiniteGroup:
    """The subgroup as a standalone group; element i is sub.members[i]."""
    g = sub.parent
    members = sub.members
    pos = {m: i for i, m in enumerate(members)}
    mul = tuple(
        tuple(pos[g.mul[a][b]] for b in members) for a in members
    )
    inv = tuple(pos[g.inv[a]] for a in members)
    labels = tuple(g.label(a) for a in members) if g.labels else None
    return FiniteGroup(order=len(members), mul=mul, inv=inv, labels=labels,
                       name=f"{g.name}|{{{','.join(map(str, members))}}}")


def quotient(g: FiniteGroup, n: Subgroup):
    """Quotient group, coset representatives, and the projection map.

    Returns (quotient, reps, proj) where reps[q] is the chosen representative
    of coset q (identity coset -> identity; otherwise smallest element index)
    and proj is the surjective homomorphism G -> G/N.
    """
    _require_group(g, "quotient")
    if n.parent is not g and n.parent != g:
        raise NotNormal("subgroup belongs to a different group")
    members = frozenset(n.members)
    if not _is_normal(g, members, generating_set(g)):
        raise NotNormal("subgroup is not normal")
    cosets = {}
    for x in range(g.order):
        cos = frozenset(g.mul[x][m] for m in members)
        key = min(cos)
        cosets.setdefault(key, cos)
    # identity coset first, then by smallest representative
    keys = sorted(cosets, key=lambda k: (k != 0, k))
    index = {}
    for qi, key in enumerate(keys):
        for x in cosets[key]:
            index[x] = qi
    reps = tuple(keys)
    q_order = len(keys)
    q_mul = tuple(
        tuple(index[g.mul[reps[a]][reps[b]]] for b in range(q_order))
        for a in range(q_order)
    )
    q_inv = tuple(index[g.inv[reps[a]]] for a in range(q_order))
    quot = FiniteGroup(order=q_order, mul=q_mul, inv=q_inv,
                       name=f"{g.name}/N{len(members)}")
    proj = Homomorphism(source=g, target=quot,
                        map=tuple(index[x] for x in range(g.order)))
    return quot, reps, proj


def _prime_factors(n: int):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def p_group_prime(g: FiniteGroup) -> Optional[int]:
    """The prime p with |G| = p^k, TRIVIAL_P for the trivial group, else None."""
    if g.order == 1:
        return TRIVIAL_P
    factors = _prime_factors(g.order)
    return factors[0] if len(factors) == 1 else None


def same_prime(a: FiniteGroup, b: FiniteGroup) -> bool:
    """True iff A and B are p-groups for one prime, either possibly trivial."""
    p, q = p_group_prime(a), p_group_prime(b)
    return None not in (p, q) and (p == q or TRIVIAL_P in (p, q))


def sylow_subgroup(g: FiniteGroup, q: int) -> Subgroup:
    _require_group(g, "sylow_subgroup")
    if g.order % q != 0:
        raise PrimeDoesNotDivideOrder(f"{q} does not divide |G| = {g.order}")
    target = 1
    n = g.order
    while n % q == 0:
        target *= q
        n //= q
    for members in all_subgroups(g):
        if len(members) == target:
            return Subgroup(parent=g, members=tuple(sorted(members)))
    raise AssertionError("Sylow subgroup must exist")  # unreachable for groups


def subgroup_chain(mul, name) -> tuple:
    """The right cosets at each level of a subgroup chain
    1 = H_0 < H_1 < ... < H_k of the group whose elements are the values of
    ``name``, the device behind Schreier–Sims (Seress, *Permutation Group
    Algorithms*, 2003).

    ``mul`` is a multiplication table and name[x] the least element with
    the same image as x: the identity map for a group itself, the least
    element with the same row for an action, whose image then gets the
    chain.  Level i lists the right cosets of H_(i-1) in H_i, H_(i-1) first,
    each from its representative.  H_i is the smallest <H_(i-1), g>, the
    first g in element order on ties.  At every level of a p-group its
    index is p: a proper subgroup of a p-group has a larger normalizer,
    which holds a g of order p over H_(i-1).  An index-p subgroup of a
    p-group is normal, so each H_(i-1) is normal in H_i.
    """
    universe = sorted(set(name))
    sub, gens, levels = [0], [], []
    while len(sub) < len(universe):
        # the index divides |image| / |H_(i-1)|: its least prime is a floor
        least = _prime_factors(len(universe) // len(sub))[0]
        best, tried = None, set(sub)
        for g in universe:
            if g in tried:
                continue
            cosets = _right_cosets(mul, name, sub, gens + [g],
                                   len(best) if best else None)
            if cosets is not None:
                best, best_g = cosets, g
                if len(cosets) == least:  # no extension is smaller
                    break
            # <H_(i-1), g> is the same for every g of a right coset
            tried.update([name[mul[h][g]] for h in sub])
        levels.append(best)
        sub = [h for coset in best for h in coset]
        gens.append(best_g)
    return tuple(levels)


def _right_cosets(mul, name, sub, gens, cap):
    """The right cosets of the subgroup sub (a list starting at the
    identity) in the group that sub and gens generate, sub first and each
    listed from its representative; None once there would be cap of them."""
    cosets = [sub]
    members = set(sub)
    for coset in cosets:  # the walk appends to the list it reads
        row = mul[coset[0]]
        for x in gens:
            c = name[row[x]]
            if c not in members:
                if cap is not None and len(cosets) + 1 >= cap:
                    return None
                new = [name[mul[h][c]] for h in sub]
                members.update(new)
                cosets.append(new)
    return cosets


def involutions(g: FiniteGroup):
    return [x for x in range(1, g.order) if g.mul[x][x] == 0]


def involution_generators(g: FiniteGroup) -> Optional[tuple]:
    """A smallest set of involutions generating G, or None."""
    _require_group(g, "involution_generators")
    if g.order == 1:
        return ()
    invs = involutions(g)
    if len(closure(g, invs)) != g.order:
        return None
    for size in range(1, len(invs) + 1):
        for combo in itertools.combinations(invs, size):
            if len(closure(g, combo)) == g.order:
                return combo
    return None


def require_abelian(g: FiniteGroup):
    if not g.is_abelian():
        raise NotAbelian(f"{g.name} is not abelian")
