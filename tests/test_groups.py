import dataclasses
import itertools
import random

import pytest

from spinwreath import groups
from spinwreath.errors import (NoIdentity, NotAbelian, NotAssociative,
                               TableNotLatin)
from spinwreath.puzzle_parser import parse_puzzle


def brute_force_subgroups(g):
    """Oracle: every subset closed under mul/inv containing the identity."""
    out = []
    elems = list(range(g.order))
    for r in range(1, g.order + 1):
        for combo in itertools.combinations(elems, r):
            s = set(combo)
            if 0 not in s:
                continue
            if all(g.mul[a][b] in s for a in s for b in s) and \
               all(g.inv[a] in s for a in s):
                out.append(frozenset(s))
    return sorted(out, key=lambda m: (len(m), sorted(m)))


@pytest.mark.parametrize("g", [
    groups.cyclic(1), groups.cyclic(6), groups.cyclic(8),
    groups.symmetric(3), groups.dihedral(8), groups.alternating(4),
    groups.direct_product(groups.cyclic(2), groups.cyclic(2)),
])
def test_all_subgroups_against_brute_force(g):
    if g.order > 12:
        pytest.skip("oracle too slow")
    got = sorted(groups.all_subgroups(g), key=lambda m: (len(m), sorted(m)))
    assert got == brute_force_subgroups(g)


def test_group_axioms_for_builtins():
    for g in [groups.cyclic(5), groups.symmetric(3), groups.dihedral(10),
              groups.alternating(4)]:
        n = g.order
        assert all(g.mul[0][x] == x and g.mul[x][0] == x for x in range(n))
        assert all(g.mul[x][g.inv[x]] == 0 for x in range(n))
        for a, b, c in itertools.product(range(n), repeat=3):
            assert g.mul[g.mul[a][b]][c] == g.mul[a][g.mul[b][c]]


def test_from_table_relocates_identity():
    # Z3 with identity at index 2
    table = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    g = groups.from_table(table, name="shifted")
    assert g.mul[0] == (0, 1, 2)
    assert g.order == 3


def test_from_table_rejects_bad_tables():
    with pytest.raises(TableNotLatin):
        groups.from_table([[0, 0], [1, 1]])
    with pytest.raises(NoIdentity):
        # row 1 is an identity row but column 1 is not
        groups.from_table([[1, 2, 0], [0, 1, 2], [2, 0, 1]])
    with pytest.raises(NotAssociative):
        groups.from_table([
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ])


def test_loop5_frozen_values():
    l5 = groups.loop5()
    assert not l5.is_associative
    assert l5.inv == (0, 1, 2, 3, 4)  # every element is its own inverse
    # the associativity failure seen by direct inspection of the table:
    # (a*b)*d = 3*4 = 1 = a, while a*(b*d) = 1*3 = 4 = d
    a, b, d = 1, 2, 4
    assert l5.mul[l5.mul[a][b]][d] != l5.mul[a][l5.mul[b][d]]


def test_symmetric_labels_and_order():
    s3 = groups.symmetric(3)
    assert s3.order == 6
    assert s3.labels == ('e', '(2 3)', '(1 2)', '(1 2 3)', '(1 3 2)', '(1 3)')


def test_quotient_matches_order_arithmetic():
    for g, expect in [(groups.cyclic(6), [1, 2, 3, 6]),
                      (groups.symmetric(3), [1, 3, 6]),
                      (groups.alternating(4), [1, 4, 12])]:
        normals = groups.normal_subgroups(g)
        assert sorted(len(n.members) for n in normals) == expect
        for n in normals:
            quot, reps, proj = groups.quotient(g, n)
            assert quot.order * len(n.members) == g.order
            # projection is a homomorphism
            for a in range(g.order):
                for b in range(g.order):
                    assert proj.map[g.mul[a][b]] == \
                        quot.mul[proj.map[a]][proj.map[b]]


def test_p_group_prime():
    assert groups.p_group_prime(groups.cyclic(8)) == 2
    assert groups.p_group_prime(groups.cyclic(9)) == 3
    assert groups.p_group_prime(groups.cyclic(6)) is None
    assert groups.p_group_prime(groups.trivial()) == groups.TRIVIAL_P


def test_involution_generators():
    assert groups.involution_generators(groups.symmetric(3)) is not None
    assert groups.involution_generators(groups.cyclic(3)) is None
    assert groups.involution_generators(groups.cyclic(2)) == (1,)
    klein = groups.direct_product(groups.cyclic(2), groups.cyclic(2))
    gens = groups.involution_generators(klein)
    assert gens is not None and len(gens) == 2


def test_require_abelian():
    groups.require_abelian(groups.cyclic(12))
    with pytest.raises(NotAbelian):
        groups.require_abelian(groups.symmetric(3))


def test_direct_product_structure():
    g = groups.direct_product(groups.cyclic(2), groups.cyclic(3))
    assert g.order == 6
    assert g.element_order(4) in (1, 2, 3, 6)
    # Z2 x Z3 is cyclic of order 6: some element has order 6
    assert any(g.element_order(x) == 6 for x in range(6))


def test_subgroup_generated_and_closure():
    s4 = groups.symmetric(4)
    # transpositions generate the whole group
    transpositions = [x for x in range(24) if s4.element_order(x) == 2
                      and s4.label(x).count(' ') == 1]
    sub = groups.subgroup_generated(s4, transpositions[:2])
    assert len(sub.members) in (4, 6)  # two transpositions: S3 or Z2xZ2
    assert len(groups.closure(s4, transpositions)) == 24


def test_closure_needs_a_group():
    # right products alone do not close a loop
    with pytest.raises(NotAssociative):
        groups.closure(groups.loop5(), [1])


def test_generating_set_generates():
    for g in [groups.trivial(), groups.cyclic(12), groups.symmetric(4),
              groups.dihedral(16), _product(2, 2, 2, 2)]:
        gens = groups.generating_set(g)
        assert len(groups.closure(g, gens)) == g.order
        assert len(gens) <= max(1, g.order.bit_length() - 1)


# -- the subgroup lattice against the pairwise-product closure ---------------

def _reference_closure(g, gens):
    """Oracle: close under every product of a member and a new element,
    both ways, until nothing new appears."""
    elems = {0}
    frontier = [0]
    for x in gens:
        if x not in elems:
            elems.add(x)
            frontier.append(x)
    while frontier:
        new = []
        snapshot = list(elems)
        for a in snapshot:
            for b in frontier:
                for c in (g.mul[a][b], g.mul[b][a]):
                    if c not in elems:
                        elems.add(c)
                        new.append(c)
        frontier = new
    return frozenset(elems)


def _reference_all_subgroups(g):
    """Oracle: re-close base | {x} for every subgroup found and every x."""
    found = {frozenset({0})}
    queue = [frozenset({0})]
    while queue:
        base = queue.pop()
        for x in range(1, g.order):
            if x in base:
                continue
            ext = _reference_closure(g, set(base) | {x})
            if ext not in found:
                found.add(ext)
                queue.append(ext)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def _reference_is_normal(g, members):
    """Oracle: conjugate every member by every element of G."""
    return all(g.conjugate(x, s) in members
               for x in range(g.order) for s in members)


def _product(*factors):
    out = groups.cyclic(factors[0])
    for n in factors[1:]:
        out = groups.direct_product(out, groups.cyclic(n))
    return out


_S3 = groups.symmetric(3)
_LATTICE_GROUPS = {
    "S4": groups.symmetric(4),
    "S4xZ2": groups.direct_product(groups.symmetric(4), groups.cyclic(2)),
    "S3xS3": groups.direct_product(_S3, _S3),
    "A4xZ3": groups.direct_product(groups.alternating(4), groups.cyclic(3)),
    "D16": groups.dihedral(16),
    "Z2xD8": groups.direct_product(groups.cyclic(2), groups.dihedral(8)),
    "Z2^4": _product(2, 2, 2, 2),
    "Z4xZ4": _product(4, 4),
}


@pytest.mark.parametrize("name", sorted(_LATTICE_GROUPS))
def test_lattice_matches_the_reference(name):
    g = _LATTICE_GROUPS[name]
    reference = _reference_all_subgroups(g)
    assert groups.all_subgroups(g) == reference
    normals = [m for m in reference if _reference_is_normal(g, m)]
    assert [s.members for s in groups.normal_subgroups(g)] == \
        [tuple(sorted(m)) for m in normals]


def _relabelled(g, seed):
    """G with its elements other than the identity renumbered at random,
    so that ``generating_set`` picks other generators."""
    old = list(range(1, g.order))
    random.Random(seed).shuffle(old)
    old = [0] + old  # new element i is old[i]
    new = {x: i for i, x in enumerate(old)}
    return groups.from_table([[new[g.mul[a][b]] for b in old] for a in old],
                             name=g.name)


@pytest.mark.parametrize("name", sorted(_LATTICE_GROUPS))
def test_p_quotient_kernel_is_the_least_elementary_abelian_kernel(name):
    # G′G^p is the intersection of the normal N with G/N elementary abelian
    # of exponent p (N = G included, so a p not dividing |G| gives G).  In
    # the relabelled A4 x Z3 the commutators and cubes of the generators
    # do not close to a normal subgroup, so the conjugates are needed
    for g in (_LATTICE_GROUPS[name], _relabelled(_LATTICE_GROUPS[name], 0)):
        for p in (2, 3, 5):
            kernel = frozenset(g.elements())
            for n in groups.normal_subgroups(g):
                quot, _reps, _proj = groups.quotient(g, n)
                if quot.is_abelian() and all(
                        quot.element_order(x) in (1, p)
                        for x in quot.elements()):
                    kernel &= frozenset(n.members)
            assert groups.p_quotient_kernel(g, p).members == \
                tuple(sorted(kernel)), p


@pytest.mark.parametrize("name", sorted(_LATTICE_GROUPS))
def test_center_commutes_with_every_element(name):
    # Z(G) from a generating set against every pair, in a relabelled copy
    # too
    for g in (_LATTICE_GROUPS[name], _relabelled(_LATTICE_GROUPS[name], 1)):
        assert groups.center(g).members == tuple(
            z for z in g.elements()
            if all(g.mul[z][x] == g.mul[x][z] for x in g.elements()))


@pytest.mark.parametrize("name", sorted(_LATTICE_GROUPS) + ["A5"])
def test_prime_order_subgroups_are_those_of_the_lattice(name):
    g = _LATTICE_GROUPS.get(name) or groups.alternating(5)
    assert groups.prime_order_subgroups(g) == [
        tuple(sorted(s)) for s in groups.all_subgroups(g)
        if groups.prime_factors(len(s)) == [len(s)]]


@pytest.mark.parametrize("g,subgroups,normal", [
    (groups.symmetric(4), 30, 4),
    (groups.alternating(4), 10, 3),
    (groups.dihedral(8), 10, 6),
    (groups.dihedral(12), 16, 7),
    (groups.dihedral(16), 19, 7),
    (groups.direct_product(_S3, _S3), 60, 10),
    (_product(2, 2, 2, 2), 67, 67),
    (groups.alternating(5), 59, 2),
])
def test_known_subgroup_counts(g, subgroups, normal):
    assert len(groups.all_subgroups(g)) == subgroups
    assert len(groups.normal_subgroups(g)) == normal


class _CountingRow(tuple):
    reads = 0

    def __getitem__(self, i):
        _CountingRow.reads += 1
        return tuple.__getitem__(self, i)


@pytest.mark.parametrize("g,bound", [
    # the pairwise-product closure read the table 271,304 times on S4 and
    # 1,468,408 times on S3 x S3, re-closing base | {x} for every x
    (groups.symmetric(4), 8_000),
    (groups.direct_product(_S3, _S3), 25_000),
])
def test_lattice_reads_few_table_entries(g, bound):
    counting = dataclasses.replace(
        g, mul=tuple(_CountingRow(row) for row in g.mul))
    _CountingRow.reads = 0
    assert groups.all_subgroups(counting) == groups.all_subgroups(g)
    assert _CountingRow.reads <= bound


_CHAIN_P_GROUPS = [
    "Z2", "Z3", "Z4", "Z5", "Z7", "Z8", "Z9", "Z16", "Z25", "Z27", "Z32",
    "Z49", "Z64", "Z81", "Z125", "Z128", "Z243", "Z256",
    "D4", "D8", "D16", "D32", "D64", "D128", "D256",
    "Z2 x Z2", "Z2 x Z4", "Z4 x Z4", "Z2 x Z2 x Z2", "Z3 x Z3", "Z3 x Z9",
    "Z5 x Z5", "Z2 x D8", "Z4 x D8", "D8 x D8", "Z2 x Z2 x Z2 x Z2",
    "Z3 x Z3 x Z3", "Z2 x Z2 x D8", "Z2 x D16", "Z8 x Z8", "D8 x D32",
    "Z4 x Z16", "Z2 x Z2 x Z2 x Z2 x Z2 x Z2", "D16 x D16",
    "Z2 x Z2 x Z2 x Z2 x Z2 x Z2 x Z2 x Z2",
    "Z3 x Z3 x Z3 x Z3 x Z3",
]


@pytest.mark.parametrize("name", _CHAIN_P_GROUPS)
def test_subgroup_chain_of_a_p_group(name):
    # every level of a p-group has index p; up to |G| = 64 the levels read
    # from the top down are the index-p normal subgroups with the least
    # members, worked out from the subgroup lattice of each level
    g = parse_puzzle(f"{name} wr 1").g_group
    p = groups.p_group_prime(g)
    chain = groups.subgroup_chain(g.mul, range(g.order))
    below = [0]
    for cosets in chain:
        assert sorted(cosets[0]) == sorted(below)
        assert len(cosets) == p
        assert all(len(coset) == len(below) for coset in cosets)
        below = [x for coset in cosets for x in coset]
    assert sorted(below) == list(g.elements())
    if g.order > 64:
        return
    sub, into_g = g, list(g.elements())  # into_g[i]: sub's element i in G
    for cosets in reversed(chain):
        least = min(s.members for s in groups.normal_subgroups(sub)
                    if len(s.members) * p == sub.order)
        assert sorted(cosets[0]) == [into_g[y] for y in least]
        sub = groups.subgroup_as_group(groups.Subgroup(parent=sub,
                                                       members=least))
        into_g = [into_g[y] for y in least]


@pytest.mark.parametrize("name", ["S4", "A5", "S5", "A6", "D12", "Z3 x S3"])
def test_subgroup_chain_takes_the_smallest_extension(name):
    # each level is the smallest <H_(i-1), g>, the first g on ties
    g = parse_puzzle(f"{name} wr 1").g_group
    below = [0]
    for cosets in groups.subgroup_chain(g.mul, range(g.order)):
        extensions = [groups.closure(g, below + [x])
                      for x in g.elements() if x not in below]
        smallest = min(extensions, key=len)  # the first of the least order
        below = sorted(x for coset in cosets for x in coset)
        assert below == sorted(smallest)
