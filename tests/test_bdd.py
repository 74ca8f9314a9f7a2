"""Unit and property tests for the BDD store.

Every semantic check is made against an explicit-set oracle: pattern sets
are mirrored as Python sets of bit tuples, and the corresponding set
operations (union, don't-care expansion on one bit, the Hamming ball) are
computed by brute force, independently of the BDD code under test.  The
union is the store's or-recursion, the merge inside ``exists``; it builds
the reference sets that ``encode_set`` and the query's Hamming ball are
compared with.
"""

import ast
import copy
import json
import random
import sys
import warnings
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from actmon import bdd, monitor
from actmon.errors import FormatVersionError, FrozenStoreError, SchemaError
from actmon.patterns import identity_selection
from actmon.traces import TraceRecord


def hamming(p, q):
    """Number of differing bit positions between equal-width patterns."""
    return sum(a != b for a, b in zip(p, q))


def tup(text):
    """'001' -> (0, 0, 1); bit i of the tuple is BDD variable i."""
    return tuple(int(ch) for ch in text)


def all_patterns(n):
    return [tuple((i >> (n - 1 - b)) & 1 for b in range(n)) for i in range(2 ** n)]


def exists_oracle(patterns, j):
    """Brute-force don't-care expansion of bit j over an explicit set."""
    out = set()
    for p in patterns:
        out.add(p[:j] + (0,) + p[j + 1:])
        out.add(p[:j] + (1,) + p[j + 1:])
    return out


def table(store, roots):
    """The table as from_dict reads it: the parsed text of to_json."""
    return json.loads(store.to_json(roots))


def reference_to_dict(store, roots):
    """The canonical table under ``roots``, a root id per int class, as
    the parsed object of ``to_json``'s text, by a recursive visit: only
    the nodes the roots reach, children before parents, low subtree first,
    roots in ascending class order, ids dense from 2 as each node is first
    finished.  Equal sets give equal forms whatever order a store made its
    nodes in; a table that one ``_encode`` call fills from empty is listed
    in this order by ``to_json`` itself."""
    order = sorted(roots)
    relabel = {bdd.FALSE: 0, bdd.TRUE: 1}
    nodes = []

    def visit(node):
        if node in relabel:
            return
        visit(store._low[node])
        visit(store._high[node])
        relabel[node] = len(relabel)
        nodes.append({"id": relabel[node], "var": store._var[node],
                      "low": relabel[store._low[node]],
                      "high": relabel[store._high[node]]})

    for key in order:
        visit(roots[key])
    return {"version": bdd.SERIAL_VERSION, "n_vars": store.n_vars,
            "nodes": nodes, "false_id": bdd.FALSE, "true_id": bdd.TRUE,
            "roots": {str(key): relabel[roots[key]] for key in order}}


def reload(store, roots):
    """A new store and its roots, keyed by int class, read back from the
    table's JSON text."""
    loaded, roots = bdd.from_dict(table(store, roots))
    return loaded, {int(key): node for key, node in roots.items()}


def members(store, node):
    """The patterns of the set ``node`` in ascending (lexicographic) order,
    by a membership test of every ``n_vars``-bit pattern."""
    return [p for p in product((0, 1), repeat=store.n_vars)
            if store.contains(node, p)]


def union(store, a, b):
    """Set union of two roots of ``store``, by its or-recursion, with a
    memo seeded by the store's index as ``exists`` seeds its own."""
    return store._or(store._check_node(a), store._check_node(b),
                     store._index())


def recursive_encode(store, patterns):
    """Reference ``encode_set``: one recursive call per bit of every sorted
    distinct row, split by the first bit where the rows differ; the root.
    One node-creating call: the store is indexed once, before the first."""
    rows = sorted(set(patterns))
    unique = store._index()

    def build(lo, hi, var):
        if lo == hi:
            return bdd.FALSE
        if var == store.n_vars:
            return bdd.TRUE
        mid = next((i for i in range(lo, hi) if rows[i][var]), hi)
        return store._mk(var, build(lo, mid, var + 1),
                         build(mid, hi, var + 1), unique)

    return build(0, len(rows), 0)


def build_set(store, patterns):
    """Reference construction: a union fold of singleton sets."""
    acc = store.encode_set([])
    for p in patterns:
        acc = union(store, acc, store.encode_set([p]))
    return acc


def union_all(store, refs):
    """Union of arbitrarily many sets; empty input gives the empty set."""
    acc = store.encode_set([])
    for ref in refs:
        acc = union(store, acc, ref)
    return acc


def enlarge_reference(store, zone):
    """Reference distance-1 step: the zone unioned with its don't-care
    expansion on each variable in turn (K exists and K union calls)."""
    grown = zone
    for var in range(store.n_vars):
        grown = union(store, grown, store.exists(var, zone))
    return grown


def query_ball(store, zone, gamma):
    """The set a monitor query at radius ``gamma`` accepts: every pattern
    whose distance to ``zone`` is at most ``gamma``."""
    return store.encode_set(p for p in all_patterns(store.n_vars)
                            if store.distance(zone, p, gamma + 1) <= gamma)


def random_patterns(rng, n, count):
    return {tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(count)}


class TestEmptySet:
    def test_enumerates_to_nothing(self):
        store = bdd.BddStore(5)
        assert members(store, store.encode_set([])) == []

    def test_contains_nothing(self):
        store = bdd.BddStore(5)
        empty = store.encode_set([])
        rng = random.Random(0)
        for _ in range(20):
            p = tuple(rng.randint(0, 1) for _ in range(5))
            assert not store.contains(empty, p)

    def test_sat_count_zero(self):
        store = bdd.BddStore(5)
        assert store.sat_count(store.encode_set([])) == 0


class TestEncodeCube:
    def test_singleton_001(self):
        store = bdd.BddStore(3)
        cube = store.encode_set([tup("001")])
        assert members(store, cube) == [tup("001")]

    def test_sat_count_one(self):
        store = bdd.BddStore(3)
        assert store.sat_count(store.encode_set([tup("001")])) == 1

    def test_non_member(self):
        store = bdd.BddStore(3)
        cube = store.encode_set([tup("001")])
        assert not store.contains(cube, tup("101"))

    def test_one_node_per_variable(self):
        store = bdd.BddStore(7)
        cube = store.encode_set([tup("0110101")])
        assert store.node_count(cube) == 7

    def test_width_mismatch(self):
        store = bdd.BddStore(3)
        with pytest.raises(ValueError, match="width"):
            store.encode_set([tup("0011")])


class TestEncodeSet:
    """encode_set against the union fold of singletons and the explicit set."""

    def test_equals_union_of_singletons(self):
        rng = random.Random(2718)
        for n in list(range(1, 13)) + [bdd.MAX_VARS]:
            for trial in range(10 if n <= 12 else 2):
                distinct = list(random_patterns(rng, n, rng.randint(0, 30)))
                # duplicates, in arbitrary order
                with_dups = distinct + rng.choices(distinct, k=len(distinct))
                rng.shuffle(with_dups)
                store = bdd.BddStore(n)
                assert store.encode_set(with_dups) \
                    == build_set(store, with_dups)

    def test_enumerates_sorted_distinct_patterns(self):
        rng = random.Random(1618)
        for trial in range(40):
            n = rng.randint(1, 10)
            patterns = [tuple(rng.randint(0, 1) for _ in range(n))
                        for _ in range(rng.randint(0, 30))]
            store = bdd.BddStore(n)
            assert members(store, store.encode_set(patterns)) \
                == sorted(set(patterns))

    def test_table_equals_the_recursive_build(self):
        """A lone row's chain is made in the order the recursion made it."""
        rng = random.Random(3141)
        for n in [1, 2, 5, 12, 64, bdd.MAX_VARS]:
            for trial in range(8):
                patterns = random_patterns(rng, n, rng.randint(0, 40))
                store, ref = bdd.BddStore(n), bdd.BddStore(n)
                got = store.encode_set(patterns)
                assert got == recursive_encode(ref, patterns)
                assert (store._var, store._low, store._high) \
                    == (ref._var, ref._low, ref._high)

    def test_empty_input_is_false_terminal(self):
        store = bdd.BddStore(4)
        assert store.encode_set([]) == bdd.FALSE
        assert store.encode_set(iter(())) == bdd.FALSE

    @pytest.mark.parametrize("patterns", [
        [tup("0011"), tup("001")],
        [tup("0011"), tup("00110")],
        [tup("0012")],
        [(0, 1, -1, 0)],
    ])
    def test_malformed_pattern_rejected(self, patterns):
        store = bdd.BddStore(4)
        with pytest.raises(ValueError):
            store.encode_set(patterns)


def encode_groups(store, sets, labels=None, rng=None):
    """``store._encode`` of ``sets``, one group each, labeled 0, 1, ... or
    by ``labels``; ``rng`` shuffles the rows across the groups."""
    labels = range(len(sets)) if labels is None else labels
    rows = [(label, p) for label, patterns in zip(labels, sets)
            for p in patterns]
    if rng is not None:
        rng.shuffle(rows)
    bits = np.array([p for _, p in rows], dtype=np.int8)
    return store._encode(bits.reshape(len(rows), store.n_vars),
                         np.array([label for label, _ in rows], dtype=np.intp))


def recursive_groups(store, sets, labels=None):
    """The reference: ``recursive_encode`` of each nonempty set in label
    order, into one store; the roots by label."""
    labels = range(len(sets)) if labels is None else labels
    return {label: recursive_encode(store, patterns)
            for label, patterns in sorted(zip(labels, sets)) if patterns}


def random_groups(rng, n, count):
    """``count`` sets of n-bit patterns: some empty, some with duplicate
    rows, some sharing sub-diagrams with an earlier set (the same set,
    a subset, or its patterns with the first bit flipped)."""
    sets = []
    for _ in range(count):
        kind = rng.choice(["random", "random", "empty", "dups", "shared"])
        if kind == "empty":
            sets.append([])
        elif kind == "shared" and sets:
            base = list(rng.choice(sets))
            sets.append(rng.choice([
                base, base[:len(base) // 2],
                [(1 - p[0],) + p[1:] for p in base]]))
        else:
            patterns = list(random_patterns(rng, n, rng.randint(1, 30)))
            if kind == "dups":
                patterns += rng.choices(patterns, k=len(patterns))
            sets.append(patterns)
    return sets


class TestLevelEncode:
    """The level-wise ``_encode`` against ``recursive_encode``: one call
    for many groups makes the raw table and the roots that encoding each
    group's set in label order, one recursion after another, makes."""

    WIDTHS = list(range(1, 13)) + [64, bdd.MAX_VARS]

    @staticmethod
    def assert_same_table(store, ref):
        assert (store._var, store._low, store._high) \
            == (ref._var, ref._low, ref._high)

    def test_groups_equal_the_recursion(self):
        rng = random.Random(4242)
        for n in self.WIDTHS:
            for trial in range(6 if n <= 12 else 2):
                sets = random_groups(rng, n, rng.randint(1, 5))
                labels = sorted(rng.sample(range(20), len(sets)))
                rng.shuffle(labels)  # the table follows the label order
                store, ref = bdd.BddStore(n), bdd.BddStore(n)
                assert encode_groups(store, sets, labels, rng) \
                    == recursive_groups(ref, sets, labels)
                self.assert_same_table(store, ref)

    def test_no_rows_and_groups_without_rows(self):
        store = bdd.BddStore(5)
        assert encode_groups(store, []) == {}
        assert encode_groups(store, [[], []]) == {}
        assert len(store) == 2
        ref = bdd.BddStore(5)
        sets = [[], [tup("01101")], [], [tup("01101"), tup("11111")]]
        assert encode_groups(store, sets) == recursive_groups(ref, sets)
        self.assert_same_table(store, ref)

    def test_into_a_store_that_holds_nodes(self):
        """Earlier nodes, made by a union or by an encode, are
        hash-consed with, never made again."""
        rng = random.Random(5151)
        for n in self.WIDTHS:
            for trial in range(4 if n <= 12 else 1):
                earlier = random_groups(rng, n, 3)
                store, ref = bdd.BddStore(n), bdd.BddStore(n)
                old = [store.encode_set(p) for p in earlier]
                old_ref = [recursive_encode(ref, p) for p in earlier]
                assert union(store, old[0], old[1]) \
                    == union(ref, old_ref[0], old_ref[1])
                store.encode_set(earlier[2])
                recursive_encode(ref, earlier[2])
                sets = random_groups(rng, n, 3) + earlier[:2]
                rng.shuffle(sets)
                assert encode_groups(store, sets, rng=rng) \
                    == recursive_groups(ref, sets)
                self.assert_same_table(store, ref)

    def test_same_sets_twice_add_no_node(self):
        rng = random.Random(6262)
        for n in self.WIDTHS:
            sets = random_groups(rng, n, 4)
            store = bdd.BddStore(n)
            first = encode_groups(store, sets)
            size = len(store)
            assert encode_groups(store, sets, rng=rng) == first
            assert len(store) == size
            for patterns in sets:
                assert store.encode_set(patterns) \
                    == (first[sets.index(patterns)] if patterns else bdd.FALSE)
                assert len(store) == size


def assert_reduced(store):
    """No node has equal children and no two nodes share a triple."""
    triples = list(zip(store._var, store._low, store._high))[2:]
    assert all(low != high for _, low, high in triples)
    assert len(set(triples)) == len(triples)


class TestLazyUniqueTable:
    """No store keeps a unique table: each node-creating call indexes the
    table when it needs to and drops the index on return, and the table
    stays canonical from one call to the next."""

    def test_encode_and_exists_keep_the_table_reduced(self):
        rng = random.Random(7373)
        store = bdd.BddStore(8)
        zone = store.encode_set(random_patterns(rng, 8, 20))
        assert len(store) > 2
        assert_reduced(store)
        for var in range(8):
            grown = store.exists(var, zone)
            assert_reduced(store)
            size = len(store)
            assert store.exists(var, zone) == grown and len(store) == size
            assert_reduced(store)

    def test_exists_and_union_match_a_recursive_store(self):
        rng = random.Random(8484)
        for n in (3, 6, 9, 12):
            for trial in range(5):
                sets = [random_patterns(rng, n, rng.randint(0, 30))
                        for _ in range(3)]
                store, ref = bdd.BddStore(n), bdd.BddStore(n)
                got = [store.encode_set(p) for p in sets]
                want = [recursive_encode(ref, p) for p in sets]
                for var in rng.sample(range(n), min(n, 3)):
                    assert store.exists(var, got[0]) \
                        == ref.exists(var, want[0])
                    assert len(store) == len(ref)
                assert union(store, got[1], got[2]) \
                    == union(ref, want[1], want[2])
                assert len(store) == len(ref)
                assert store.encode_set(sets[1]) == got[1]
                assert (store._var, store._low, store._high) \
                    == (ref._var, ref._low, ref._high)

    def test_a_loaded_store_stays_canonical(self):
        """An unfrozen loaded table takes new nodes as the store that wrote
        it would: re-encoding a zone gives its loaded root, and ``exists``
        gives a fresh store's set, without a copy of a loaded node."""
        rng = random.Random(6060)
        for n in (3, 8, 12):
            sets = {c: random_patterns(rng, n, rng.randint(1, 30))
                    for c in range(3)}
            store = bdd.BddStore(n)
            roots = {c: store.encode_set(p) for c, p in sets.items()}
            loaded, loaded_roots = reload(store, roots)
            assert not loaded.frozen
            for c, patterns in sets.items():
                assert loaded.encode_set(patterns) == loaded_roots[c]
                assert len(loaded) == len(store)
            for c, patterns in sets.items():
                var = rng.randrange(n)
                fresh = bdd.BddStore(n)
                want = fresh.exists(var, fresh.encode_set(patterns))
                got = loaded.exists(var, loaded_roots[c])
                assert reference_to_dict(loaded, {0: got}) \
                    == reference_to_dict(fresh, {0: want})
                assert_reduced(loaded)

    def test_round_trip_of_an_unregistered_table(self):
        rng = random.Random(9595)
        store = bdd.BddStore(10)
        roots = {c: store.encode_set(random_patterns(rng, 10, 30))
                 for c in range(3)}
        loaded, loaded_roots = reload(store, roots)
        assert len(loaded) == len(store)
        assert loaded.to_json(loaded_roots) == store.to_json(roots)


class TestUnion:
    """The or-recursion that ``exists`` merges cofactors with."""

    def test_identity_element(self):
        store = bdd.BddStore(3)
        x = store.encode_set([tup("010")])
        assert union(store, store.encode_set([]), x) == x

    def test_two_cubes(self):
        store = bdd.BddStore(3)
        merged = build_set(store, [tup("001"), tup("101")])
        assert members(store, merged) == [tup("001"), tup("101")]

    def test_idempotent_same_node(self):
        store = bdd.BddStore(4)
        x = build_set(store, [tup("0011"), tup("1100")])
        assert union(store, x, x) == x

    def test_commutative_same_node(self):
        store = bdd.BddStore(4)
        a = build_set(store, [tup("0011"), tup("0111")])
        b = build_set(store, [tup("1100")])
        assert union(store, a, b) == union(store, b, a)


class TestExists:
    def test_dont_care_on_first_bit(self):
        store = bdd.BddStore(3)
        zone = store.encode_set([tup("001")])
        grown = store.exists(0, zone)
        assert members(store, grown) == [tup("001"), tup("101")]

    def test_on_empty_set(self):
        store = bdd.BddStore(3)
        assert store.exists(1, store.encode_set([])) == store.encode_set([])

    def test_quantifying_all_bits_of_singleton(self):
        # oracle: repeated don't-care expansion of every bit reaches all
        # 2^3 patterns
        expected = set(tup("001"))
        expected = {tup("001")}
        for j in (0, 1, 2):
            expected = exists_oracle(expected, j)
        assert expected == set(all_patterns(3))

        store = bdd.BddStore(3)
        ref = store.encode_set([tup("001")])
        for j in (0, 1, 2):
            ref = store.exists(j, ref)
        assert store.sat_count(ref) == 8

    def test_index_out_of_range(self):
        store = bdd.BddStore(3)
        with pytest.raises(ValueError, match="out of range"):
            store.exists(3, store.encode_set([]))

    @pytest.mark.parametrize("var", [True, 1.0, 1.5],
                             ids=["bool", "float", "fraction"])
    def test_inexact_index_rejected(self, var):
        # True and 1.0 would read as variable 1; 1.5 names no variable
        store = bdd.BddStore(3)
        zone = store.encode_set([tup("001")])
        with pytest.raises(ValueError,
                           match="^variable index .* is not an integer$"):
            store.exists(var, zone)

    def test_numpy_index_accepted(self):
        store = bdd.BddStore(3)
        zone = store.encode_set([tup("001")])
        assert store.exists(np.int64(1), zone) == store.exists(1, zone)


class TestGrow:
    """The zone grown to radius gamma as a query reads it, by distance,
    against the K-fold exists/union reference applied gamma times."""

    def test_equals_reference_loop(self):
        rng = random.Random(1986)
        for n in range(1, 15):
            for trial in range(6):
                distinct = list(random_patterns(rng, n, rng.randint(0, 30)))
                # duplicates, in arbitrary order
                with_dups = distinct + rng.choices(distinct, k=len(distinct))
                rng.shuffle(with_dups)
                # separate stores: the canonical tables must match, not
                # only the set each root denotes
                fast, slow = bdd.BddStore(n), bdd.BddStore(n)
                a, b = fast.encode_set(with_dups), slow.encode_set(with_dups)
                gamma = rng.randint(1, 3)
                for _ in range(gamma):
                    b = enlarge_reference(slow, b)
                grown = query_ball(fast, a, gamma)
                assert reference_to_dict(fast, {0: grown}) \
                    == reference_to_dict(slow, {0: b})

    def test_empty_set_stays_empty(self):
        store = bdd.BddStore(5)
        for gamma in range(1, 4):
            assert query_ball(store, store.encode_set([]), gamma) \
                == bdd.FALSE

    def test_full_set_is_fixpoint(self):
        store = bdd.BddStore(5)
        full = store.encode_set(all_patterns(5))
        assert full == bdd.TRUE
        assert query_ball(store, full, 1) == full


class TestContains:
    def test_member(self):
        store = bdd.BddStore(3)
        zone = store.encode_set([tup("001")])
        assert store.contains(zone, tup("001"))

    def test_non_member(self):
        store = bdd.BddStore(3)
        zone = store.encode_set([tup("001")])
        assert not store.contains(zone, tup("011"))

    def test_hamming_one_neighbour_after_expansion(self):
        store = bdd.BddStore(3)
        zone = store.encode_set([tup("001")])
        grown = union_all(
            store, [store.exists(j, zone) for j in range(3)])
        assert store.contains(grown, tup("011"))

    def test_width_mismatch(self):
        store = bdd.BddStore(3)
        with pytest.raises(ValueError, match="width"):
            store.contains(store.encode_set([]), tup("01"))

    def test_walk_agrees_with_cost_and_distance(self):
        rng = random.Random(577)
        for trial in range(40):
            n = rng.randint(1, 12)
            members = random_patterns(rng, n, rng.randint(0, 30))
            store = bdd.BddStore(n)
            zone = store.encode_set(members)
            for bits in list(random_patterns(rng, n, 20)) + list(members)[:5]:
                found = store.contains(zone, bits)
                assert found == (bits in members)
                assert found == store.contains_with_cost(zone, bits)[0] \
                    == (store.distance(zone, bits, 1) == 0)


class TestDistance:
    """distance against a brute-force minimum of hamming over the members."""

    def test_equals_brute_force_minimum(self):
        rng = random.Random(1729)
        for n in range(1, 13):
            for trial in range(6):
                distinct = list(random_patterns(rng, n, rng.randint(0, 30)))
                with_dups = distinct + rng.choices(distinct, k=len(distinct))
                rng.shuffle(with_dups)
                store = bdd.BddStore(n)
                if trial % 2:  # a Hamming ball skips variables
                    with_dups = [p for p in all_patterns(n) if any(
                        hamming(p, q) <= 1 for q in distinct)]
                zone = store.encode_set(with_dups)
                for bits in list(random_patterns(rng, n, 20)) + distinct[:5]:
                    nearest = min((hamming(bits, q) for q in with_dups),
                                  default=float("inf"))
                    for cap in range(1, 5):
                        assert store.distance(zone, bits, cap) \
                            == min(nearest, cap)

    def test_empty_set_gives_cap(self):
        store = bdd.BddStore(6)
        for cap in range(1, 5):
            assert store.distance(store.encode_set([]), (1,) * 6, cap) == cap

    def test_cap_one_is_membership(self):
        rng = random.Random(42)
        store = bdd.BddStore(8)
        zone = store.encode_set(random_patterns(rng, 8, 25))
        for bits in all_patterns(8):
            assert (store.distance(zone, bits, 1) == 0) \
                == store.contains(zone, bits)

    def test_terminals(self):
        store = bdd.BddStore(4)
        true = store.encode_set(all_patterns(4))
        false = store.encode_set([])
        assert true == bdd.TRUE and false == bdd.FALSE
        assert store.distance(true, tup("1010"), 3) == 0
        assert store.distance(false, tup("1010"), 3) == 3

    @pytest.mark.parametrize("cap", [0, -1, -5])
    def test_cap_below_one_rejected(self, cap):
        # a cap of 0 would read as membership, a negative one as a distance
        store = bdd.BddStore(3)
        zone = store.encode_set([tup("001")])
        with pytest.raises(ValueError, match="cap must be >= 1"):
            store.distance(zone, tup("110"), cap)

    @pytest.mark.parametrize("cap", [True, 2.0, 2.5],
                             ids=["bool", "float", "fraction"])
    def test_inexact_cap_rejected(self, cap):
        # True would read as membership, and the empty set gives the cap
        store = bdd.BddStore(3)
        for zone in (store.encode_set([]), store.encode_set([tup("001")])):
            with pytest.raises(ValueError,
                               match="^distance cap .* is not an integer$"):
                store.distance(zone, tup("110"), cap)

    def test_numpy_cap_accepted(self):
        store = bdd.BddStore(3)
        for zone in (store.encode_set([]), store.encode_set([tup("001")])):
            for cap in (1, 2, 3, 4):
                got = store.distance(zone, tup("110"), np.int64(cap))
                assert type(got) is int
                assert got == store.distance(zone, tup("110"), cap)

    @pytest.mark.parametrize("bits", [tup("01"), tup("0111"), (0, 2, 1)])
    def test_malformed_pattern_rejected(self, bits):
        store = bdd.BddStore(3)
        with pytest.raises(ValueError):
            store.distance(store.encode_set([tup("001")]), bits, 2)

    def test_frozen_store_at_max_vars(self):
        n = bdd.MAX_VARS
        store = bdd.BddStore(n)
        zone = store.encode_set([(0,) * n, (1,) * n])
        store.freeze()
        for ones in (0, 1, 3, 5, n - 2, n):
            bits = (1,) * ones + (0,) * (n - ones)
            assert store.distance(zone, bits, 5) == min(ones, n - ones, 5)


class TestPatternCheck:
    """encode_set, contains and distance share one check of the bits."""

    OPS = {
        "encode_set": lambda store, zone, bits: store.encode_set([bits]),
        "contains": lambda store, zone, bits: store.contains(zone, bits),
        "distance": lambda store, zone, bits: store.distance(zone, bits, 2),
    }

    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize("bits", [
        (0, [1], 1), (0, 2, 1), (0, 0.5, 1), (0, float("nan"), 1),
    ], ids=["unhashable", "two", "half", "nan"])
    def test_non_bit_rejected(self, op, bits):
        store = bdd.BddStore(3)
        zone = store.encode_set([tup("011")])
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            self.OPS[op](store, zone, bits)

    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize("bits", [(0, True, 1), (0, 1.0, 1)],
                             ids=["bool", "float"])
    def test_values_equal_to_a_bit_accepted(self, op, bits):
        store = bdd.BddStore(3)
        zone = store.encode_set([tup("011")])
        assert self.OPS[op](store, zone, bits) \
            == self.OPS[op](store, zone, tup("011"))


class TestNodeCheck:
    """Every op that takes a set checks its node id the same way: an exact
    int naming a node of the store, else ``ValueError``."""

    OPS = {
        "contains": lambda store, node: store.contains(node, tup("011")),
        "contains_with_cost":
            lambda store, node: store.contains_with_cost(node, tup("011")),
        "distance-1": lambda store, node: store.distance(node, tup("011"), 1),
        "distance-3": lambda store, node: store.distance(node, tup("011"), 3),
        "sat_count": lambda store, node: store.sat_count(node),
        "node_count": lambda store, node: store.node_count(node),
        "exists": lambda store, node: store.exists(0, node),
        "to_dict": lambda store, node: table(store, {0: node}),
    }

    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize("node", [True, 2.0, np.int64(2), -1, "len"],
                             ids=["bool", "float", "numpy-int", "negative",
                                  "past-the-table"])
    def test_invalid_node_id_rejected(self, op, node):
        store = bdd.BddStore(3)
        zone = store.encode_set([tup("011"), tup("100")])
        assert 2 < len(store)  # the int 2 names a node; 2.0 is no int
        node = len(store) if isinstance(node, str) else node
        with pytest.raises(ValueError, match="^invalid node id "):
            self.OPS[op](store, node)
        self.OPS[op](store, zone)  # the same op on a valid id


class TestCores:
    """encode_set and distance check, then delegate to _encode and
    _distance, the unchecked cores that build and the sweep call on the
    output of the checked threshold pass."""

    def test_distance_equals_its_core(self):
        rng = random.Random(577)
        for n in (1, 3, 8, 12):
            store = bdd.BddStore(n)
            zones = [store.encode_set(random_patterns(rng, n, count))
                     for count in (0, 1, 6, 40)]
            for zone in zones:
                for bits in random_patterns(rng, n, 30):
                    for cap in range(1, 5):
                        assert store.distance(zone, bits, cap) \
                            == store._distance(zone, bits, cap)

    CHECKED = {
        "encode_set": lambda store, zone, bits: store.encode_set([bits]),
        "distance-1": lambda store, zone, bits: store.distance(zone, bits, 1),
        "distance-3": lambda store, zone, bits: store.distance(zone, bits, 3),
    }

    @pytest.mark.parametrize("op", sorted(CHECKED))
    @pytest.mark.parametrize("bits, message", [
        ((0, 2, 1), "pattern bits must be 0 or 1"),
        ((0, [1], 1), "pattern bits must be 0 or 1"),
        ((0, 1), "pattern width 2 != store width 3"),
        ((0, 1, 1, 0), "pattern width 4 != store width 3"),
    ], ids=["two", "unhashable", "narrow", "wide"])
    def test_public_ops_keep_their_checks(self, op, bits, message):
        store = bdd.BddStore(3)
        zone = store.encode_set([tup("011")])
        with pytest.raises(ValueError, match=f"^{message}$"):
            self.CHECKED[op](store, zone, bits)


SRC = Path(bdd.__file__).parent
# the store's unchecked cores
CORES = {"_encode", "_distance", "_distances"}
# the node table's columns
COLUMNS = {"_var", "_low", "_high"}


def attribute_reads(tree, names):
    """(function, name) for every attribute in ``names`` that ``tree``
    reads, named by its innermost enclosing function (None at module
    level)."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            func = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append((func, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def reads_outside_bdd(names):
    """(module, function, name) for every read of an attribute in
    ``names`` in the package's modules other than ``bdd.py``, sorted."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "bdd.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found += [(path.name, func, name)
                      for func, name in attribute_reads(tree, names)]
    return sorted(found)


def test_core_guard_sees_each_form():
    tree = ast.parse("x = s._encode(r)\n"
                     "def query(m):\n"
                     "    search = m.store._distance\n"
                     "    f = lambda: m.store._encode([])\n"
                     "    g = m.store._var[2]\n"
                     "    return search(1, (0,), 2)\n")
    assert attribute_reads(tree, CORES) == [
        (None, "_encode"), ("query", "_distance"), ("<lambda>", "_encode")]
    assert attribute_reads(tree, COLUMNS) == [("query", "_var")]


def test_cores_are_reached_only_by_build_and_sweep():
    """The cores skip the pattern checks, so only code that hands them
    the checked threshold pass's output may call them."""
    found = reads_outside_bdd(CORES)
    assert found == [("monitor.py", "_batch_distances", "_distances"),
                     ("monitor.py", "build", "_encode")], found


def test_only_bdd_reads_the_node_table():
    """The columns ``_var``, ``_low`` and ``_high`` are the store's own
    layout: every walk over them lives in ``bdd.py``."""
    assert reads_outside_bdd(COLUMNS) == []


class TestSatCount:
    def test_empty(self):
        store = bdd.BddStore(4)
        assert store.sat_count(store.encode_set([])) == 0

    def test_singleton(self):
        store = bdd.BddStore(4)
        assert store.sat_count(store.encode_set([tup("0011")])) == 1

    def test_hamming_one_ball_of_eight_bit_pattern(self):
        # oracle: brute force over all 8-bit patterns at distance <= 1
        seed = tup("10110010")
        ball = {p for p in all_patterns(8)
                if sum(a != b for a, b in zip(p, seed)) <= 1}
        assert len(ball) == 9  # 1 + C(8,1)

        store = bdd.BddStore(8)
        zone = store.encode_set([seed])
        grown = union_all(
            store, [store.exists(j, zone) for j in range(8)])
        assert store.sat_count(grown) == 9
        assert set(members(store, grown)) == ball

    def test_full_set(self):
        store = bdd.BddStore(6)
        ref = store.encode_set([tup("000000")])
        for j in range(6):
            ref = store.exists(j, ref)
        assert store.sat_count(ref) == 64


class TestEnumerate:
    def test_sorted_output(self):
        store = bdd.BddStore(3)
        merged = build_set(store, [tup("101"), tup("001")])
        assert members(store, merged) == [tup("001"), tup("101")]

    def test_ball_of_001(self):
        store = bdd.BddStore(3)
        zone = store.encode_set([tup("001")])
        grown = union_all(
            store, [store.exists(j, zone) for j in range(3)])
        assert members(store, grown) == [
            tup("000"), tup("001"), tup("011"), tup("101")]


class TestSetSemanticsOracle:
    """enumerate(build-by-or-of-cubes) must equal the explicit set, exactly."""

    def test_random_sets(self):
        rng = random.Random(20240917)
        for trial in range(120):
            n = rng.randint(4, 12)
            explicit = random_patterns(rng, n, rng.randint(0, 40))
            store = bdd.BddStore(n)
            ref = build_set(store, explicit)
            assert set(members(store, ref)) == explicit
            assert store.sat_count(ref) == len(explicit)

    def test_union_matches_set_union(self):
        rng = random.Random(7)
        for trial in range(60):
            n = rng.randint(4, 10)
            sa = random_patterns(rng, n, rng.randint(0, 25))
            sb = random_patterns(rng, n, rng.randint(0, 25))
            store = bdd.BddStore(n)
            merged = union(store, build_set(store, sa), build_set(store, sb))
            assert set(members(store, merged)) == sa | sb

    def test_exists_matches_oracle(self):
        rng = random.Random(13)
        for trial in range(60):
            n = rng.randint(4, 10)
            explicit = random_patterns(rng, n, rng.randint(1, 25))
            j = rng.randrange(n)
            store = bdd.BddStore(n)
            grown = store.exists(j, build_set(store, explicit))
            assert set(members(store, grown)) \
                == exists_oracle(explicit, j)

    def test_exists_is_monotone(self):
        rng = random.Random(99)
        for trial in range(40):
            n = rng.randint(4, 10)
            explicit = random_patterns(rng, n, rng.randint(1, 20))
            store = bdd.BddStore(n)
            ref = build_set(store, explicit)
            j = rng.randrange(n)
            grown = store.exists(j, ref)
            assert store.sat_count(ref) <= store.sat_count(grown)
            assert set(members(store, ref)) <= set(members(store, grown))

    def test_exists_order_exchange(self):
        rng = random.Random(5)
        for trial in range(30):
            n = rng.randint(4, 9)
            explicit = random_patterns(rng, n, rng.randint(1, 15))
            i, j = rng.sample(range(n), 2)
            store = bdd.BddStore(n)
            ref = build_set(store, explicit)
            assert store.exists(i, store.exists(j, ref)) \
                == store.exists(j, store.exists(i, ref))


class TestCanonicity:
    def test_insertion_order_irrelevant(self):
        rng = random.Random(31)
        for trial in range(30):
            n = rng.randint(4, 10)
            explicit = list(random_patterns(rng, n, rng.randint(1, 20)))
            shuffled = explicit[:]
            rng.shuffle(shuffled)
            store = bdd.BddStore(n)
            assert build_set(store, explicit) == build_set(store, shuffled)


class TestMembershipCost:
    def test_visit_bound(self):
        rng = random.Random(41)
        n = 16
        store = bdd.BddStore(n)
        zone = build_set(store, random_patterns(rng, n, 60))
        for _ in range(500):
            p = tuple(rng.randint(0, 1) for _ in range(n))
            _, visits = store.contains_with_cost(zone, p)
            assert visits <= n


class TestFreeze:
    def test_reads_allowed_after_freeze(self):
        store = bdd.BddStore(4)
        zone = build_set(store, [tup("0011"), tup("1100")])
        store.freeze()
        assert store.contains(zone, tup("0011"))
        assert store.sat_count(zone) == 2
        assert len(members(store, zone)) == 2

    @pytest.mark.parametrize("op", ["empty", "cube", "set", "exists"])
    def test_node_creation_rejected(self, op):
        store = bdd.BddStore(4)
        zone = build_set(store, [tup("0011")])
        store.freeze()
        with pytest.raises(FrozenStoreError):
            if op == "empty":
                store.encode_set([])
            elif op == "cube":
                store.encode_set([tup("1111")])
            elif op == "set":
                store.encode_set([tup("1111"), tup("0000"), tup("1111")])
            else:
                store.exists(0, zone)


class TestNoCache:
    """The store holds the node table only: every memo lives for one
    call, and hash-consing alone makes a repeated operation free of new
    nodes."""

    TABLE = {"n_vars", "frozen", "_var", "_low", "_high"}

    def test_state_is_the_node_table(self, tmp_path):
        """No operation leaves anything but the table behind, an index
        least of all: not an encode, an exists, a load, a monitor's build
        (an ``_encode``) or a monitor's load."""
        store = bdd.BddStore(6)
        zone = store.encode_set([tup("001100"), tup("110011")])
        assert set(vars(store)) == self.TABLE
        zone = store.exists(2, zone)
        assert set(vars(store)) == self.TABLE
        store.encode_set([tup("001100"), tup("111111")])
        assert set(vars(store)) == self.TABLE
        loaded, roots = reload(store, {0: zone})
        assert set(vars(loaded)) == self.TABLE
        before = copy.deepcopy(vars(store))
        store.freeze()
        assert vars(store) == {**before, "frozen": True}
        traces = [TraceRecord(f"s{i}", c, c, np.array(bits, dtype=float))
                  for i, (c, bits) in enumerate([
                      (0, (1, 0, 1)), (0, (1, 1, 0)), (1, (0, 0, 1))])]
        mon = monitor.build(traces, identity_selection(3), gamma=1)
        assert set(vars(mon.store)) == self.TABLE
        monitor.save_monitor(mon, tmp_path / "monitor.json")
        mon = monitor.load_monitor(tmp_path / "monitor.json")
        assert set(vars(mon.store)) == self.TABLE

    @pytest.mark.parametrize("op", ["union", "exists"])
    def test_repeat_adds_no_node(self, op):
        rng = random.Random(77)
        store = bdd.BddStore(9)
        a = store.encode_set(random_patterns(rng, 9, 25))
        b = store.encode_set(random_patterns(rng, 9, 25))
        run = {"union": lambda: union(store, a, b),
               "exists": lambda: store.exists(4, b)}[op]
        first = run()
        size = len(store)
        assert run() == first and len(store) == size
        if op == "union":
            assert union(store, b, a) == first and len(store) == size


class TestVariableCap:
    def test_cap_exceeded(self):
        with pytest.raises(ValueError, match="cap"):
            bdd.BddStore(300)
        with pytest.raises(ValueError, match="cap"):
            bdd.BddStore(bdd.MAX_VARS + 1)

    @pytest.mark.parametrize("n_vars", [0, -2, np.int64(0)],
                             ids=["zero", "negative", "numpy-zero"])
    def test_width_below_one(self, n_vars):
        with pytest.raises(ValueError,
                           match=f"^n_vars must be >= 1, got {n_vars}$"):
            bdd.BddStore(n_vars)

    def test_recursion_safe_at_max_vars(self):
        # each recursive call goes one variable deeper, so an operation needs
        # MAX_VARS frames plus a few; run them with only 16 frames to spare.
        # The deepest recursion: cubes that share every bit but the last
        n = bdd.MAX_VARS
        low = (0,) * n
        high = (0,) * (n - 1) + (1,)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + n + 16)
        try:
            store = bdd.BddStore(n)
            both = union(store, store.encode_set([low]),
                         store.encode_set([high]))
            assert store.exists(n - 1, both) == both
            assert store.sat_count(both) == 2
            # one, two and n - 1 bits away from the nearer cube
            probes = {(1,) + low[1:]: 1, (1, 1) + high[2:]: 2,
                      (1,) * n: 3}
            for bits, expected in probes.items():
                assert store.distance(both, bits, 3) == expected
            loaded, roots = reload(store, {0: both})
            for bits, expected in probes.items():
                assert loaded.distance(roots[0], bits, 3) == expected
        finally:
            sys.setrecursionlimit(old_limit)
        assert loaded.sat_count(roots[0]) == 2
        assert loaded.contains(roots[0], high)

    def test_counts_do_not_recurse_at_max_vars(self):
        """sat_count and node_count pass over the ids, so the patterns
        that a recursion would follow MAX_VARS calls deep, two that differ
        only in the last bit, are counted with 16 frames to spare."""
        n = bdd.MAX_VARS
        store = bdd.BddStore(n)
        zone = store.encode_set([(0,) * n, (0,) * (n - 1) + (1,)])
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 16)
        try:
            counts = store.sat_count(zone), store.node_count(zone)
        finally:
            sys.setrecursionlimit(old_limit)
        assert counts == (2, n - 1)

    def test_no_warning_at_max_vars(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bdd.BddStore(bdd.MAX_VARS)

    @pytest.mark.parametrize("n_vars", [True, 2.5, "3", np.int64(3)],
                             ids=["bool", "float", "string", "numpy"])
    def test_width_is_an_exact_integer(self, n_vars):
        # True would make a 1-bit store, 2.5 a float width
        if isinstance(n_vars, np.integer):
            store = bdd.BddStore(n_vars)
            assert type(store.n_vars) is int and store.n_vars == 3
            assert store.contains(store.encode_set([(1, 0, 1)]), (1, 0, 1))
        else:
            with pytest.raises(ValueError,
                               match="^n_vars .* is not an integer$"):
                bdd.BddStore(n_vars)


class TestSerialization:
    def _sample(self):
        store = bdd.BddStore(4)
        roots = {
            0: build_set(store, [tup("0011"), tup("0111")]),
            1: build_set(store, [tup("1100")]),
        }
        return store, roots

    def test_round_trip_preserves_sets(self):
        store, roots = self._sample()
        loaded, loaded_roots = reload(store, roots)
        for key in roots:
            assert members(loaded, loaded_roots[key]) \
                == members(store, roots[key])

    def test_byte_determinism(self):
        store, roots = self._sample()
        assert store.to_json(roots) == store.to_json(roots)

    def test_insertion_order_does_not_change_bytes(self):
        patterns = [tup("0011"), tup("0111"), tup("1110")]
        forms, blobs = [], []
        for order in (patterns, patterns[::-1]):
            # union folds make their nodes in insertion order: the
            # canonical tables match
            store = bdd.BddStore(4)
            forms.append(reference_to_dict(store,
                                           {0: build_set(store, order)}))
            # one encode_set into a fresh store: the written text matches
            store = bdd.BddStore(4)
            blobs.append(store.to_json({0: store.encode_set(order)}))
        assert forms[0] == forms[1]
        assert blobs[0] == blobs[1]

    def test_nodes_listed_children_first_with_dense_ids(self):
        store, roots = self._sample()
        data = table(store, roots)
        seen = {0, 1}
        for i, node in enumerate(data["nodes"]):
            assert node["id"] == i + 2
            assert node["low"] in seen and node["high"] in seen
            seen.add(node["id"])

    def test_version_mismatch(self):
        store, roots = self._sample()
        data = table(store, roots)
        data["version"] = 99
        with pytest.raises(FormatVersionError):
            bdd.from_dict(data)

    def test_corrupted_low_pointer(self):
        store, roots = self._sample()
        data = table(store, roots)
        data["nodes"][-1]["low"] = 999  # dangling id
        with pytest.raises(SchemaError, match="dangling"):
            bdd.from_dict(data)

    def test_ordering_violation(self):
        data = {
            "version": 1, "n_vars": 3,
            "nodes": [
                {"id": 2, "var": 2, "low": 0, "high": 1},
                {"id": 3, "var": 2, "low": 2, "high": 1},
            ],
            "false_id": 0, "true_id": 1, "roots": {"0": 3},
        }
        with pytest.raises(SchemaError, match="ordering"):
            bdd.from_dict(data)

    def test_equal_children_rejected(self):
        data = {
            "version": 1, "n_vars": 2,
            "nodes": [{"id": 2, "var": 0, "low": 1, "high": 1}],
            "false_id": 0, "true_id": 1, "roots": {"0": 2},
        }
        with pytest.raises(SchemaError, match="equal"):
            bdd.from_dict(data)

    def test_duplicate_triple_rejected(self):
        data = {
            "version": 1, "n_vars": 2,
            "nodes": [
                {"id": 2, "var": 1, "low": 0, "high": 1},
                {"id": 3, "var": 1, "low": 0, "high": 1},
            ],
            "false_id": 0, "true_id": 1, "roots": {"0": 3},
        }
        with pytest.raises(SchemaError, match=r"^node 3: children are equal "
                           r"or \(var, low, high\) is a duplicate$"):
            bdd.from_dict(data)

    @staticmethod
    def _scale_ids(data):
        """Every id, child and root times 10: a consistent relabeling that
        to_json never writes."""
        scale = {0: 0, 1: 1}
        scale.update((node["id"], node["id"] * 10) for node in data["nodes"])
        for node in data["nodes"]:
            node.update({k: scale[node[k]] for k in ("id", "low", "high")})
        data["roots"] = {k: scale[v] for k, v in data["roots"].items()}

    @pytest.mark.parametrize("corrupt", [
        _scale_ids,
        lambda d: d["nodes"].reverse(),
        lambda d: d["nodes"][-1].update(id=d["nodes"][-1]["id"] + 1),
    ], ids=["ids-times-ten", "parents-first", "gap"])
    def test_ids_must_be_positions(self, corrupt):
        store, roots = self._sample()
        data = table(store, roots)
        corrupt(data)
        with pytest.raises(SchemaError, match="is not its position"):
            bdd.from_dict(data)

    @pytest.mark.parametrize("corrupt", [
        lambda d: d.update(roots=list(d["roots"].values())),
        lambda d: d.update(nodes=7),
        lambda d: d["nodes"][0].update(id=[2]),
        lambda d: d["nodes"][-1].update(low=[0]),
        lambda d: d["nodes"][-1].update(high=1.0),
        lambda d: d["nodes"][-1].update(high=True),
        lambda d: d["roots"].update({"0": [2]}),
        lambda d: d.update(n_vars=bdd.MAX_VARS + 1),
        # JSON true and 1.0 equal 1, and false and 0.0 equal 0
        lambda d: d.update(version=True),
        lambda d: d.update(version=1.0),
        lambda d: d.update(false_id=False),
        lambda d: d.update(false_id=0.0),
        lambda d: d.update(true_id=True),
    ], ids=["roots-list", "nodes-int", "id-unhashable", "low-unhashable",
            "high-float", "high-bool", "root-unhashable", "n-vars-above-cap",
            "version-bool", "version-float", "false-id-bool",
            "false-id-float", "true-id-bool"])
    def test_malformed_table_is_schema_error(self, corrupt):
        store, roots = self._sample()
        data = table(store, roots)
        corrupt(data)
        with pytest.raises(SchemaError):
            bdd.from_dict(data)

    def test_round_trip_membership_unchanged(self):
        store, roots = self._sample()
        loaded, loaded_roots = reload(store, roots)
        for p in all_patterns(4):
            for key in roots:
                assert loaded.contains(loaded_roots[key], p) \
                    == store.contains(roots[key], p)


class TestCanonicalWalk:
    """A table that one ``_encode`` call fills from empty, as ``build``
    fills each monitor's, is in the canonical walk's order, so ``to_json``
    writes what :func:`reference_to_dict` lists."""

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_recursive_reference(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 9)
        # rows of four classes and one holding every pattern (a TRUE root)
        # in shuffled order; a class with no rows has the FALSE root, as
        # build gives it
        sets = {k: random_patterns(rng, n, 30)
                for k in rng.sample(range(3, 12), 4)}
        sets[rng.randrange(3)] = all_patterns(n)
        rows = [(k, p) for k, patterns in sets.items() for p in patterns]
        rng.shuffle(rows)
        store = bdd.BddStore(n)
        roots = store._encode(np.array([p for _, p in rows], dtype=np.int8),
                              np.array([k for k, _ in rows], dtype=np.intp))
        assert bdd.TRUE in roots.values()
        roots[12] = bdd.FALSE
        assert table(store, roots) == reference_to_dict(store, roots)

    def test_a_built_table_is_listed_as_it_is(self):
        store = bdd.BddStore(6)
        roots = {0: store.encode_set([(0, 1, 1, 0, 1, 0),
                                      (1, 1, 0, 0, 0, 1)])}
        data = table(store, roots)
        assert [(node["id"], node["var"], node["low"], node["high"])
                for node in data["nodes"]] == list(zip(
                    range(2, len(store)), store._var[2:], store._low[2:],
                    store._high[2:]))
        assert data == reference_to_dict(store, roots)


def separate_encodes(rng, n):
    store = bdd.BddStore(n)
    later = store.encode_set(random_patterns(rng, n, 20))
    return store, {0: store.encode_set(random_patterns(rng, n, 20)),
                   1: later}


def an_exists(rng, n):
    store = bdd.BddStore(n)
    zone = store.encode_set(random_patterns(rng, n, 20))
    return store, {0: store.exists(rng.randrange(n), zone)}


def terminal_roots(rng, n):
    store, roots = separate_encodes(rng, n)
    return store, {**roots, 2: store.encode_set([]),
                   3: store.encode_set(all_patterns(n))}


def a_subset_of_the_roots(rng, n):
    store = bdd.BddStore(n)
    roots = [store.encode_set(random_patterns(rng, n, 20)) for _ in range(3)]
    return store, {1: roots[1]}


def an_unreachable_node(rng, n):
    # the union fold keeps each singleton's nodes, which its root does
    # not reach
    store = bdd.BddStore(n)
    return store, {0: build_set(store, random_patterns(rng, n, 6))}


class TestTableOrder:
    """``to_json`` writes the whole table in table order, whatever call
    made it: ``from_dict`` reads back the same columns and root ids, and
    the loaded store writes the same text."""

    @pytest.mark.parametrize("make", [
        separate_encodes, an_exists, terminal_roots, a_subset_of_the_roots,
        an_unreachable_node], ids=lambda make: make.__name__)
    @pytest.mark.parametrize("seed", range(3))
    def test_load_gives_back_the_table(self, make, seed):
        store, roots = make(random.Random(seed), 8)
        text = store.to_json(roots)
        # not the canonical order: the table is written as it is
        assert json.loads(text) != reference_to_dict(store, roots)
        loaded, loaded_roots = bdd.from_dict(json.loads(text))
        assert (loaded._var, loaded._low, loaded._high) \
            == (store._var, store._low, store._high)
        assert loaded_roots == {str(c): node for c, node in roots.items()}
        assert loaded.to_json({int(c): node for c, node
                               in loaded_roots.items()}) == text


def one_build(rng, n):
    traces = [TraceRecord(f"r{i}", c, c, np.array(p, dtype=np.float64))
              for c in range(3)
              for i, p in enumerate(random_patterns(rng, n, 20))]
    mon = monitor.build(traces, identity_selection(n), gamma=0)
    return mon.store, mon.zones


def a_written_table(rng, n):
    """A table that no store call made, loaded by from_dict: random
    reduced nodes, each listed after its children, the last one a root."""
    var, nodes, triples = [n, n], [], set()
    for _ in range(60):
        v = rng.randrange(n)
        below = [node for node, w in enumerate(var) if w > v]
        low, high = rng.choice(below), rng.choice(below)
        if low != high and (v, low, high) not in triples:
            triples.add((v, low, high))
            nodes.append({"id": len(var), "var": v, "low": low, "high": high})
            var.append(v)
    store, roots = bdd.from_dict({
        "version": bdd.SERIAL_VERSION, "n_vars": n, "nodes": nodes,
        "roots": {"0": len(var) - 1, "1": bdd.TRUE + 1}})
    roots = {int(c): node for c, node in roots.items()}
    assert table(store, roots) != reference_to_dict(store, roots)
    return store, roots


def reference_sat_count(store, root):
    """``sat_count`` as the recursion from the root it replaced, with a
    memo per call."""
    memo = {bdd.FALSE: 0, bdd.TRUE: 1}
    var, low, high = store._var, store._low, store._high

    def count(node):
        if node not in memo:
            memo[node] = \
                (count(low[node]) << (var[low[node]] - var[node] - 1)) \
                + (count(high[node]) << (var[high[node]] - var[node] - 1))
        return memo[node]

    return count(root) << var[root]


def reference_node_count(store, root):
    """``node_count`` as the stack walk with a seen-set it replaced."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if node > bdd.TRUE and node not in seen:
            seen.add(node)
            stack += [store._low[node], store._high[node]]
    return len(seen)


class TestCountsInIdOrder:
    """sat_count and node_count, one pass over the ids each, equal the
    recursion and the stack walk they replaced on every kind of table:
    one build's, separate encodes', one with the unreachable nodes that
    exists leaves and one loaded out of canonical order; on each, at the
    roots, at both terminals and at a sample of the other ids."""

    @pytest.mark.parametrize("make", [
        one_build, separate_encodes, an_exists, a_written_table],
        ids=lambda make: make.__name__)
    @pytest.mark.parametrize("n", [1, 3, 8, 12, 64, bdd.MAX_VARS])
    def test_equal_the_walks_they_replaced(self, make, n):
        rng = random.Random(n)
        store, roots = make(rng, n)
        nodes = set(roots.values()) | {bdd.FALSE, bdd.TRUE} \
            | set(rng.sample(range(len(store)), min(len(store), 30)))
        for node in sorted(nodes):
            assert (store.sat_count(node), store.node_count(node)) \
                == (reference_sat_count(store, node),
                    reference_node_count(store, node))
