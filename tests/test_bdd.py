"""Unit and property tests for the BDD store.

Every semantic check is made against an explicit-set oracle: pattern sets
are mirrored as Python sets of bit tuples, and the corresponding set
operations (union, don't-care expansion on one bit) are computed by brute
force, independently of the BDD code under test.
"""

import json
import random

import pytest

from actmon import bdd
from actmon.patterns import hamming
from actmon.errors import FormatVersionError, FrozenStoreError, SchemaError


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


def dump(store, roots):
    """The table as a monitor file spells it: compact JSON of to_dict."""
    return json.dumps(store.to_dict(roots), separators=(",", ":"))


def reload(store, roots):
    """A new store and roots read back from the table's JSON text."""
    return bdd.from_dict(json.loads(dump(store, roots)))


def build_set(store, patterns):
    """Reference construction: a union fold of singleton sets."""
    acc = store.encode_set([])
    for p in patterns:
        acc = store.union(acc, store.encode_set([p]))
    return acc


def union_all(store, refs):
    """Union of arbitrarily many sets; empty input gives the empty set."""
    acc = store.encode_set([])
    for ref in refs:
        acc = store.union(acc, ref)
    return acc


def enlarge_reference(store, zone):
    """Reference distance-1 step: the zone unioned with its don't-care
    expansion on each variable in turn (K exists and K union calls)."""
    grown = zone
    for var in range(store.n_vars):
        grown = store.union(grown, store.exists(var, zone))
    return grown


def random_patterns(rng, n, count):
    return {tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(count)}


class TestEmptySet:
    def test_enumerates_to_nothing(self):
        store = bdd.BddStore(5)
        assert store.enumerate_patterns(store.encode_set([])) == []

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
        assert store.enumerate_patterns(cube) == [tup("001")]

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

    @pytest.mark.filterwarnings("ignore:.*impractical")  # MAX_VARS width
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
            assert store.enumerate_patterns(store.encode_set(patterns)) \
                == sorted(set(patterns))

    def test_empty_input_is_false_terminal(self):
        store = bdd.BddStore(4)
        assert store.encode_set([]).node == bdd.FALSE
        assert store.encode_set(iter(())).node == bdd.FALSE

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


class TestUnion:
    def test_identity_element(self):
        store = bdd.BddStore(3)
        x = store.encode_set([tup("010")])
        assert store.union(store.encode_set([]), x) == x

    def test_two_cubes(self):
        store = bdd.BddStore(3)
        merged = build_set(store, [tup("001"), tup("101")])
        assert store.enumerate_patterns(merged) == [tup("001"), tup("101")]

    def test_idempotent_same_node(self):
        store = bdd.BddStore(4)
        x = build_set(store, [tup("0011"), tup("1100")])
        assert store.union(x, x) == x

    def test_commutative_same_node(self):
        store = bdd.BddStore(4)
        a = build_set(store, [tup("0011"), tup("0111")])
        b = build_set(store, [tup("1100")])
        assert store.union(a, b) == store.union(b, a)

    def test_cross_store_rejected(self):
        s1, s2 = bdd.BddStore(3), bdd.BddStore(3)
        with pytest.raises(ValueError, match="different store"):
            s1.union(s1.encode_set([]), s2.encode_set([]))


class TestExists:
    def test_dont_care_on_first_bit(self):
        store = bdd.BddStore(3)
        zone = store.encode_set([tup("001")])
        grown = store.exists(0, zone)
        assert store.enumerate_patterns(grown) == [tup("001"), tup("101")]

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


class TestGrow:
    """grow against the K-fold exists/union reference."""

    def test_equals_reference_loop(self):
        rng = random.Random(1986)
        for n in range(1, 15):
            for trial in range(6):
                distinct = list(random_patterns(rng, n, rng.randint(0, 30)))
                # duplicates, in arbitrary order
                with_dups = distinct + rng.choices(distinct, k=len(distinct))
                rng.shuffle(with_dups)
                # separate stores: the saved tables must match, not only
                # the set each root denotes
                fast, slow = bdd.BddStore(n), bdd.BddStore(n)
                a, b = fast.encode_set(with_dups), slow.encode_set(with_dups)
                for _ in range(rng.randint(1, 3)):
                    a, b = fast.grow(a), enlarge_reference(slow, b)
                assert fast.to_dict({"0": a}) == slow.to_dict({"0": b})

    def test_empty_set_stays_empty(self):
        store = bdd.BddStore(5)
        assert store.grow(store.encode_set([])).node == bdd.FALSE

    def test_full_set_is_fixpoint(self):
        store = bdd.BddStore(5)
        full = store.encode_set(all_patterns(5))
        assert full.node == bdd.TRUE
        assert store.grow(full) == full

    def test_cross_store_rejected(self):
        s1, s2 = bdd.BddStore(3), bdd.BddStore(3)
        with pytest.raises(ValueError, match="different store"):
            s1.grow(s2.encode_set([tup("001")]))


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
                zone = store.encode_set(with_dups)
                if trial % 2:  # a grown zone skips variables
                    zone = store.grow(zone)
                members = store.enumerate_patterns(zone)
                for bits in list(random_patterns(rng, n, 20)) + distinct[:5]:
                    nearest = min((hamming(bits, q) for q in members),
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
        assert true.node == bdd.TRUE and false.node == bdd.FALSE
        assert store.distance(true, tup("1010"), 3) == 0
        assert store.distance(false, tup("1010"), 3) == 3

    def test_cross_store_rejected(self):
        s1, s2 = bdd.BddStore(3), bdd.BddStore(3)
        with pytest.raises(ValueError, match="different store"):
            s1.distance(s2.encode_set([tup("001")]), tup("001"), 2)

    @pytest.mark.parametrize("bits", [tup("01"), tup("0111"), (0, 2, 1)])
    def test_malformed_pattern_rejected(self, bits):
        store = bdd.BddStore(3)
        with pytest.raises(ValueError):
            store.distance(store.encode_set([tup("001")]), bits, 2)

    def test_frozen_store_at_max_vars(self):
        n = bdd.MAX_VARS
        with pytest.warns(UserWarning, match="impractical"):
            store = bdd.BddStore(n)
        zone = store.encode_set([(0,) * n, (1,) * n])
        store.freeze()
        for ones in (0, 1, 3, 5, n - 2, n):
            bits = (1,) * ones + (0,) * (n - ones)
            assert store.distance(zone, bits, 5) == min(ones, n - ones, 5)


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
        assert set(store.enumerate_patterns(grown)) == ball

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
        assert store.enumerate_patterns(merged) == [tup("001"), tup("101")]

    def test_ball_of_001(self):
        store = bdd.BddStore(3)
        zone = store.encode_set([tup("001")])
        grown = union_all(
            store, [store.exists(j, zone) for j in range(3)])
        assert store.enumerate_patterns(grown) == [
            tup("000"), tup("001"), tup("011"), tup("101")]

    def test_width_guard(self):
        store = bdd.BddStore(21)
        with pytest.raises(ValueError, match="limited to width"):
            store.enumerate_patterns(store.encode_set([]))


class TestSetSemanticsOracle:
    """enumerate(build-by-or-of-cubes) must equal the explicit set, exactly."""

    def test_random_sets(self):
        rng = random.Random(20240917)
        for trial in range(120):
            n = rng.randint(4, 12)
            explicit = random_patterns(rng, n, rng.randint(0, 40))
            store = bdd.BddStore(n)
            ref = build_set(store, explicit)
            assert set(store.enumerate_patterns(ref)) == explicit
            assert store.sat_count(ref) == len(explicit)

    def test_union_matches_set_union(self):
        rng = random.Random(7)
        for trial in range(60):
            n = rng.randint(4, 10)
            sa = random_patterns(rng, n, rng.randint(0, 25))
            sb = random_patterns(rng, n, rng.randint(0, 25))
            store = bdd.BddStore(n)
            merged = store.union(build_set(store, sa), build_set(store, sb))
            assert set(store.enumerate_patterns(merged)) == sa | sb

    def test_exists_matches_oracle(self):
        rng = random.Random(13)
        for trial in range(60):
            n = rng.randint(4, 10)
            explicit = random_patterns(rng, n, rng.randint(1, 25))
            j = rng.randrange(n)
            store = bdd.BddStore(n)
            grown = store.exists(j, build_set(store, explicit))
            assert set(store.enumerate_patterns(grown)) \
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
            members = set(store.enumerate_patterns(grown))
            assert set(store.enumerate_patterns(ref)) <= members

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
        assert len(store.enumerate_patterns(zone)) == 2

    @pytest.mark.parametrize(
        "op", ["empty", "cube", "set", "union", "exists", "grow"])
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
            elif op == "union":
                store.union(zone, zone)
            elif op == "exists":
                store.exists(0, zone)
            else:
                store.grow(zone)


class TestVariableCap:
    def test_cap_exceeded(self):
        with pytest.raises(ValueError, match="cap"):
            bdd.BddStore(300)
        with pytest.raises(ValueError, match="cap"):
            bdd.BddStore(bdd.MAX_VARS + 1)

    def test_recursion_safe_at_max_vars(self):
        # the deepest recursion: cubes that share every bit but the last
        n = bdd.MAX_VARS
        with pytest.warns(UserWarning, match="impractical"):
            store = bdd.BddStore(n)
        low = (0,) * n
        high = (0,) * (n - 1) + (1,)
        both = store.union(store.encode_set([low]), store.encode_set([high]))
        assert store.exists(n - 1, both) == both
        assert store.sat_count(both) == 2
        # each cube's 257-pattern ball holds the other cube
        assert store.sat_count(store.grow(both)) == 2 * (n + 1) - 2
        with pytest.warns(UserWarning, match="impractical"):
            loaded, roots = reload(store, {"0": both})
        assert loaded.sat_count(roots["0"]) == 2
        assert loaded.contains(roots["0"], high)

    def test_warning_above_200(self):
        with pytest.warns(UserWarning, match="impractical"):
            bdd.BddStore(201)


class TestSerialization:
    def _sample(self):
        store = bdd.BddStore(4)
        roots = {
            "0": build_set(store, [tup("0011"), tup("0111")]),
            "1": build_set(store, [tup("1100")]),
        }
        return store, roots

    def test_round_trip_preserves_sets(self):
        store, roots = self._sample()
        loaded, loaded_roots = reload(store, roots)
        for key in roots:
            assert loaded.enumerate_patterns(loaded_roots[key]) \
                == store.enumerate_patterns(roots[key])

    def test_byte_determinism(self):
        store, roots = self._sample()
        assert dump(store, roots) == dump(store, roots)

    def test_insertion_order_does_not_change_bytes(self):
        patterns = [tup("0011"), tup("0111"), tup("1110")]
        s1 = bdd.BddStore(4)
        blob1 = dump(s1, {"0": build_set(s1, patterns)})
        s2 = bdd.BddStore(4)
        blob2 = dump(s2, {"0": build_set(s2, list(reversed(patterns)))})
        assert blob1 == blob2

    def test_nodes_listed_children_first_with_dense_ids(self):
        store, roots = self._sample()
        data = store.to_dict(roots)
        seen = {0, 1}
        for i, node in enumerate(data["nodes"]):
            assert node["id"] == i + 2
            assert node["low"] in seen and node["high"] in seen
            seen.add(node["id"])

    def test_version_mismatch(self):
        store, roots = self._sample()
        data = store.to_dict(roots)
        data["version"] = 99
        with pytest.raises(FormatVersionError):
            bdd.from_dict(data)

    def test_corrupted_low_pointer(self):
        store, roots = self._sample()
        data = store.to_dict(roots)
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
        with pytest.raises(SchemaError, match="duplicate"):
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
    ], ids=["roots-list", "nodes-int", "id-unhashable", "low-unhashable",
            "high-float", "high-bool", "root-unhashable", "n-vars-above-cap"])
    def test_malformed_table_is_schema_error(self, corrupt):
        store, roots = self._sample()
        data = store.to_dict(roots)
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
