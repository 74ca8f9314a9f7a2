"""Tests for zone building, Hamming enlargement and runtime queries.

The central oracle is a brute-force Hamming ball: over all 2^n patterns,
keep those within distance gamma of some member of an explicit zone set.
Enlargement in the BDD must match it exactly.
"""

import itertools
import json
import random

import numpy as np
import pytest

from actmon.bdd import BddStore
from actmon.errors import FormatVersionError, FrozenStoreError, SchemaError
from actmon.monitor import (
    Monitor,
    Verdict,
    build,
    load_monitor,
    monitor_from_dict,
    monitor_to_dict,
    query,
    save_monitor,
)
from actmon.patterns import NeuronSelection, hamming, identity_selection
from actmon.traces import TraceRecord


def ball(zone, gamma, n):
    """Brute force: every n-bit pattern within Hamming distance gamma of
    the explicit set ``zone``."""
    if not zone:
        return set()
    return {p for p in itertools.product((0, 1), repeat=n)
            if min(hamming(p, z) for z in zone) <= gamma}


def rec(true_label, pred_label, acts, rid="r"):
    return TraceRecord(id=rid, true_label=true_label, pred_label=pred_label,
                       activations=np.asarray(acts, dtype=float))


def pattern_trace(true_label, pred_label, bits, rid="r"):
    """A trace whose binarized pattern (identity selection) equals bits."""
    return rec(true_label, pred_label, [float(b) for b in bits], rid)


class TestEnlargeOnce:
    """One enlargement step, ``BddStore.grow``, against the brute-force
    Hamming ball."""

    def test_empty_zone_stays_empty(self):
        store = BddStore(4)
        grown = store.grow(store.encode_set([]))
        assert store.sat_count(grown) == 0

    def test_full_set_is_fixpoint(self):
        store = BddStore(4)
        full = store.encode_set(itertools.product((0, 1), repeat=4))
        assert store.grow(full) == full

    def test_singleton_grows_to_hamming_one_ball(self):
        store = BddStore(3)
        zone = store.encode_set([(0, 0, 1)])
        grown = store.grow(zone)
        assert store.enumerate_patterns(grown) == [
            (0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 1)]
        assert store.sat_count(grown) == 4

    def test_matches_brute_force_ball(self):
        rng = random.Random(101)
        for _ in range(60):
            n = rng.randint(3, 12)
            explicit = {tuple(rng.randint(0, 1) for _ in range(n))
                        for _ in range(rng.randint(1, 20))}
            store = BddStore(n)
            grown = store.grow(store.encode_set(explicit))
            assert set(store.enumerate_patterns(grown)) == ball(explicit, 1, n)

    def test_repeated_application_is_gamma_ball(self):
        rng = random.Random(103)
        for _ in range(20):
            n = rng.randint(3, 10)
            gamma = rng.randint(0, 3)
            explicit = {tuple(rng.randint(0, 1) for _ in range(n))
                        for _ in range(rng.randint(1, 8))}
            store = BddStore(n)
            zone = store.encode_set(explicit)
            for _ in range(gamma):
                zone = store.grow(zone)
            assert set(store.enumerate_patterns(zone)) \
                == ball(explicit, gamma, n)

    def test_monotone_chain(self):
        store = BddStore(6)
        zone = store.encode_set([(0, 1, 0, 1, 0, 1), (1, 1, 0, 0, 1, 1)])
        counts = []
        members = []
        for _ in range(4):
            counts.append(store.sat_count(zone))
            members.append(set(store.enumerate_patterns(zone)))
            zone = store.grow(zone)
        assert counts == sorted(counts)
        for smaller, larger in zip(members, members[1:]):
            assert smaller <= larger

    def test_gamma_ball_cardinality_from_single_seed(self):
        import math

        store = BddStore(8)
        zone = store.encode_set([(1, 0, 1, 1, 0, 0, 1, 0)])
        for _ in range(2):
            zone = store.grow(zone)
        expected = sum(math.comb(8, k) for k in range(3))
        assert store.sat_count(zone) == expected == 37

    def test_frozen_store_rejected(self):
        store = BddStore(3)
        zone = store.encode_set([(0, 0, 1)])
        store.freeze()
        with pytest.raises(FrozenStoreError):
            store.grow(zone)


class TestBuild:
    def test_union_of_correct_records(self):
        traces = [
            pattern_trace(0, 0, (0, 0, 1), "a"),
            pattern_trace(0, 0, (1, 0, 1), "b"),
        ]
        mon = build(traces, identity_selection(3), gamma=0)
        assert mon.store.enumerate_patterns(mon.zones[0]) \
            == [(0, 0, 1), (1, 0, 1)]

    def test_misclassified_contributes_nothing(self):
        traces = [
            pattern_trace(0, 0, (0, 0, 1), "a"),
            pattern_trace(1, 0, (1, 1, 1), "bad"),  # wrong prediction
        ]
        with pytest.warns(UserWarning, match="class 1"):
            mon = build(traces, identity_selection(3), gamma=0)
        assert mon.store.sat_count(mon.zones[0]) == 1
        assert mon.store.sat_count(mon.zones[1]) == 0

    def test_single_record_gamma_one(self):
        traces = [pattern_trace(0, 0, (0, 0, 1))]
        mon = build(traces, identity_selection(3), gamma=1)
        assert mon.store.enumerate_patterns(mon.zones[0]) == [
            (0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 1)]

    def test_duplicate_patterns_idempotent(self):
        traces = [pattern_trace(0, 0, (0, 1, 0), rid=f"s{i}")
                  for i in range(5)]
        mon = build(traces, identity_selection(3), gamma=0)
        assert mon.store.sat_count(mon.zones[0]) == 1

    def test_gamma_zero_leaves_no_unreachable_node(self):
        rng = random.Random(211)
        n = 12
        traces = [pattern_trace(c, rng.choice([c, c, c, (c + 1) % 3]),
                                [rng.randint(0, 1) for _ in range(n)],
                                rid=f"s{i}")
                  for i, c in enumerate(rng.choices(range(3), k=300))]
        mon = build(traces, identity_selection(n), gamma=0)
        table = mon.store.to_dict(
            {str(c): root for c, root in mon.zones.items()})
        # to_dict lists every node reachable from the roots exactly once
        assert len(mon.store) - 2 == len(table["nodes"])

    def test_store_frozen_after_build(self):
        mon = build([pattern_trace(0, 0, (0, 1))],
                    identity_selection(2), gamma=0)
        assert mon.store.frozen

    def test_empty_traces_rejected(self):
        with pytest.raises(ValueError, match="zero traces"):
            build([], identity_selection(2), gamma=0)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma must be >= 0, got -1"):
            build([pattern_trace(0, 0, (0, 1))],
                  identity_selection(2), gamma=-1)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            build([pattern_trace(0, 0, (0, 1, 1))],
                  identity_selection(2), gamma=0)

    def test_classes_filter(self):
        traces = [
            pattern_trace(0, 0, (0, 1), "a"),
            pattern_trace(1, 1, (1, 0), "b"),
        ]
        mon = build(traces, identity_selection(2), gamma=0, classes={1})
        assert mon.classes == [1]

    def test_projection_applies_before_enlargement(self):
        # monitor only neuron 2 and 0 of a width-4 layer
        selection = NeuronSelection(layer=0, layer_width=4,
                                    indices=(2, 0), scores=(0.0, 0.0))
        traces = [rec(0, 0, (3.0, -1.0, 0.0, 9.9))]  # projects to (0, 1)
        mon = build(traces, selection, gamma=0)
        assert mon.store.enumerate_patterns(mon.zones[0]) == [(0, 1)]


class TestQuery:
    def _monitor(self, gamma=0):
        traces = [
            pattern_trace(0, 0, (0, 0, 1), "a"),
            pattern_trace(0, 0, (1, 0, 1), "b"),
        ]
        return build(traces, identity_selection(3), gamma=gamma)

    def test_member_in_zone(self):
        mon = self._monitor()
        assert query(mon, (0.0, 0.0, 2.5), 0) is Verdict.IN_ZONE

    def test_distance_two_outside_gamma_one_ball(self):
        traces = [pattern_trace(0, 0, (0, 0, 1))]
        mon = build(traces, identity_selection(3), gamma=1)
        # (1, 1, 0) is at Hamming distance 2 from every ball member
        assert query(mon, (1.0, 1.0, 0.0), 0) is Verdict.OUT_OF_ZONE

    def test_unmonitored_class(self):
        mon = self._monitor()
        assert query(mon, (1.0, 1.0, 1.0), 2) is Verdict.NO_ZONE

    def test_width_mismatch(self):
        mon = self._monitor()
        with pytest.raises(ValueError, match="width"):
            query(mon, (1.0, 1.0), 0)

    def test_verdict_depends_only_on_sign_pattern(self):
        rng = np.random.default_rng(7)
        mon = self._monitor(gamma=1)
        for _ in range(50):
            acts = rng.normal(size=3)
            same_signs = np.where(acts > 0, rng.uniform(0.1, 99.0, 3),
                                  rng.uniform(-99.0, 0.0, 3))
            assert query(mon, acts, 0) is query(mon, same_signs, 0)

    def test_empty_zone_always_flags(self):
        traces = [
            pattern_trace(0, 0, (0, 1), "a"),
            pattern_trace(1, 0, (1, 1), "b"),  # class 1 never correct
        ]
        with pytest.warns(UserWarning, match="class 1"):
            mon = build(traces, identity_selection(2), gamma=2)
        assert query(mon, (1.0, 1.0), 1) is Verdict.OUT_OF_ZONE

    def test_training_members_stay_in_zone_for_any_gamma(self):
        rng = np.random.default_rng(13)
        traces = []
        for i in range(40):
            true = int(rng.integers(0, 3))
            pred = int(rng.integers(0, 3)) if rng.random() < 0.2 else true
            traces.append(rec(true, pred, rng.normal(size=5), rid=f"s{i}"))
        for gamma in (0, 1, 2):
            mon = build(traces, identity_selection(5), gamma=gamma)
            for record in traces:
                if record.true_label == record.pred_label:
                    verdict = query(mon, record.activations,
                                    record.pred_label)
                    assert verdict is Verdict.IN_ZONE

    def test_out_of_zone_is_sound(self):
        # a flagged pattern must be farther than gamma from every pattern
        # that went into the zone
        rng = np.random.default_rng(17)
        n, gamma = 6, 1
        z0 = [tuple(int(b) for b in rng.integers(0, 2, n)) for _ in range(8)]
        traces = [pattern_trace(0, 0, bits, rid=f"s{i}")
                  for i, bits in enumerate(z0)]
        mon = build(traces, identity_selection(n), gamma=gamma)
        for p in itertools.product((0, 1), repeat=n):
            verdict = query(mon, [float(b) for b in p], 0)
            if verdict is Verdict.OUT_OF_ZONE:
                assert min(hamming(p, z) for z in z0) > gamma
            else:
                assert min(hamming(p, z) for z in z0) <= gamma


class TestPersistence:
    def _monitor(self):
        rng = np.random.default_rng(23)
        traces = []
        for i in range(30):
            c = int(rng.integers(0, 2))
            traces.append(rec(c, c, rng.normal(size=6), rid=f"s{i}"))
        return build(traces, identity_selection(6), gamma=1)

    def test_round_trip_verdict_identical_exhaustively(self, tmp_path):
        mon = self._monitor()
        path = tmp_path / "monitor.json"
        save_monitor(mon, path)
        loaded = load_monitor(path)
        for p in itertools.product((0, 1), repeat=6):
            acts = [float(b) for b in p]
            for c in (0, 1, 2):
                assert query(loaded, acts, c) is query(mon, acts, c)

    def test_save_twice_byte_identical(self, tmp_path):
        mon = self._monitor()
        save_monitor(mon, tmp_path / "a.json")
        save_monitor(mon, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() \
            == (tmp_path / "b.json").read_bytes()

    def test_metadata_round_trip(self, tmp_path):
        mon = self._monitor()
        path = tmp_path / "monitor.json"
        save_monitor(mon, path)
        loaded = load_monitor(path)
        assert loaded.gamma == mon.gamma
        assert loaded.selection == mon.selection
        assert loaded.classes == mon.classes

    def test_truncated_file_is_schema_error(self, tmp_path):
        mon = self._monitor()
        path = tmp_path / "monitor.json"
        save_monitor(mon, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(SchemaError):
            load_monitor(path)

    @pytest.mark.parametrize("blob", [b"\x00\x01 not json", b"\xff\xfe{}"],
                             ids=["garbage", "not-utf8"])
    def test_non_json_file_is_schema_error(self, tmp_path, blob):
        path = tmp_path / "monitor.json"
        path.write_bytes(blob)
        with pytest.raises(SchemaError, match="monitor file is not valid"):
            load_monitor(path)

    def test_version_mismatch(self, tmp_path):
        mon = self._monitor()
        path = tmp_path / "monitor.json"
        save_monitor(mon, path)
        data = json.loads(path.read_text())
        data["version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(FormatVersionError):
            load_monitor(path)

    @pytest.mark.parametrize("path, value", [
        ("gamma", 1.9),
        ("gamma", True),
        ("gamma", "1"),
        ("layer", 0.0),
        ("layer", 3),
        ("classes", [0]),
        ("classes", [0, 1, 2]),
        ("classes", [0, 0]),
        ("classes", [0.0, 1.0]),
        ("classes", [False, True]),
        ("selection.layer", 0.5),
        ("selection.layer_width", 6.7),
        ("selection.indices", [0.2, 1.9, "2", 3, 4, 5]),
        ("selection.scores", ["1.5", 0.0, 0.0, 0.0, 0.0, 0.0]),
        ("selection.scores", [0.0, 0.0, True, 0.0, 0.0, 0.0]),
    ])
    def test_inexact_or_contradicting_field(self, path, value):
        data = monitor_to_dict(self._monitor())
        assert data["classes"] == [0, 1] and data["layer"] == 0
        monitor_from_dict(data)  # the unedited dict is valid
        *parents, field = path.split(".")
        target = data
        for key in parents:
            target = target[key]
        target[field] = value
        with pytest.raises(SchemaError):
            monitor_from_dict(data)

    def test_unfrozen_monitor_rejected(self, tmp_path):
        mon = self._monitor()
        thawed = Monitor(selection=mon.selection, gamma=mon.gamma,
                         store=BddStore(6), zones={})
        with pytest.raises(ValueError, match="frozen"):
            save_monitor(thawed, tmp_path / "m.json")

    def test_loaded_monitor_is_frozen(self, tmp_path):
        mon = self._monitor()
        path = tmp_path / "monitor.json"
        save_monitor(mon, path)
        assert load_monitor(path).store.frozen
