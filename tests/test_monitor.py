"""Tests for zone building and runtime queries at Hamming radius gamma.

The central oracle is a brute-force Hamming ball: over all 2^n patterns,
keep those within distance gamma of some member of an explicit zone set.
The patterns a query accepts, those whose ``BddStore.distance`` to the
gamma-0 zone is at most gamma, must match it exactly.
"""

import itertools
import json
import math
import random
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from actmon import bdd, patterns
from actmon.bdd import BddStore
from actmon.errors import FormatVersionError, FrozenStoreError, SchemaError
from actmon.evaluation import evaluate, gamma_sweep
from actmon.monitor import (
    Monitor,
    Verdict,
    _batch_distances,
    build,
    load_monitor,
    monitor_from_dict,
    query,
    save_monitor,
)
from actmon.network import make_blobs, train_toy
from actmon.patterns import NeuronSelection, binarize, identity_selection
from actmon.traces import TraceRecord, extract
from test_bdd import reference_to_dict

# version-2 and version-3 monitor files, as those formats' writers saved
# the golden one
MONITOR_V2 = Path(__file__).parent / "legacy" / "monitor-v2.json"
MONITOR_V3 = Path(__file__).parent / "legacy" / "monitor-v3.json"


def hamming(p, q):
    """Number of differing bit positions between equal-width patterns."""
    return sum(a != b for a, b in zip(p, q))


def ball(zone, gamma, n):
    """Brute force: every n-bit pattern within Hamming distance gamma of
    the explicit set ``zone``."""
    if not zone:
        return set()
    return {p for p in itertools.product((0, 1), repeat=n)
            if min(hamming(p, z) for z in zone) <= gamma}


def accepted(store, zone, gamma):
    """The patterns a query at radius ``gamma`` accepts, in ascending
    order: those whose distance to ``zone`` is at most ``gamma``."""
    return [p for p in itertools.product((0, 1), repeat=store.n_vars)
            if store.distance(zone, p, gamma + 1) <= gamma]


def rec(true_label, pred_label, acts, rid="r"):
    return TraceRecord(id=rid, true_label=true_label, pred_label=pred_label,
                       activations=np.asarray(acts, dtype=float))


def pattern_trace(true_label, pred_label, bits, rid="r"):
    """A trace whose binarized pattern (identity selection) equals bits."""
    return rec(true_label, pred_label, [float(b) for b in bits], rid)


class TestEnlargeOnce:
    """The zone enlarged to radius gamma as a query reads it, against the
    brute-force Hamming ball."""

    def test_empty_zone_stays_empty(self):
        store = BddStore(4)
        assert accepted(store, store.encode_set([]), 1) == []

    def test_full_set_is_fixpoint(self):
        store = BddStore(4)
        everything = list(itertools.product((0, 1), repeat=4))
        assert accepted(store, store.encode_set(everything), 1) == everything

    def test_singleton_grows_to_hamming_one_ball(self):
        store = BddStore(3)
        zone = store.encode_set([(0, 0, 1)])
        assert accepted(store, zone, 1) == [
            (0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 1)]

    def test_matches_brute_force_ball(self):
        rng = random.Random(101)
        for _ in range(60):
            n = rng.randint(3, 12)
            explicit = {tuple(rng.randint(0, 1) for _ in range(n))
                        for _ in range(rng.randint(1, 20))}
            store = BddStore(n)
            zone = store.encode_set(explicit)
            assert set(accepted(store, zone, 1)) == ball(explicit, 1, n)

    def test_repeated_application_is_gamma_ball(self):
        rng = random.Random(103)
        for _ in range(20):
            n = rng.randint(3, 10)
            gamma = rng.randint(0, 3)
            explicit = {tuple(rng.randint(0, 1) for _ in range(n))
                        for _ in range(rng.randint(1, 8))}
            store = BddStore(n)
            zone = store.encode_set(explicit)
            assert set(accepted(store, zone, gamma)) \
                == ball(explicit, gamma, n)

    def test_monotone_chain(self):
        store = BddStore(6)
        zone = store.encode_set([(0, 1, 0, 1, 0, 1), (1, 1, 0, 0, 1, 1)])
        members = [set(accepted(store, zone, gamma)) for gamma in range(4)]
        counts = [len(m) for m in members]
        assert counts == sorted(counts)
        for smaller, larger in zip(members, members[1:]):
            assert smaller <= larger

    def test_gamma_ball_cardinality_from_single_seed(self):
        store = BddStore(8)
        zone = store.encode_set([(1, 0, 1, 1, 0, 0, 1, 0)])
        expected = sum(math.comb(8, k) for k in range(3))
        assert len(accepted(store, zone, 2)) == expected == 37


class TestBuild:
    def test_union_of_correct_records(self):
        traces = [
            pattern_trace(0, 0, (0, 0, 1), "a"),
            pattern_trace(0, 0, (1, 0, 1), "b"),
        ]
        mon = build(traces, identity_selection(3), gamma=0)
        assert accepted(mon.store, mon.zones[0], 0) == [(0, 0, 1), (1, 0, 1)]

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
        assert accepted(mon.store, mon.zones[0], 0) == [(0, 0, 1)]
        assert mon.gamma == 1
        assert [p for p in itertools.product((0, 1), repeat=3)
                if query(mon, [float(b) for b in p], 0) is Verdict.IN_ZONE] \
            == [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 1)]

    def test_duplicate_patterns_idempotent(self):
        traces = [pattern_trace(0, 0, (0, 1, 0), rid=f"s{i}")
                  for i in range(5)]
        mon = build(traces, identity_selection(3), gamma=0)
        assert mon.store.sat_count(mon.zones[0]) == 1

    @pytest.mark.parametrize("gamma", [0, 1, 2, 3])
    def test_leaves_no_unreachable_node(self, gamma):
        rng = random.Random(211)
        n = 12
        traces = [pattern_trace(c, rng.choice([c, c, c, (c + 1) % 3]),
                                [rng.randint(0, 1) for _ in range(n)],
                                rid=f"s{i}")
                  for i, c in enumerate(rng.choices(range(3), k=300))]
        mon = build(traces, identity_selection(n), gamma=gamma)
        # the canonical walk lists every node reachable from the roots once
        assert len(mon.store) - 2 \
            == len(reference_to_dict(mon.store, mon.zones)["var"])

    @pytest.mark.filterwarnings("ignore:class")  # a class may go empty
    def test_table_equals_encode_set(self):
        """build encodes each class's distinct patterns unchecked, making
        the table encode_set makes from the same patterns."""
        rng = random.Random(223)
        for trial in range(12):
            k = 64 if trial == 0 else rng.randint(1, 64)
            width = k + rng.randint(0, 3)
            sel = NeuronSelection(0, width, rng.sample(range(width), k))
            protos = [[rng.randint(0, 1) for _ in range(width)]
                      for _ in range(rng.randint(1, 6))]
            traces = [rec(c, rng.choice([c, c, c, 3 - c]),
                          [rng.choice((-1.0, 0.0, 2.0)) if b else 0.0
                           for b in rng.choice(protos)], f"s{i}")
                      for i, c in enumerate(rng.choices(range(4), k=80))]
            mon = build(traces, sel, gamma=0, classes=[0, 1, 2, 3])
            ref = BddStore(k)
            roots = {c: ref.encode_set(
                binarize(r.activations, sel) for r in traces
                if r.true_label == r.pred_label == c) for c in range(4)}
            assert mon.zones == roots
            assert (mon.store._var, mon.store._low, mon.store._high) \
                == (ref._var, ref._low, ref._high)

    def test_makes_no_mk_call_and_no_unique_entry(self, monkeypatch):
        """build makes every node in one level-wise encode: no per-node
        _mk call, and it leaves no unique table behind (no store keeps
        one; see tests/test_bdd.py::TestNoCache)."""
        made = []
        mk = BddStore._mk
        monkeypatch.setattr(BddStore, "_mk", lambda store, *triple: (
            made.append(triple), mk(store, *triple))[1])
        rng = random.Random(227)
        traces = [pattern_trace(c, c, [rng.randint(0, 1) for _ in range(64)],
                                f"s{i}")
                  for i, c in enumerate(rng.choices(range(4), k=400))]
        mon = build(traces, identity_selection(64), gamma=1)
        assert made == []
        assert set(vars(mon.store)) == {"n_vars", "frozen", "_var", "_low",
                                        "_high"}
        assert len(mon.store) > 400  # 64-bit patterns share few nodes

    def test_does_not_recurse_at_max_vars(self):
        """Patterns that first differ at the last bit, which a recursion
        over the bits would follow MAX_VARS calls deep, build with 32
        frames to spare."""
        n = bdd.MAX_VARS
        low = (0,) * n
        traces = [pattern_trace(0, 0, low, "a"),
                  pattern_trace(0, 0, low[:-1] + (1,), "b"),
                  pattern_trace(1, 1, (1,) + low[1:], "c")]
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 32)
        try:
            mon = build(traces, identity_selection(n), gamma=0)
        finally:
            sys.setrecursionlimit(old_limit)
        assert mon.store.sat_count(mon.zones[0]) == 2
        assert mon.store.contains(mon.zones[0], low[:-1] + (1,))
        assert mon.store.contains(mon.zones[1], (1,) + low[1:])

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

    def test_gamma_above_the_variable_cap_rejected(self):
        """No Hamming distance exceeds the width, at most ``MAX_VARS``."""
        traces = [pattern_trace(0, 0, (0, 1))]
        assert build(traces, identity_selection(2), gamma=256).gamma == 256
        with pytest.raises(ValueError,
                           match="^gamma must be <= 256, got 257$"):
            build(traces, identity_selection(2), gamma=257)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            build([pattern_trace(0, 0, (0, 1, 1))],
                  identity_selection(2), gamma=0)

    @pytest.mark.parametrize("gamma", [True, False, 1.0, "1", np.True_,
                                       np.float64(1.0)])
    def test_non_integer_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma .* is not an integer"):
            build([pattern_trace(0, 0, (0, 1))], identity_selection(2),
                  gamma=gamma)

    @pytest.mark.parametrize("gamma", [np.int64(1), np.uint8(1), np.intp(1)])
    def test_numpy_gamma_saves_and_loads(self, gamma, tmp_path):
        mon = build([pattern_trace(0, 0, (0, 1))], identity_selection(2),
                    gamma=gamma)
        assert type(mon.gamma) is int and mon.gamma == 1
        path = tmp_path / "m.json"
        save_monitor(mon, path)
        assert load_monitor(path).gamma == 1

    def test_classes_filter(self):
        traces = [
            pattern_trace(0, 0, (0, 1), "a"),
            pattern_trace(1, 1, (1, 0), "b"),
        ]
        mon = build(traces, identity_selection(2), gamma=0, classes={1})
        assert mon.classes == [1]

    @pytest.mark.parametrize("cls", [True, 1.5, "1", np.True_])
    def test_non_integer_class_rejected(self, cls):
        # an explicit class, and a default class from a true label, which
        # the label rule refuses first
        for label, classes, what in [(1, [cls], "class"),
                                     (cls, None, "label")]:
            with pytest.raises(ValueError,
                               match=f"{what} .* is not an integer"):
                build([pattern_trace(label, 1, (0, 1))],
                      identity_selection(2), gamma=0, classes=classes)

    @pytest.mark.parametrize("cls, message", [
        (-1, "must be >= 0, got -1"),
        (2 ** 63, f"must be <= {2 ** 63 - 1}, got {2 ** 63}"),
    ], ids=["negative", "beyond-int64"])
    def test_class_outside_the_labels_rejected(self, cls, message):
        # a class is a label: an explicit class, and a default class from
        # a true label, which the label rule refuses first
        for label, classes, what in [(0, [cls, 0, 10 ** 30], "class"),
                                     (cls, None, "label")]:
            with pytest.raises(ValueError,
                               match=f"^{what} {re.escape(message)}$"):
                build([pattern_trace(label, label, (0, 1))],
                      identity_selection(2), gamma=0, classes=classes)

    def test_numpy_class_saves_and_loads(self, tmp_path):
        # an explicit class, and a default class from a true label
        for label, classes in [(1, [np.int64(1)]), (np.int64(1), None)]:
            mon = build([pattern_trace(label, 1, (0, 1))],
                        identity_selection(2), gamma=0, classes=classes)
            assert [type(c) for c in mon.classes] == [int]
            path = tmp_path / "m.json"
            save_monitor(mon, path)
            assert load_monitor(path).classes == [1]

    def test_empty_zone_warning_points_at_caller(self):
        traces = [pattern_trace(0, 0, (0, 1)), pattern_trace(1, 0, (1, 1))]
        with pytest.warns(UserWarning, match="class 1") as caught:
            build(traces, identity_selection(2), gamma=0)
        assert caught[0].filename == __file__

    @pytest.mark.parametrize("acts", [(math.nan, 1.0), (1.0, 1.0, 1.0)])
    def test_skipped_records_are_never_read(self, acts):
        traces = [pattern_trace(0, 0, (0, 1), "a"),
                  rec(0, 1, acts, "misclassified"),
                  rec(2, 2, acts, "unmonitored")]
        mon = build(traces, identity_selection(2), gamma=0, classes=[0])
        assert accepted(mon.store, mon.zones[0], 0) == [(0, 1)]

    @pytest.mark.parametrize("acts, message", [
        ((math.nan, 1.0), r"^non-finite activation value$"),
        ((1.0, 1.0, 1.0),
         r"^activation width \(3,\) does not match monitored layer width 2$"),
    ])
    def test_bad_kept_record_rejected(self, acts, message):
        traces = [pattern_trace(0, 0, (0, 1), "a"), rec(1, 1, acts, "bad")]
        with pytest.raises(ValueError, match=message):
            build(traces, identity_selection(2), gamma=0)

    def test_projection_applies_before_enlargement(self):
        # monitor only neuron 2 and 0 of a width-4 layer
        selection = NeuronSelection(layer=0, layer_width=4, indices=(2, 0))
        traces = [rec(0, 0, (3.0, -1.0, 0.0, 9.9))]  # projects to (0, 1)
        mon = build(traces, selection, gamma=0)
        assert accepted(mon.store, mon.zones[0], 0) == [(0, 1)]


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

    def test_gamma_zero_walks_through_contains(self, monkeypatch):
        calls = []
        walk = BddStore.contains

        def counted(store, a, bits):
            calls.append(tuple(bits))
            return walk(store, a, bits)

        monkeypatch.setattr(BddStore, "contains", counted)
        mon = self._monitor()
        assert query(mon, (0.0, 0.0, 2.5), 0) is Verdict.IN_ZONE
        assert query(mon, (1.0, 1.0, 0.0), 0) is Verdict.OUT_OF_ZONE
        assert calls == [(0, 0, 1), (1, 1, 0)]

    def test_unmonitored_class(self):
        mon = self._monitor()
        assert query(mon, (1.0, 1.0, 1.0), 2) is Verdict.NO_ZONE

    @pytest.mark.parametrize("label", [False, 0.0, "0"],
                             ids=["bool", "float", "string"])
    def test_predicted_label_is_an_integer(self, label):
        # False and 0.0 equal 0, whose zone holds the pattern; "0" is no key
        with pytest.raises(ValueError,
                           match="^predicted label .* is not an integer$"):
            query(self._monitor(), (0.0, 0.0, 2.5), label)

    def test_numpy_predicted_label_accepted(self):
        mon = self._monitor()
        assert query(mon, (0.0, 0.0, 2.5), np.int64(0)) is Verdict.IN_ZONE
        assert query(mon, (0.0, 0.0, 2.5), np.uint8(2)) is Verdict.NO_ZONE

    def test_width_mismatch(self):
        mon = self._monitor()
        with pytest.raises(ValueError, match="width"):
            query(mon, (1.0, 1.0), 0)

    # N != W, N = W and N = 1 rows of width 3, for a class with and without
    # a zone: binarize refuses the batch with one message
    @pytest.mark.parametrize("count", [2, 3, 1])
    @pytest.mark.parametrize("pred", [0, 2])
    def test_batch_refused(self, count, pred):
        mon = self._monitor()
        with pytest.raises(ValueError, match="^expected one activation "
                                             "row, not a batch$"):
            query(mon, np.ones((count, 3)), pred)

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


def reference_verdict(monitor, acts, pred_label):
    """Per-index threshold, then a plain walk over the saved columns, in
    which position ``i`` is node ``i + 2`` and ids 0 and 1 are the
    terminals."""
    root = monitor.zones.get(pred_label)
    if root is None:
        return Verdict.NO_ZONE
    bits = [1 if acts[i] > 0.0 else 0 for i in monitor.selection.indices]
    table = monitor.store.to_dict([root])
    node = table["roots"][0]
    while node > 1:
        at = node - 2
        node = table["high" if bits[table["var"][at]] else "low"][at]
    return Verdict.IN_ZONE if node == 1 else Verdict.OUT_OF_ZONE


class TestQueryReference:
    """query at K=64 of 128 neurons against :func:`reference_verdict` and
    against the least Hamming distance to the training patterns."""

    WIDTH, K = 128, 64

    def _selection(self, rng):
        indices = tuple(int(i) for i in rng.permutation(self.WIDTH)[:self.K])
        return NeuronSelection(1, self.WIDTH, indices)

    def _probes(self, rng, seeds, selection):
        """The seeds, each with one and with two monitored signs flipped,
        and fresh random vectors."""
        probes = list(seeds)
        for acts in seeds:
            for flips in (1, 2):
                moved = acts.copy()
                chosen = rng.choice(selection.indices, flips, replace=False)
                moved[chosen] = -moved[chosen]
                probes.append(moved)
        probes += list(rng.normal(size=(40, self.WIDTH)))
        return probes

    def test_grown_zone(self):
        # the referee: the least Hamming distance to the seeds of the class
        rng = np.random.default_rng(31)
        selection = self._selection(rng)
        seeds = list(rng.normal(size=(30, self.WIDTH)))
        traces = [rec(i % 2, i % 2, acts, f"s{i}")
                  for i, acts in enumerate(seeds)]
        signs = [acts[list(selection.indices)] > 0 for acts in seeds]
        probes = self._probes(rng, seeds, selection)
        for gamma in (0, 1, 2):
            mon = build(traces, selection, gamma=gamma)
            seen = set()
            for acts in probes:
                bits = acts[list(selection.indices)] > 0
                for pred in (0, 1, 2):
                    verdict = query(mon, acts, pred)
                    nearest = min((int((bits != s).sum())
                                   for i, s in enumerate(signs)
                                   if i % 2 == pred), default=None)
                    assert verdict is (
                        Verdict.NO_ZONE if nearest is None
                        else Verdict.IN_ZONE if nearest <= gamma
                        else Verdict.OUT_OF_ZONE)
                    seen.add(verdict)
            assert seen == set(Verdict)

    def test_terminal_roots(self):
        rng = np.random.default_rng(37)
        selection = self._selection(rng)
        store = BddStore(self.K)
        zones = {0: store.encode_set([]), 1: bdd.TRUE}
        store.freeze()
        mon = Monitor(selection=selection, gamma=0, store=store, zones=zones)
        for acts in self._probes(rng, list(rng.normal(size=(5, self.WIDTH))),
                                 selection):
            for pred, expected in ((0, Verdict.OUT_OF_ZONE),
                                   (1, Verdict.IN_ZONE), (2, Verdict.NO_ZONE)):
                assert query(mon, acts, pred) is expected
                assert reference_verdict(mon, acts, pred) is expected


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

    def test_version_one_is_refused(self, tmp_path):
        # a version-1 zone of gamma > 0 was grown: read as gamma 0, a query
        # at radius gamma would answer for radius 2 * gamma
        path = tmp_path / "monitor.json"
        save_monitor(self._monitor(), path)
        data = json.loads(path.read_text())
        assert data["version"] == 4
        data["version"] = 1
        path.write_text(json.dumps(data))
        with pytest.raises(FormatVersionError, match=(
                "unsupported monitor version 1; rebuild the monitor with "
                "'actmon build'")):
            load_monitor(path)

    def test_version_two_is_refused(self):
        # a version-2 file, the golden monitor as that format wrote it
        with pytest.raises(FormatVersionError, match=(
                "^unsupported monitor version 2; rebuild the monitor with "
                "'actmon build'$")):
            load_monitor(MONITOR_V2)

    def test_version_three_is_refused(self):
        # a version-3 file, the golden monitor as that format wrote it,
        # selection scores and all
        assert '"scores":[0.0,' in MONITOR_V3.read_text()
        with pytest.raises(FormatVersionError, match=(
                "^unsupported monitor version 3; rebuild the monitor with "
                "'actmon build'$")):
            load_monitor(MONITOR_V3)

    @pytest.mark.parametrize("path, value", [
        ("gamma", 1.9),
        ("gamma", True),
        ("gamma", "1"),
        ("bdd.roots", [2]),  # fewer roots than classes
        ("bdd.var", None),
        ("classes", [0]),
        ("classes", [0, 1, 2]),
        ("classes", [0, 0]),
        ("classes", [0.0, 1.0]),
        ("classes", [False, True]),
        ("selection.layer", 0.5),
        ("selection.layer_width", 6.7),
        ("selection.indices", [0.2, 1.9, "2", 3, 4, 5]),
        # a class is a label, in 0..INT64_MAX
        ("classes", [-1, 1]),
        ("classes", [0, 2 ** 63]),
        # an index beyond the layer; a version-3 file
        ("selection.indices", [0, 1, 2, 3, 4, 6]),
        ("version", 3),
        ("bdd.high", True),
        ("bdd.roots", [2, True]),
        # JSON true and 3.0 equal ints that the readers compare with
        ("version", 2.0),
        ("version", 3.0),
        # values of the right type that the reader still refuses
        ("gamma", -1),
        ("classes", [1, 0]),
        # no distance exceeds the width; no index array holds 2**70
        ("gamma", 257),
        ("selection.layer_width", 2 ** 70),
        # a layer index is in 0..INT64_MAX
        ("selection.layer", -1),
        ("selection.layer", 2 ** 63),
    ])
    def test_inexact_or_contradicting_field(self, path, value, tmp_path):
        save_monitor(self._monitor(), tmp_path / "monitor.json")
        data = json.loads((tmp_path / "monitor.json").read_text("utf-8"))
        assert data["classes"] == [0, 1]
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

    def test_a_file_with_no_classes_is_refused(self, tmp_path):
        # build refuses to make a monitor with no zones; loaded, every
        # query on it would answer NoZone
        save_monitor(self._monitor(), tmp_path / "monitor.json")
        data = json.loads((tmp_path / "monitor.json").read_text("utf-8"))
        data["classes"] = []
        data["bdd"] = {"var": [], "low": [], "high": [], "roots": []}
        with pytest.raises(SchemaError, match="^no classes to monitor$"):
            monitor_from_dict(data)

    def test_a_monitor_with_no_zones_is_not_saved(self, tmp_path):
        store = BddStore(6)
        store.freeze()
        zoneless = Monitor(selection=identity_selection(6), gamma=1,
                           store=store, zones={})
        with pytest.raises(ValueError, match="^no classes to monitor$"):
            save_monitor(zoneless, tmp_path / "m.json")
        assert list(tmp_path.iterdir()) == []

    def test_numpy_selection_saves_and_loads(self, tmp_path):
        rng = np.random.default_rng(23)
        order = np.argsort(rng.normal(size=6))[:4]
        selection = NeuronSelection(np.int64(0), np.int64(6), tuple(order))
        traces = [rec(0, 0, rng.normal(size=6), rid=f"s{i}")
                  for i in range(10)]
        mon = build(traces, selection, gamma=np.int64(1))
        path = tmp_path / "m.json"
        save_monitor(mon, path)
        loaded = load_monitor(path)
        assert loaded.selection == mon.selection
        assert loaded.selection.indices == tuple(int(i) for i in order)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_token_is_schema_error(self, tmp_path, token):
        path = tmp_path / "monitor.json"
        save_monitor(self._monitor(), path)
        text = path.read_text()
        load_monitor(path)  # the unedited file is valid
        assert '"gamma":1,' in text
        path.write_text(text.replace('"gamma":1,', f'"gamma":{token},', 1))
        with pytest.raises(SchemaError, match="monitor file .*non-finite"):
            load_monitor(path)

    @pytest.mark.parametrize("literal, message", [
        ("1" * 400, f"gamma must be <= 256, got {'1' * 400}"),
        ("1e999", "gamma inf is not an integer"),
        ("-1e999", "gamma -inf is not an integer"),
    ], ids=["huge-int", "inf", "minus-inf"])
    def test_overflowing_score_is_schema_error(self, tmp_path, literal,
                                               message):
        # a monitor file holds no float since its selection scores went:
        # gamma takes the literal (the decoder reads 1e999 as inf), and
        # the integer rule refuses it by name
        path = tmp_path / "monitor.json"
        save_monitor(self._monitor(), path)
        text = path.read_text()
        assert '"gamma":1,' in text
        path.write_text(text.replace('"gamma":1,', f'"gamma":{literal},', 1))
        with pytest.raises(SchemaError, match=(
                f"^malformed monitor file: {message}$")):
            load_monitor(path)

    def test_loaded_monitor_is_frozen(self, tmp_path):
        mon = self._monitor()
        path = tmp_path / "monitor.json"
        save_monitor(mon, path)
        assert load_monitor(path).store.frozen

    def test_selection_above_the_variable_cap(self, tmp_path):
        save_monitor(self._monitor(), tmp_path / "monitor.json")
        data = json.loads((tmp_path / "monitor.json").read_text("utf-8"))
        width = bdd.MAX_VARS + 1
        data["selection"].update(layer_width=width,
                                 indices=list(range(width)))
        with pytest.raises(SchemaError, match=(
                "^malformed monitor file: n_vars must be <= 256, got 257$")):
            monitor_from_dict(data)


class TestBatchDistances:
    """The batch path of the report rows and ``actmon query`` against one
    public ``distance`` call per record."""

    @staticmethod
    def _acts(rng, selection, bits):
        """A full-layer row whose monitored signs are ``bits``: unmonitored
        neurons are random, a 0 bit is negative or an exact zero."""
        row = rng.normal(size=selection.layer_width)
        on = rng.uniform(0.1, 2.0, len(bits))
        off = np.where(rng.random(len(bits)) < 0.2, 0.0, -on)
        row[list(selection.indices)] = np.where(np.asarray(bits) > 0, on, off)
        return row

    def _case(self, k, seed):
        """A monitor over ``k`` of ``k + 3`` neurons for classes 0-2 (class
        2's zone is empty), and eval records predicted as classes 0-3 near
        and far from the zones, some repeated."""
        rng = np.random.default_rng(seed)
        width = k + 3
        selection = NeuronSelection(
            0, width, tuple(int(i) for i in rng.permutation(width)[:k]))
        seeds = rng.integers(0, 2, (12, k))
        train = [rec(i % 2, i % 2, self._acts(rng, selection, bits), f"t{i}")
                 for i, bits in enumerate(seeds)]
        evals = []
        for i in range(120):
            bits = seeds[int(rng.integers(0, 12))].copy()
            flips = rng.choice(k, min(k, int(rng.integers(0, 6))),
                               replace=False)
            bits[flips] ^= 1
            if rng.random() < 0.2:
                bits = rng.integers(0, 2, k)
            evals.append(rec(int(rng.integers(0, 4)), int(rng.integers(0, 4)),
                             self._acts(rng, selection, bits), f"e{i}"))
        evals += evals[:30]  # repeated records
        mon = build(train, selection, 0, classes=[0, 1, 2])
        return mon, evals

    @staticmethod
    def _reference(mon, records, cap):
        return [-1 if r.pred_label not in mon.zones
                else mon.store.distance(mon.zones[r.pred_label],
                                        binarize(r.activations, mon.selection),
                                        cap)
                for r in records]

    @pytest.mark.filterwarnings("ignore:class 2")
    @pytest.mark.filterwarnings("ignore:256 BDD variables")
    @pytest.mark.parametrize("k", [1, 8, 64, 256])
    def test_each_distance_equals_the_scalar_search(self, k):
        mon, evals = self._case(k, 400 + k)
        seen = set()
        for cap in (1, 2, 3, 4):
            got = _batch_distances(mon, evals, cap)
            assert got.tolist() == self._reference(mon, evals, cap)
            assert got.dtype == np.int64
            seen.update(got.tolist())
            assert _batch_distances(mon, [], cap).tolist() == []
        # hits, misses and unmonitored classes all occur
        assert {-1, 0, 1} <= seen and (k == 1 or 2 in seen)

    def test_terminal_roots(self):
        rng = np.random.default_rng(41)
        selection = identity_selection(5)
        store = BddStore(5)
        zones = {0: store.encode_set([]), 1: bdd.TRUE}
        store.freeze()
        mon = Monitor(selection=selection, gamma=0, store=store, zones=zones)
        evals = [rec(0, int(p), rng.normal(size=5)) for p in (0, 1, 2) * 4]
        for cap in (1, 3):
            assert _batch_distances(mon, evals, cap).tolist() \
                == [cap, 0, -1] * 4 == self._reference(mon, evals, cap)

    @pytest.mark.parametrize("bad", [
        [math.nan] * 4, [0.5, math.inf, 0.0, 1.0], [0.5] * 3, [0.5] * 5])
    @pytest.mark.parametrize("pred", [0, 3])  # a zone, no zone
    def test_bad_record_raises_what_binarize_raises(self, bad, pred):
        mon = build([pattern_trace(0, 0, (1, 0, 1, 1))], identity_selection(4),
                    gamma=1)
        records = [pattern_trace(0, 0, (1, 0, 0, 1), "a"),
                   TraceRecord("bad", 0, pred, np.asarray(bad)),
                   pattern_trace(1, 1, (0, 0, 0, 1), "b")]
        for batch in (records, records[1:2]):
            with pytest.raises(ValueError) as expected:
                patterns._threshold([r.activations for r in batch],
                                    mon.selection)
            with pytest.raises(ValueError,
                               match=f"^{re.escape(str(expected.value))}$"):
                _batch_distances(mon, batch, 2)


class TestRecordLabels:
    """Every batch path reads a record set's labels by the label rule of
    datasets and training, as scalar ``query`` reads its predicted label:
    a bool, a float or a negative label is no class, even where it equals
    one or where no zone is asked for."""

    BAD = [(True, "^label True is not an integer$"),
           (1.0, r"^label 1\.0 is not an integer$"),
           (np.True_, r"^label np\.True_ is not an integer$"),
           (-1, "^label must be >= 0, got -1$")]
    IDS = ["bool", "whole-float", "numpy-bool", "negative"]

    @staticmethod
    def _good():
        return [pattern_trace(0, 0, (0, 1), "a"),
                pattern_trace(1, 1, (1, 0), "b")]

    @staticmethod
    def _odd(label, side):
        """A record of pattern (1, 1) whose true or predicted label is
        ``label``; its other label is 1."""
        labels = (label, 1) if side == "true" else (1, label)
        return pattern_trace(*labels, (1, 1), "odd")

    @pytest.mark.parametrize("side", ["true", "pred"])
    @pytest.mark.parametrize("label, message", BAD, ids=IDS)
    def test_build_with_explicit_classes_refuses(self, label, message, side):
        # before, True and 1.0 joined class 1's zone and -1 was skipped
        records = self._good() + [self._odd(label, side)]
        with pytest.raises(ValueError, match=message):
            build(records, identity_selection(2), 0, classes=[0, 1])
        with pytest.raises(ValueError, match=message):
            gamma_sweep(records, self._good(), identity_selection(2), [0, 1],
                        classes=[0, 1])

    @pytest.mark.parametrize("side", ["true", "pred"])
    @pytest.mark.parametrize("label, message", BAD, ids=IDS)
    def test_judging_refuses(self, label, message, side):
        # before, a predicted True or 1.0 was judged InZone, -1 NoZone
        mon = build(self._good(), identity_selection(2), 0)
        evals = self._good() + [self._odd(label, side)]
        for judge in (lambda: evaluate(mon, evals),
                      lambda: gamma_sweep(self._good(), evals,
                                          identity_selection(2), [0, 1]),
                      lambda: _batch_distances(mon, evals, 1)):
            with pytest.raises(ValueError, match=message):
                judge()

    def test_numpy_integer_labels_are_ints(self):
        records = self._good() + [self._odd(1, "true")]
        numpy = [rec(np.int64(r.true_label), np.uint8(r.pred_label),
                     r.activations, r.id) for r in records]
        sel = identity_selection(2)
        mon, ints = build(numpy, sel, 0, classes=[0, 1]), build(records, sel, 0)
        assert mon.zones == ints.zones and mon.classes == [0, 1]
        assert [type(c) for c in build(numpy, sel, 0).classes] == [int, int]
        assert evaluate(mon, numpy) == evaluate(ints, records)
        assert gamma_sweep(numpy, numpy, sel, [0, 1]) \
            == gamma_sweep(records, records, sel, [0, 1])
        # a miss of class 0's zone, and a class with no zone
        evals = [rec(np.int64(0), np.uint8(0), (1.0, 1.0)),
                 rec(np.int64(1), np.uint8(7), (1.0, 0.0))]
        assert _batch_distances(mon, evals, 2).tolist() == [1, -1]


def synthetic_monitor(width, n_classes, count, seed, **kwargs):
    """A monitor of ``count`` records near one random 0/1 prototype for
    each of ``n_classes`` classes, each bit flipped with probability 0.05."""
    rng = np.random.default_rng(seed)
    prototypes = rng.random((n_classes, width)) < 0.5
    labels = rng.integers(0, n_classes, count)
    bits = prototypes[labels] ^ (rng.random((count, width)) < 0.05)
    traces = [pattern_trace(int(c), int(c), tuple(map(int, row)), f"s{i}")
              for i, (c, row) in enumerate(zip(labels, bits))]
    return build(traces, identity_selection(width), gamma=1, **kwargs)


class TestSavedBytes:
    """``save_monitor`` writes the compact ``json`` encoding of the object
    that its file holds, the store's table as it is, and a loaded monitor
    saved again gives the same bytes.  A table ``build`` made is in the
    canonical order that the recursive reference visit lists."""

    @pytest.fixture(scope="class")
    def toy(self):
        x, y = make_blobs(seed=7, per_class=200)
        records = extract(train_toy(x, y, seed=7, epochs=30), x, y, 1)[1]
        return build(records, identity_selection(len(records[0].activations),
                                                 layer=1), gamma=1)

    def _check(self, monitor, tmp_path):
        path = tmp_path / "m.json"
        save_monitor(monitor, path)
        text = path.read_text(encoding="utf-8")
        data = json.loads(text)
        assert text == json.dumps(data, separators=(",", ":"),
                                  allow_nan=False) + "\n"
        assert list(data) == ["format", "version", "gamma", "classes",
                              "selection", "bdd"]
        # build's _encode makes the nodes in the canonical walk's order
        assert data["bdd"] == reference_to_dict(monitor.store, monitor.zones)
        # a loaded store writes the table it read: the same bytes
        save_monitor(load_monitor(path), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_toy(self, toy, tmp_path):
        assert len(toy.store) > 10
        self._check(toy, tmp_path)

    def test_128_neurons(self, tmp_path):
        monitor = synthetic_monitor(128, 4, 600, seed=3)
        assert len(monitor.store) > 1000
        self._check(monitor, tmp_path)

    @pytest.mark.parametrize("classes", [[2, 0], [3]])
    def test_chosen_classes(self, classes, tmp_path):
        monitor = synthetic_monitor(12, 4, 80, seed=5, classes=classes)
        assert monitor.classes == sorted(classes)
        self._check(monitor, tmp_path)

    @pytest.mark.filterwarnings("ignore:class")
    def test_empty_and_full_zones(self, tmp_path):
        monitor = build([pattern_trace(0, 0, (0,)), pattern_trace(0, 0, (1,)),
                         pattern_trace(1, 0, (1,))], identity_selection(1),
                        gamma=0)
        assert list(monitor.zones.values()) == [bdd.TRUE, bdd.FALSE]
        self._check(monitor, tmp_path)

    def test_a_table_out_of_canonical_order_is_written_as_it_is(
            self, tmp_path):
        # zone 1 made before zone 0: not the canonical order
        store = BddStore(5)
        one = store.encode_set([(1, 0, 1, 1, 0), (1, 1, 1, 0, 0)])
        zero = store.encode_set([(0, 0, 1, 1, 0), (0, 1, 1, 1, 1),
                                 (1, 1, 1, 0, 0)])
        store.freeze()
        monitor = Monitor(selection=identity_selection(5), gamma=0,
                          store=store, zones={0: zero, 1: one})
        path = tmp_path / "m.json"
        save_monitor(monitor, path)
        data = json.loads(path.read_text(encoding="utf-8"))["bdd"]
        assert data != reference_to_dict(store, monitor.zones)
        assert (data["var"], data["low"], data["high"], data["roots"]) \
            == (store._var[2:], store._low[2:], store._high[2:], [zero, one])
        loaded = load_monitor(path)
        for bits in itertools.product((0, 1), repeat=5):
            for c in (0, 1):
                assert loaded.store.contains(loaded.zones[c], bits) \
                    == store.contains(monitor.zones[c], bits)
        save_monitor(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def copy_table(table):
    return {key: list(column) for key, column in table.items()}


def mutate(table, width, rng):
    """``table``, a saved table of width ``width``, with one seeded fault:
    a cell made a bool, a float, ``2**70`` or -1; a child at or above its
    node; a variable at or above the width or not below its children's; a
    node made a copy of an earlier one; a column one cell longer than the
    others; a root past the table.  The kind of fault, as a string."""
    var, low, high, roots = (table[key]
                             for key in ("var", "low", "high", "roots"))
    size = len(var) + 2
    kind = rng.choice(["bool", "float", "huge", "negative", "child",
                       "wide-var", "misordered-var", "duplicate", "length",
                       "root"])
    at = rng.randrange(len(var))
    column = rng.choice([var, low, high, roots])
    cell = rng.randrange(len(column))
    if kind == "bool":
        column[cell] = rng.choice([True, False])
    elif kind == "float":
        column[cell] = float(column[cell])
    elif kind == "huge":
        column[cell] = 2 ** 70
    elif kind == "negative":
        column[cell] = -1
    elif kind == "child":
        rng.choice([low, high])[at] = rng.randrange(at + 2, size + 3)
    elif kind == "wide-var":
        var[at] = rng.randrange(width, width + 3)
    elif kind == "misordered-var":
        # a node with a non-terminal child: its variable bounds the node's
        at = rng.choice([i for i in range(len(var))
                         if max(low[i], high[i]) > 1])
        least = min(var[c - 2] for c in (low[at], high[at]) if c > 1)
        var[at] = rng.randrange(least, width)
    elif kind == "duplicate":
        at = rng.randrange(1, len(var))
        earlier = rng.randrange(at)
        for col in (var, low, high):
            col[at] = col[earlier]
    elif kind == "length":  # a cell past the others' ends
        column = rng.choice([var, low, high])
        column.append(column[-1])
    else:
        roots[rng.randrange(len(roots))] = rng.randrange(size, size + 5)
    return kind


class TestTableMutations:
    """A saved 128-wide table with one seeded fault: every fault is a
    :class:`SchemaError` and no other exception, a subclass included."""

    WIDTH = 128

    @pytest.fixture(scope="class")
    def table(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("wide") / "m.json"
        save_monitor(synthetic_monitor(self.WIDTH, 4, 100, seed=3), path)
        return json.loads(path.read_text(encoding="utf-8"))["bdd"]

    def test_the_unmutated_table_loads(self, table):
        store, roots = bdd.from_dict(copy_table(table), self.WIDTH)
        assert len(store) == len(table["var"]) + 2 > 1000
        assert roots == table["roots"]

    def test_a_loaded_store_shares_one_int_per_id(self, table):
        """The child entries and roots that name one id are one int object,
        as the query walk reads them.  The JSON parse makes an object per
        cell, and CPython caches no int above 256."""
        def shared(ids):
            first = {}
            return all(first.setdefault(i, i) is i for i in ids if i > 256)

        data = copy_table(table)
        assert not shared(data["low"] + data["high"] + data["roots"])
        store, roots = bdd.from_dict(data, self.WIDTH)
        ids = store._low + store._high + roots
        assert len({i for i in ids if i > 256}) > 1000
        assert shared(ids)

    @pytest.mark.parametrize("seed", range(4))
    def test_each_fault_is_a_schema_error(self, table, seed):
        rng = random.Random(seed)
        kinds = set()
        for _ in range(100):
            mutated = copy_table(table)
            kinds.add(mutate(mutated, self.WIDTH, rng))
            with pytest.raises(SchemaError) as caught:
                bdd.from_dict(mutated, self.WIDTH)
            assert type(caught.value) is SchemaError
        assert len(kinds) == 10
