"""Tests for the metric computations, gamma sweeps and the stopping rule."""

from collections import Counter

import numpy as np
import pytest

from actmon import patterns
from actmon.bdd import BddStore
from actmon.evaluation import (
    REPORT_COLUMNS,
    EvalRow,
    _report_row,
    choose_gamma,
    evaluate,
    gamma_sweep,
    write_report_csv,
)
from actmon.monitor import Verdict, build, query
from actmon.patterns import binarize, identity_selection
from actmon.traces import TraceRecord


def rec(true_label, pred_label, bits, rid="r"):
    return TraceRecord(id=rid, true_label=true_label, pred_label=pred_label,
                       activations=np.asarray(bits, dtype=float))


def make_row(gamma, out_rate, precision, n_total=10000):
    """Report row from rates alone (counts chosen consistently enough)."""
    n_out = round(out_rate * n_total)
    n_out_mis = 0 if precision is None else round(precision * n_out)
    return EvalRow(
        gamma=gamma,
        n_total=n_total,
        n_out_of_pattern=n_out,
        out_rate=out_rate,
        n_out_misclassified=n_out_mis,
        misclassified_within_out_rate=precision,
        overall_misclassification_rate=0.05,
        n_nozone=0,
    )


class TestEvaluate:
    def _monitor(self):
        # zone of class 0 is exactly {(1,1,1)}
        return build([rec(0, 0, (1, 1, 1))], identity_selection(3), gamma=0)

    def test_plain_ratios(self):
        mon = self._monitor()
        traces = []
        for i in range(90):  # in-zone, correctly classified
            traces.append(rec(0, 0, (1, 1, 1), f"in{i}"))
        for i in range(7):   # flagged but correct
            traces.append(rec(0, 0, (0, 0, 0), f"ok{i}"))
        for i in range(3):   # flagged and misclassified
            traces.append(rec(1, 0, (0, 0, 0), f"bad{i}"))
        row = evaluate(mon, traces)
        assert row.n_total == 100
        assert row.n_out_of_pattern == 10
        assert row.out_rate == pytest.approx(0.10)
        assert row.n_out_misclassified == 3
        assert row.misclassified_within_out_rate == pytest.approx(0.30)
        assert row.overall_misclassification_rate == pytest.approx(0.03)
        assert row.n_nozone == 0

    def test_no_warnings_reports_null_precision(self):
        mon = self._monitor()
        row = evaluate(mon, [rec(0, 0, (1, 1, 1), f"s{i}") for i in range(5)])
        assert row.n_out_of_pattern == 0
        assert row.out_rate == 0.0
        assert row.misclassified_within_out_rate is None

    def test_nozone_excluded_from_out_rate(self):
        mon = self._monitor()
        traces = [
            rec(0, 0, (1, 1, 1), "a"),
            rec(0, 0, (0, 1, 1), "b"),     # flagged
            rec(1, 1, (0, 0, 0), "skip1"),  # class 1 unmonitored
            rec(1, 1, (1, 1, 1), "skip2"),
        ]
        row = evaluate(mon, traces)
        assert row.n_nozone == 2
        assert row.n_total == 4
        assert row.out_rate == pytest.approx(0.5)  # 1 of 2 judged records

    def test_empty_eval_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate(self._monitor(), [])

    def test_order_invariant(self):
        rng = np.random.default_rng(3)
        mon = self._monitor()
        traces = [rec(int(rng.integers(0, 2)), 0,
                      rng.integers(0, 2, 3).astype(float), f"s{i}")
                  for i in range(40)]
        forward_row = evaluate(mon, traces)
        backward_row = evaluate(mon, list(reversed(traces)))
        assert forward_row == backward_row

    @pytest.mark.filterwarnings("ignore:class 2")
    @pytest.mark.parametrize("gamma", [0, 1, 2, 3])
    def test_equals_per_record_queries(self, gamma):
        train, evals = mixed_zone_traces()
        mon = build(train, identity_selection(8), gamma, classes=[0, 1, 2])
        row = evaluate(mon, evals)
        assert row == per_record_query_row(mon, evals)
        assert row.n_nozone > 0 and row.n_out_of_pattern > 0

    def test_counting_identity(self):
        rng = np.random.default_rng(5)
        mon = self._monitor()
        traces = [rec(int(rng.integers(0, 2)), int(rng.integers(0, 2)),
                      rng.integers(0, 2, 3).astype(float), f"s{i}")
                  for i in range(200)]
        row = evaluate(mon, traces)
        total_mis = sum(t.true_label != t.pred_label for t in traces)
        assert row.n_out_misclassified \
            <= min(row.n_out_of_pattern, total_mis)
        assert row.n_out_of_pattern <= row.n_total


def per_record_sweep(traces_train, traces_eval, selection, gammas,
                     classes=None):
    """Reference gamma_sweep: one public ``distance`` call per eval record,
    as the sweep made before it grouped its records."""
    zero = build(traces_train, selection, 0, classes)
    bits = [binarize(r.activations, selection) for r in traces_eval]
    cap = gammas[-1] + 1
    tally = Counter()
    for record, pattern in zip(traces_eval, bits):
        root = zero.zones.get(record.pred_label)
        d = None if root is None else zero.store.distance(root, pattern, cap)
        tally[d, record.pred_label != record.true_label] += 1
    return [_report_row(gamma, tally) for gamma in gammas]


def per_record_query_row(monitor, records):
    """Reference report row: one scalar ``query`` per record, its verdicts
    counted here rather than by ``_report_row``."""
    verdicts = Counter((query(monitor, r.activations, r.pred_label),
                        r.pred_label != r.true_label) for r in records)
    n_total = len(records)
    n_out_mis = verdicts[Verdict.OUT_OF_ZONE, True]
    n_out = verdicts[Verdict.OUT_OF_ZONE, False] + n_out_mis
    n_nozone = (verdicts[Verdict.NO_ZONE, False]
                + verdicts[Verdict.NO_ZONE, True])
    n_judged = n_total - n_nozone
    return EvalRow(
        gamma=monitor.gamma,
        n_total=n_total,
        n_out_of_pattern=n_out,
        out_rate=n_out / n_judged if n_judged else None,
        n_out_misclassified=n_out_mis,
        misclassified_within_out_rate=n_out_mis / n_out if n_out else None,
        overall_misclassification_rate=sum(
            r.pred_label != r.true_label for r in records) / n_total,
        n_nozone=n_nozone,
    )


def mixed_zone_traces():
    """8-bit training and eval records for classes [0, 1, 2]: class 2 has
    no correctly classified training record (an empty zone), and eval
    records predicted as class 3 have no zone at all."""
    rng = np.random.default_rng(61)
    train = [rec(t, t if t < 2 else 0,
                 rng.integers(0, 2, 8).astype(float), f"t{i}")
             for i, t in enumerate(rng.integers(0, 3, 50))]
    evals = [rec(int(rng.integers(0, 4)), int(rng.integers(0, 4)),
                 rng.integers(0, 2, 8).astype(float), f"e{i}")
             for i in range(120)]
    return train, evals


class TestGammaSweep:
    def _traces(self, seed, count):
        rng = np.random.default_rng(seed)
        out = []
        for i in range(count):
            true = int(rng.integers(0, 2))
            pred = true if rng.random() < 0.9 else 1 - true
            out.append(rec(true, pred,
                           rng.integers(0, 2, 8).astype(float), f"s{i}"))
        return out

    def test_out_rate_non_increasing(self):
        train = self._traces(11, 60)
        evals = self._traces(12, 120)
        rows = gamma_sweep(train, evals, identity_selection(8), [0, 1, 2, 3])
        outs = [r.n_out_of_pattern for r in rows]
        assert outs == sorted(outs, reverse=True)
        assert [r.gamma for r in rows] == [0, 1, 2, 3]

    def test_single_gamma_matches_direct_build(self):
        train = self._traces(21, 40)
        evals = self._traces(22, 50)
        rows = gamma_sweep(train, evals, identity_selection(8), [0])
        mon = build(train, identity_selection(8), gamma=0)
        assert rows == [evaluate(mon, evals)]

    def test_sparse_gamma_levels_match_dense(self):
        train = self._traces(31, 40)
        evals = self._traces(32, 50)
        dense = gamma_sweep(train, evals, identity_selection(8), [0, 1, 2])
        sparse = gamma_sweep(train, evals, identity_selection(8), [0, 2])
        assert sparse == [dense[0], dense[2]]

    def test_each_eval_record_binarized_once(self, monkeypatch):
        train = self._traces(51, 40)
        evals = self._traces(52, 50)
        seen = []  # the rows handed to each call of the checked rule
        threshold = patterns._threshold

        def counting(activations, selection):
            seen.append(np.asarray(activations))
            return threshold(activations, selection)

        # binarize and the batch path look the rule up on the patterns module
        monkeypatch.setattr(patterns, "_threshold", counting)
        rows = gamma_sweep(train, evals, identity_selection(8), [0, 1, 2, 3])
        kept = [r.activations for r in train if r.pred_label == r.true_label]
        # build's call on its kept training rows, then one for every eval row
        assert len(rows) == 4 and len(seen) == 2
        assert np.array_equal(seen[0], kept)
        assert np.array_equal(seen[1], [r.activations for r in evals])

    def _duplicated(self, seed, count):
        """``count`` eval records predicted as classes 0-3, drawn from five
        8-bit patterns, one of them both correct and misclassified."""
        rng = np.random.default_rng(seed)
        shared = (1, 0, 1, 1, 0, 0, 1, 0)
        out = [rec(0, 0, shared, "c"), rec(1, 0, shared, "m")]
        pool = [rng.integers(0, 2, 8) for _ in range(4)] + [shared]
        for i in range(count - 2):
            true, pred = (int(x) for x in rng.integers(0, 4, 2))
            out.append(rec(true, pred if rng.random() < 0.3 else true,
                           pool[int(rng.integers(0, 5))], f"e{i}"))
        return out

    def _searches(self, monkeypatch, gammas):
        """The sweep's ``_distance`` calls as (pattern, zone node, cap),
        and the gamma-0 monitor the sweep builds, on records that repeat
        five patterns plus ten replays of zone patterns."""
        train = self._traces(91, 40)
        evals = self._duplicated(92, 200) + [
            r for r in train if r.pred_label == r.true_label][:10]
        sel = identity_selection(8)
        calls = []
        search = BddStore._distance

        def counted(store, node, bits, cap):
            calls.append((tuple(bits), node, cap))
            return search(store, node, bits, cap)

        monkeypatch.setattr(BddStore, "_distance", counted)
        gamma_sweep(train, evals, sel, gammas)
        patterns_of = [binarize(r.activations, sel) for r in evals]
        return calls, build(train, sel, 0), list(zip(patterns_of, evals))

    def test_one_search_per_group(self, monkeypatch):
        calls, zero, records = self._searches(monkeypatch, [0, 1, 2])
        groups = {(p, r.pred_label) for p, r in records
                  if r.pred_label in (0, 1)}  # classes 2 and 3: no zone
        missed = {(p, zero.zones[c]) for p, c in groups
                  if not zero.store.contains(zero.zones[c], p)}
        assert 0 < len(missed) < len(groups)
        assert len(calls) == len(missed)
        assert {(p, node) for p, node, _ in calls} == missed
        assert {cap for *_, cap in calls} == {3}

    def test_no_search_at_gamma_zero(self, monkeypatch):
        calls, zero, records = self._searches(monkeypatch, [0])
        assert calls == []
        assert any(not zero.store.contains(zero.zones[r.pred_label], p)
                   for p, r in records if r.pred_label in (0, 1))

    @pytest.mark.filterwarnings("ignore:class 2")
    def test_grouped_rows_equal_the_per_record_reference(self):
        # class 2 gets an empty zone, and records predicted as class 3 have
        # no zone at all
        train = self._traces(93, 60)
        evals = self._duplicated(94, 300)
        sel = identity_selection(8)
        for gammas in ([0], [0, 1, 2, 3], [1, 3]):
            rows = gamma_sweep(train, evals, sel, gammas, classes=[0, 1, 2])
            assert rows == per_record_sweep(train, evals, sel, gammas,
                                            classes=[0, 1, 2])
        assert rows[0].n_nozone > 0 and rows[0].n_out_of_pattern > 0

    @pytest.mark.parametrize("pred", [0, 3])  # a zone, no zone
    def test_non_finite_eval_record_rejected(self, pred):
        evals = self._traces(42, 20)
        evals.append(rec(0, pred, [np.nan] + [0.0] * 7, "bad"))
        with pytest.raises(ValueError, match="^non-finite activation value$"):
            gamma_sweep(self._traces(41, 40), evals, identity_selection(8),
                        [0, 1])

    def test_empty_eval_set_raises_after_build(self):
        train = self._traces(43, 40)
        with pytest.raises(ValueError, match="empty trace set"):
            gamma_sweep(train, [], identity_selection(8), [0, 1])
        with pytest.raises(ValueError, match="zero traces"):
            gamma_sweep([], [], identity_selection(8), [0])
        with pytest.warns(UserWarning, match="class 2"), \
                pytest.raises(ValueError, match="empty trace set"):
            gamma_sweep(train, [], identity_selection(8), [0],
                        classes=[0, 1, 2])

    @pytest.mark.filterwarnings("ignore:class 2")
    def test_every_level_equals_a_built_monitor(self):
        train, evals = mixed_zone_traces()
        sel = identity_selection(8)
        rows = gamma_sweep(train, evals, sel, [0, 1, 2, 3], classes=[0, 1, 2])
        assert rows == [per_record_query_row(
            build(train, sel, g, classes=[0, 1, 2]), evals) for g in range(4)]
        assert rows[0].n_nozone > 0 and rows[-1].n_out_of_pattern > 0

    def test_grows_no_zone(self, monkeypatch):
        train = self._traces(71, 40)
        evals = self._traces(72, 50)
        expected = gamma_sweep(train, evals, identity_selection(8), [0, 2, 3])

        def refuse(*args):
            raise AssertionError("the sweep must not grow a zone")

        # the one operation left that enlarges a set
        monkeypatch.setattr(BddStore, "exists", refuse)
        rows = gamma_sweep(train, evals, identity_selection(8), [0, 2, 3])
        assert rows == expected and [r.gamma for r in rows] == [0, 2, 3]

    def test_wide_sweep_matches_popcount_reference(self):
        # K=64, 4 classes of noisy prototypes; distances from a packed
        # XOR/popcount over every training pattern of the predicted class
        rng = np.random.default_rng(81)
        k, gammas = 64, [0, 1, 2, 3]
        protos = rng.integers(0, 2, (4, k), dtype=np.uint8)

        def noisy(count, flip, wrong):
            true = rng.integers(0, 4, count)
            pred = np.where(rng.random(count) < wrong,
                            rng.integers(0, 4, count), true)
            bits = protos[true] ^ (rng.random((count, k)) < flip)
            return true, pred, bits

        def records(true, pred, bits, tag):
            return [rec(int(t), int(p), b.astype(float), f"{tag}{i}")
                    for i, (t, p, b) in enumerate(zip(true, pred, bits))]

        t_true, t_pred, t_bits = noisy(2000, 0.03, 0.1)
        e_true, e_pred, e_bits = noisy(600, 0.06, 0.2)
        rows = gamma_sweep(records(t_true, t_pred, t_bits, "t"),
                           records(e_true, e_pred, e_bits, "e"),
                           identity_selection(k), gammas)

        def words(bits):
            return np.packbits(bits, axis=1).view(np.uint64)

        t_words, e_words = words(t_bits), words(e_bits)
        dist = np.empty(len(e_bits), dtype=np.int64)
        for c in range(4):
            zone = t_words[(t_true == c) & (t_pred == c)]
            mine = e_pred == c
            dist[mine] = np.bitwise_count(
                e_words[mine][:, None, :] ^ zone[None, :, :]
            ).sum(axis=2).min(axis=1)
        mis = e_true != e_pred
        for row, gamma in zip(rows, gammas):
            out = dist > gamma
            assert (row.gamma, row.n_out_of_pattern, row.n_out_misclassified,
                    row.n_nozone) == (gamma, int(out.sum()),
                                      int((out & mis).sum()), 0)
        assert rows[0].n_out_of_pattern > rows[-1].n_out_of_pattern > 0

    def test_unsorted_gammas_rejected(self):
        train = self._traces(41, 10)
        with pytest.raises(ValueError, match="ascending"):
            gamma_sweep(train, train, identity_selection(8), [2, 0])

    def test_empty_gammas_rejected(self):
        train = self._traces(42, 10)
        with pytest.raises(ValueError, match="nonempty"):
            gamma_sweep(train, train, identity_selection(8), [])

    @pytest.mark.parametrize("gammas, message", [
        ([True], "^gamma True is not an integer$"),
        ([0, 1.5], r"^gamma 1\.5 is not an integer$"),
        (["1"], "^gamma '1' is not an integer$"),
        ([0, np.float64(1.0)],
         r"^gamma np\.float64\(1\.0\) is not an integer$"),
        ([-1, 0], "^gamma must be >= 0, got -1$"),
        ([0, 257], "^gamma must be <= 256, got 257$"),
    ], ids=["bool", "float", "string", "numpy-float", "negative",
            "above-cap"])
    def test_non_integer_gamma_rejected(self, gammas, message):
        train = self._traces(44, 10)
        with pytest.raises(ValueError, match=message):
            gamma_sweep(train, train, identity_selection(8), gammas)

    def test_numpy_gamma_reported_as_int(self):
        train = self._traces(45, 10)
        rows = gamma_sweep(train, train, identity_selection(8),
                           [np.int64(0), np.uint8(1)])
        assert [(type(r.gamma), r.gamma) for r in rows] \
            == [(int, 0), (int, 1)]

    def test_empty_zone_warning_points_at_caller(self):
        train = [rec(0, 0, (1,) * 8), rec(1, 0, (0,) * 8)]
        with pytest.warns(UserWarning, match="class 1") as caught:
            gamma_sweep(train, train, identity_selection(8), [0])
        assert caught[0].filename == __file__

    def test_empty_class_list_rejected(self):
        train = self._traces(43, 10)
        with pytest.raises(ValueError, match="no classes to monitor"):
            gamma_sweep(train, train, identity_selection(8), [0, 1],
                        classes=[])


class TestChooseGamma:
    # a sweep shaped like a realistic one: the warning rate falls with
    # gamma while the precision of warnings rises
    REFERENCE = [
        make_row(0, 0.3292, 0.1013),
        make_row(1, 0.1500, 0.1944),
        make_row(2, 0.0708, 0.4117),
        make_row(3, 0.0458, 0.5454),
    ]

    def test_first_qualifying_gamma(self):
        choice = choose_gamma(self.REFERENCE, min_precision=0.5,
                              max_out_rate=0.05)
        assert choice.gamma == 3
        assert choice.qualified

    def test_zero_min_precision_takes_first_row(self):
        choice = choose_gamma(self.REFERENCE, min_precision=0.0,
                              max_out_rate=1.0)
        assert choice.gamma == 0
        assert choice.qualified

    def test_unreachable_threshold_falls_back_to_best_precision(self):
        choice = choose_gamma(self.REFERENCE, min_precision=1.0,
                              max_out_rate=1.0)
        assert choice.gamma == 3
        assert not choice.qualified

    def test_null_precision_rows_qualify_only_vacuously(self):
        rows = [make_row(0, 0.0, None), make_row(1, 0.0, None)]
        choice = choose_gamma(rows, min_precision=0.0, max_out_rate=0.05)
        assert choice.gamma == 0 and choice.qualified
        choice = choose_gamma(rows, min_precision=0.5, max_out_rate=0.05)
        assert not choice.qualified

    def test_returned_gamma_present_in_report(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            rows = [make_row(g, float(rng.random()),
                             None if rng.random() < 0.2 else float(rng.random()))
                    for g in range(int(rng.integers(1, 6)))]
            choice = choose_gamma(
                rows,
                min_precision=float(rng.random()),
                max_out_rate=float(rng.uniform(0.01, 1.0)))
            assert choice.gamma in {r.gamma for r in rows}

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            choose_gamma([])

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="min_precision"):
            choose_gamma(self.REFERENCE, min_precision=1.5)
        with pytest.raises(ValueError, match="max_out_rate"):
            choose_gamma(self.REFERENCE, max_out_rate=0.0)
        # a rate is a real number: no bool, string or None, and not NaN
        for name in ("min_precision", "max_out_rate"):
            for bad in (True, "0.3", None, float("nan")):
                with pytest.raises(ValueError, match=f"^{name} "):
                    choose_gamma(self.REFERENCE, **{name: bad})
        assert choose_gamma(self.REFERENCE, min_precision=np.float32(0.5),
                            max_out_rate=1) \
            == choose_gamma(self.REFERENCE, min_precision=0.5,
                            max_out_rate=1.0)


class TestReportCsv:
    ROWS = [
        EvalRow(0, 100, 10, 0.1, 3, 0.3, 0.05, 0),
        EvalRow(1, 100, 0, 0.0, 0, None, 0.05, 2),
    ]

    def test_header_and_rates(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(path, self.ROWS)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(REPORT_COLUMNS)
        assert lines[1] == "0,100,10,0.100000,3,0.300000,0.050000,0"
        assert lines[2] == "1,100,0,0.000000,0,,0.050000,2"
