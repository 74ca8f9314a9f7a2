"""Acceptance suite: one test per release criterion.

Each criterion is checked at its stated tolerance (most are exact) and
prints one ``criterion N PASS`` line on success; run with ``pytest -v -s``
to see them.  Expected values come from independent oracles computed here:
explicit bitset semantics, integer-popcount Hamming balls, binomial sums
and central finite differences.
"""

import itertools
import math
import random
import time

import numpy as np

from actmon import bdd
from actmon.evaluation import (
    EvalRow,
    choose_gamma,
    evaluate,
    gamma_sweep,
)
from actmon.monitor import Verdict, build, load_monitor, query, save_monitor
from actmon.network import BLOB_STD, forward, make_blobs, train_toy
from actmon.patterns import identity_selection, score_neurons
from actmon.traces import TraceRecord, extract

MONITORED_LAYER = 1


# -- oracle helpers -----------------------------------------------------------


def to_int(bits):
    """Pattern tuple -> int; tuple bit b (BDD variable b) is int bit n-1-b."""
    value = 0
    for b in bits:
        value = (value << 1) | b
    return value


def to_bits(value, n):
    return tuple((value >> (n - 1 - b)) & 1 for b in range(n))


def int_ball(zone_ints, radius, n):
    """Brute force over all 2^n patterns via integer popcount distance."""
    members = set()
    for p in range(1 << n):
        if min(bin(p ^ z).count("1") for z in zone_ints) <= radius:
            members.add(p)
    return members


def query_ball(store, root, radius):
    """The patterns, as ints, that a query at ``radius`` accepts: those
    whose distance to the zone ``root`` is at most ``radius``."""
    n = store.n_vars
    return {p for p in range(1 << n)
            if store.distance(root, to_bits(p, n), radius + 1) <= radius}


def members(store, root):
    """The patterns of the set ``root``, by a membership test of every
    ``n_vars``-bit pattern."""
    return [p for p in itertools.product((0, 1), repeat=store.n_vars)
            if store.contains(root, p)]


def toy_data(seed, per_class_train=500, per_class_eval=300, offset=0.0):
    """Train on blobs(seed); return (model, (x, y), (x_eval, y_eval))."""
    x, y = make_blobs(seed=seed, per_class=per_class_train)
    xe, ye = make_blobs(seed=seed + 5000, per_class=per_class_eval,
                        offset=offset)
    return train_toy(x, y, seed=seed), (x, y), (xe, ye)


def toy_pipeline(seed, per_class_train=500, per_class_eval=300, offset=0.0):
    """Train on blobs(seed); return (model, train records, eval records)."""
    model, (x, y), (xe, ye) = toy_data(seed, per_class_train,
                                       per_class_eval, offset)
    return (model,
            extract(model, x, y, MONITORED_LAYER)[1],
            extract(model, xe, ye, MONITORED_LAYER)[1])


# -- criteria -----------------------------------------------------------------


def test_c01_bdd_oracle_equivalence():
    """200 random sets, n in 4..12: enumerate/union/exists against the
    explicit bitset semantics, exact, under 10 s."""
    started = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(4, 12)
        sa = {tuple(rng.randint(0, 1) for _ in range(n))
              for _ in range(rng.randint(0, 40))}
        sb = {tuple(rng.randint(0, 1) for _ in range(n))
              for _ in range(rng.randint(0, 40))}
        store = bdd.BddStore(n)
        ra, rb = store.encode_set(sa), store.encode_set(sb)
        assert set(members(store, ra)) == sa
        assert set(members(store, rb)) == sb
        union = store._or(ra, rb, store._index())
        assert set(members(store, union)) == sa | sb
        j = rng.randrange(n)
        grown = store.exists(j, ra)
        oracle = {p[:j] + (bit,) + p[j + 1:] for p in sa for bit in (0, 1)}
        assert set(members(store, grown)) == oracle
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"criterion 1 PASS: BDD oracle equivalence on 200 random sets "
          f"({elapsed:.2f} s)")


def test_c02_hamming_ball_theorem():
    """100 random zones, n <= 12: the patterns a query accepts at radius 1
    are the distance-1 ball, and at radius gamma the gamma ball, exact,
    under 30 s."""
    started = time.perf_counter()
    rng = random.Random(77)
    for _ in range(100):
        n = rng.randint(3, 12)
        gamma = rng.randint(0, 3)
        zone = {tuple(rng.randint(0, 1) for _ in range(n))
                for _ in range(rng.randint(1, 20))}
        zone_ints = [to_int(p) for p in zone]
        store = bdd.BddStore(n)
        root = store.encode_set(zone)

        assert query_ball(store, root, 1) == int_ball(zone_ints, 1, n)
        assert query_ball(store, root, gamma) \
            == int_ball(zone_ints, gamma, n)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 2 PASS: Hamming-ball theorem on 100 random zones "
          f"({elapsed:.2f} s)")


def test_c03_ball_cardinality_identities():
    """Single seed pattern: K=8, gamma=2 -> 37 patterns; K=10, gamma=3
    -> 176.  Exact binomial sums."""
    for width, gamma, expected in ((8, 2, 37), (10, 3, 176)):
        assert expected == sum(math.comb(width, k) for k in range(gamma + 1))
        rng = random.Random(width)
        seed_pattern = tuple(rng.randint(0, 1) for _ in range(width))
        store = bdd.BddStore(width)
        root = store.encode_set([seed_pattern])
        assert len(query_ball(store, root, gamma)) == expected
    print("criterion 3 PASS: gamma-ball cardinalities 37 (K=8, gamma=2) "
          "and 176 (K=10, gamma=3)")


def test_c04_zero_training_false_warnings():
    """Every correctly classified training trace is InZone against its own
    monitor for gamma in {0, 1, 2}.  Exact."""
    model, train_records, _ = toy_pipeline(seed=7)
    selection = identity_selection(
        model.layer_width(MONITORED_LAYER), layer=MONITORED_LAYER)
    correct = [r for r in train_records if r.true_label == r.pred_label]
    assert correct
    for gamma in (0, 1, 2):
        mon = build(train_records, selection, gamma=gamma)
        for record in correct:
            assert query(mon, record.activations, record.pred_label) \
                is Verdict.IN_ZONE
    print(f"criterion 4 PASS: zero false warnings on {len(correct)} "
          f"correctly classified training traces, gamma 0..2")


def test_c05_monotone_sweep():
    """Warning rate is non-increasing across gamma = 0..3 on the seeded
    toy pipeline.  Exact."""
    model, train_records, eval_records = toy_pipeline(seed=7)
    selection = identity_selection(
        model.layer_width(MONITORED_LAYER), layer=MONITORED_LAYER)
    rows = gamma_sweep(train_records, eval_records, selection, [0, 1, 2, 3])
    rates = [row.out_rate for row in rows]
    assert all(rate is not None for rate in rates)
    for earlier, later in zip(rates, rates[1:]):
        assert later <= earlier
    print(f"criterion 5 PASS: out-rate non-increasing over gamma 0..3: "
          f"{[f'{rate:.4f}' for rate in rates]}")


def test_c06_distribution_shift_trend():
    """Evaluation blobs translated by two standard deviations must at least
    double the gamma-0 warning rate, on at least 3 of 5 fixed seeds,
    under 60 s."""
    started = time.perf_counter()
    hits = 0
    lines = []
    for seed in range(5):
        model, train_records, eval_in = toy_pipeline(seed=seed)
        xs, ys = make_blobs(seed=seed + 9000, per_class=300,
                            offset=2.0 * BLOB_STD)
        _, eval_shifted = extract(model, xs, ys, MONITORED_LAYER)
        selection = identity_selection(
            model.layer_width(MONITORED_LAYER), layer=MONITORED_LAYER)
        mon = build(train_records, selection, gamma=0)
        rate_in = evaluate(mon, eval_in).out_rate
        rate_shifted = evaluate(mon, eval_shifted).out_rate
        if rate_in > 0:
            passed = rate_shifted >= 2.0 * rate_in
            factor = f"{rate_shifted / rate_in:.2f}x"
        else:  # any warning on the shifted set is an infinite factor
            passed = rate_shifted > 0
            factor = "inf" if passed else "0/0"
        hits += passed
        lines.append(f"  seed {seed}: in-dist {rate_in:.4f}, "
                     f"shifted {rate_shifted:.4f}, factor {factor}, "
                     f"{'pass' if passed else 'fail'}")
    elapsed = time.perf_counter() - started
    print(f"criterion 6 per-seed results (gamma=0, shift 2 sigma):")
    for line in lines:
        print(line)
    assert hits >= 3
    assert elapsed < 60.0
    print(f"criterion 6 PASS: shift detected on {hits}/5 seeds "
          f"({elapsed:.1f} s)")


def test_c07_gradient_checks():
    """Penultimate-layer scores equal the absolute output-weight columns
    bitwise; interior-layer gradients match central finite differences
    within 1e-4 relative on 50 random nets/points away from ReLU kinks."""
    from test_patterns import fd_gradient, relu_chain, tail_preactivations

    rng = np.random.default_rng(404)

    # exact special case, independent of samples
    for _ in range(20):
        model = relu_chain(rng, (3, 7, 5))
        x = rng.normal(size=3)
        for c in range(5):
            _, records = extract(model, [x], [c], 0)
            scores = score_neurons(model, records, layer=0, class_index=c)
            assert np.array_equal(
                scores, np.abs(model.layers[-1].weights[:, c]))

    checked = 0
    while checked < 50:
        dims = (4, int(rng.integers(5, 9)), int(rng.integers(5, 9)), 3)
        model = relu_chain(rng, dims)
        x = rng.normal(size=4)
        acts = forward(model, x).outputs[0]
        if np.min(np.abs(tail_preactivations(model, acts, 0))) <= 1e-3:
            continue  # too close to a ReLU kink
        c = int(rng.integers(0, 3))
        _, records = extract(model, [x], [c], 0)
        scores = score_neurons(model, records, layer=0, class_index=c)
        oracle = np.abs(fd_gradient(model, acts, 0, c))
        denom = max(float(np.linalg.norm(oracle)), 1e-12)
        rel = float(np.linalg.norm(scores - oracle)) / denom
        assert rel <= 1e-4
        checked += 1
    print("criterion 7 PASS: penultimate scores bitwise-equal to |weights|; "
          "50 interior gradients within 1e-4 of finite differences")


def test_c08_membership_cost_bound():
    """contains() visits at most K non-terminal nodes of a zone on 10,000
    random queries at K = 64.  Exact."""
    k = 64
    rng = random.Random(606)
    store = bdd.BddStore(k)
    zone = store.encode_set(
        [tuple(rng.randint(0, 1) for _ in range(k)) for _ in range(200)])
    worst = 0
    for _ in range(10_000):
        pattern = tuple(rng.randint(0, 1) for _ in range(k))
        _, visits = store.contains_with_cost(zone, pattern)
        worst = max(worst, visits)
        assert visits <= k
    print(f"criterion 8 PASS: 10,000 queries at K=64, worst path "
          f"{worst} <= 64 node visits")


def test_c09_serialization(tmp_path):
    """Save/load keeps every verdict identical (exhaustive at K=6) and
    repeated saves are byte-identical."""
    width = 6
    rng = np.random.default_rng(99)
    records = []
    for i in range(40):
        c = int(rng.integers(0, 3))
        records.append(TraceRecord(
            id=f"s{i}", true_label=c, pred_label=c,
            activations=rng.normal(size=width)))
    mon = build(records, identity_selection(width), gamma=1)
    path = tmp_path / "monitor.json"
    save_monitor(mon, path)
    first = path.read_bytes()
    save_monitor(mon, path)
    assert path.read_bytes() == first

    loaded = load_monitor(path)
    for bits in itertools.product((0, 1), repeat=width):
        acts = [float(b) for b in bits]
        for c in (0, 1, 2, 3):
            assert query(loaded, acts, c) is query(mon, acts, c)
    print("criterion 9 PASS: byte-deterministic saves; verdicts identical "
          "on all 64 patterns x 4 classes after reload")


def test_c10_choose_gamma_on_reference_report():
    """The stopping rule picks gamma=3 on the reference sweep (warning
    precision >= 0.5, warning rate <= 0.05).  Exact."""

    def row(gamma, out_rate, precision):
        return EvalRow(
            gamma=gamma, n_total=12630,
            n_out_of_pattern=round(out_rate * 12630),
            out_rate=out_rate,
            n_out_misclassified=round(precision * out_rate * 12630),
            misclassified_within_out_rate=precision,
            overall_misclassification_rate=0.0327,
            n_nozone=0)

    report = [
        row(0, 0.3292, 0.1013),
        row(1, 0.1500, 0.1944),
        row(2, 0.0708, 0.4117),
        row(3, 0.0458, 0.5454),
    ]
    choice = choose_gamma(report, min_precision=0.5, max_out_rate=0.05)
    assert choice.gamma == 3
    assert choice.qualified
    print("criterion 10 PASS: stopping rule selects gamma=3 on the "
          "reference report")
