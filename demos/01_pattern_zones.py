#!/usr/bin/env python3
"""Pattern sets as BDDs: encode, expand, query by Hamming distance.

Walks the smallest interesting example: a zone holding the single 3-bit
pattern 001, and the patterns within Hamming distance 1 of it, which a
monitor at gamma 1 accepts.
"""

from itertools import product

from actmon import BddStore


def text(bits):
    return "".join(map(str, bits))


def show(store, label, ref):
    members = [text(p) for p in product((0, 1), repeat=store.n_vars)
               if store.contains(ref, p)]
    print(f"{label:<28} {{{', '.join(members)}}}  "
          f"(count {store.sat_count(ref)}, {store.node_count(ref)} nodes)")


store = BddStore(n_vars=3)

zone = store.encode_set([(0, 0, 1)])
show(store, "zone = {001}", zone)

# Forgetting one bit makes it a don't-care: each variable in turn.
for var in range(3):
    show(store, f"exists(var {var}, zone)", store.exists(var, zone))

# Together the three don't-care expansions are the patterns within Hamming
# distance 1 of 001.  A monitor at gamma 1 stores only the zone and accepts
# exactly these: the patterns whose distance to the zone is at most 1.
ball = [text(p) for p in product((0, 1), repeat=3)
        if store.distance(zone, p, 2) <= 1]
print(f"{'distance to zone <= 1':<28} {{{', '.join(ball)}}}  "
      f"(count {len(ball)})")

print()
print("a query at gamma 1 searches for the nearest member, capped at 2:")
for bits in ((0, 0, 1), (0, 1, 1), (1, 1, 0)):
    distance = store.distance(zone, bits, 2)
    print(f"  {text(bits)} -> distance {distance}"
          f"{' or more' if distance == 2 else ''}: "
          f"{'in' if distance <= 1 else 'OUT'}")

# Canonicity: the same set gives the same node however it was listed.
a = store.encode_set([(0, 1, 1), (1, 0, 1)])
b = store.encode_set([(1, 0, 1), (0, 1, 1)])
print()
print(f"same set listed in two orders -> same node id: {a == b}")
