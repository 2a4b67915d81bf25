#!/usr/bin/env python3
"""Sandwich table: brute force <= relaxation bound on a small corpus.

The solver's dual upper bound sits above the true optimum on every
instance, which is what turns a rounded score plus the error budget into a
certificate. This script tabulates both sides on named instances and a
handful of seeded random graphs.
"""

import numpy as np

from modkit import Graph, build_q, exact_cut, exact_full, solve_cut_sdp, solve_full_sdp


def cycle(n):
    return Graph(n=n, edges=tuple((i, (i + 1) % n, 1.0) for i in range(n)),
                 variant="undirected")


def random_graph(rng, n, p):
    while True:
        edges = tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < p)
        if edges:
            return Graph(n=n, edges=edges, variant="undirected")


rng = np.random.default_rng(2024)
instances = [("c5", cycle(5)), ("c8", cycle(8))]
instances += [(f"rand{i}", random_graph(rng, int(rng.integers(5, 9)), 0.5))
              for i in range(6)]

print(f"{'name':8s} {'n':>2s} {'m':>3s} {'opt':>10s} {'sdp':>10s} "
      f"{'opt_cut':>10s} {'sdp_cut':>10s}")
for name, g in instances:
    qm = build_q(g)
    opt = exact_full(qm).opt_value
    sdp = solve_full_sdp(qm).upper_bound
    opt_cut = exact_cut(qm).opt_value
    sdp_cut = solve_cut_sdp(qm).upper_bound
    print(f"{name:8s} {g.n:2d} {g.m:3d} {opt:10.6f} {sdp:10.6f} "
          f"{opt_cut:10.6f} {sdp_cut:10.6f}")
    assert opt <= sdp and opt_cut <= sdp_cut

print("\nthe relaxation bound held on every instance")
print("(the gap 'sdp - opt' is what rounding has to recover; the additive")
print(" budgets cap what it can lose in the worst case)")
