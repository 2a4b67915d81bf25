"""Seeded graph corpora for the benchmark workloads.

A workload's corpus is one or more groups of graphs, each with the CLI
calls made on its graphs. It is drawn once from a corpus seed and is the
same for every run.
The run seed then draws, per instance, a relabelling of the vertex ids, a
shuffled edge order and the rounding seed, so every run seed gives other
input files and other rounding draws for the same graphs. The solver's
iteration count varies far more between graph draws (0.8k to 47k at
n = 24..72) than any run-to-run bound can absorb, which is why the graphs
themselves are fixed; a claim is confirmed on the held-out corpus seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

DEFAULT_CORPUS_SEED = 20261017
HELDOUT_CORPUS_SEED = 20261018

VARIANTS = ("undirected", "weighted", "directed", "bipartite")


@dataclass(frozen=True)
class Group:
    """``per_variant`` graphs of each variant, sizes uniform in ``n_range``,
    and the CLI calls made on each. ``stream`` picks the group's own random
    stream under the corpus seed."""

    stream: int
    variants: tuple[str, ...]
    per_variant: int
    n_range: tuple[int, int]
    blocks: int
    ops: tuple[tuple[str, ...], ...]
    cut_ops: tuple[tuple[str, ...], ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    groups: tuple[Group, ...]
    planted_check: bool = True


# Ops are CLI argument prefixes; ``cut_ops`` run only on undirected and
# weighted instances, the variants the bipartition relaxation accepts.
# ``planted`` holds the full-problem group (4 blocks, n 24..72) and the
# cut group (2 blocks, n 20..64) in one workload, so that each run measures
# both solver paths for longer than two workloads of their own could in
# the same time.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("planted", (
            Group(2, VARIANTS, 2, (24, 72), 4, ops=(("solve", "--trials", "200"),)),
            Group(0, ("undirected", "weighted"), 2, (20, 64), 2,
                  ops=(("cut", "--trials", "200"),)),
        )),
        Workload("desk-certify", (
            Group(1, VARIANTS, 2, (8, 11), 2,
                  ops=(("solve", "--trials", "2000"), ("exact",)),
                  cut_ops=(("cut", "--trials", "2000"), ("exact", "--problem", "cut"))),
        ), planted_check=False),
    )
}


@dataclass(frozen=True)
class Instance:
    """One graph with its planted blocks, in corpus vertex order."""

    name: str
    variant: str
    n: int
    edges: tuple[tuple[int, int, float], ...]
    labels: tuple[int, ...]
    left: frozenset[int] | None
    calls: tuple[tuple[str, ...], ...] = ()


def planted_graph(rng: np.random.Generator, name: str, variant: str, n: int,
                  blocks: int) -> Instance:
    """Planted-partition graph: dense inside ``blocks`` equal blocks and
    sparse between them. Bipartite graphs split every block into a left and
    a right half and only join the two sides."""
    labels = np.arange(n) % blocks
    rng.shuffle(labels)
    size = n / blocks
    p_in = min(0.9, 6.0 / size)
    p_out = 1.5 / n
    left = None
    if variant == "bipartite":
        side = np.zeros(n, dtype=bool)
        for b in range(blocks):
            members = np.flatnonzero(labels == b)
            side[members[: (members.size + 1) // 2]] = True
        left = frozenset(int(v) for v in np.flatnonzero(side))
        p_in = min(0.9, 2.0 * p_in)
    edges = []
    for i in range(n):
        for j in range(n):
            if i == j or (variant != "directed" and j < i):
                continue
            if left is not None and ((i in left) == (j in left)):
                continue
            p = p_in if labels[i] == labels[j] else p_out
            if variant == "directed":
                p /= 2.0
            if rng.random() < p:
                # Weights are multiples of 1/4, so the file text is exact.
                w = float(rng.integers(1, 9)) / 4.0 if variant == "weighted" else 1.0
                edges.append((i, j, w))
    return Instance(name, variant, n, tuple(edges), tuple(int(x) for x in labels), left)


def group_calls(group: Group, variant: str) -> tuple[tuple[str, ...], ...]:
    if variant in ("undirected", "weighted"):
        return group.ops + group.cut_ops
    return group.ops


def build_corpus(workload: Workload, corpus_seed: int) -> list[Instance]:
    """Draw the workload's graphs group by group, interleaved by variant."""
    out = []
    for group in workload.groups:
        rng = np.random.default_rng([corpus_seed, group.stream])
        lo, hi = group.n_range
        for r in range(group.per_variant):
            for variant in group.variants:
                n = int(rng.integers(lo, hi + 1))
                inst = planted_graph(rng, f"{variant}-{r}-n{n}", variant, n, group.blocks)
                out.append(replace(inst, calls=group_calls(group, variant)))
    return out


def warmup_instance(workload: Workload, corpus_seed: int) -> Instance:
    """A 12-vertex graph of the first group, with that group's first call."""
    group = workload.groups[0]
    rng = np.random.default_rng([corpus_seed, 99])
    inst = planted_graph(rng, "warmup", group.variants[0], 12, group.blocks)
    return replace(inst, calls=group.ops[:1])


@dataclass(frozen=True)
class Drawn:
    """An instance as one run sees it: relabelled text and labels."""

    instance: Instance
    text: str
    labels: np.ndarray
    left: frozenset[int] | None
    edges: tuple[tuple[int, int, float], ...]
    seed: int


def draw(inst: Instance, rng: np.random.Generator) -> Drawn:
    """Relabel the vertices, shuffle the edge order and draw a rounding
    seed. Undirected-like edges are also written in a random orientation."""
    perm = rng.permutation(inst.n)
    edges = []
    for i, j, w in inst.edges:
        a, b = int(perm[i]), int(perm[j])
        if inst.variant != "directed" and rng.random() < 0.5:
            a, b = b, a
        edges.append((a, b, w))
    order = rng.permutation(len(edges))
    edges = tuple(edges[k] for k in order)
    labels = np.empty(inst.n, dtype=np.int64)
    labels[perm] = inst.labels
    left = None if inst.left is None else frozenset(int(perm[v]) for v in inst.left)
    lines = [f"# n: {inst.n}"]
    if left is not None:
        lines.append("# bipartite-left: " + " ".join(str(v) for v in sorted(left)))
    for a, b, w in edges:
        lines.append(f"{a} {b} {w!r}" if inst.variant == "weighted" else f"{a} {b}")
    seed = int(rng.integers(0, 2**63))
    return Drawn(inst, "\n".join(lines) + "\n", labels, left, edges, seed)
