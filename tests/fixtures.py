"""Named test graphs and the seeded random corpus shared across the suite."""

from __future__ import annotations

import numpy as np

from modkit import Graph

CORPUS_SEED = 20260809


def k2() -> Graph:
    return Graph(n=2, edges=((0, 1, 1.0),), variant="undirected")


def path_graph(n: int) -> Graph:
    return Graph(
        n=n,
        edges=tuple((i, i + 1, 1.0) for i in range(n - 1)),
        variant="undirected",
    )


def cycle_graph(n: int) -> Graph:
    edges = tuple((i, (i + 1) % n, 1.0) for i in range(n))
    return Graph(n=n, edges=edges, variant="undirected")


def complete_graph(n: int) -> Graph:
    edges = tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n))
    return Graph(n=n, edges=edges, variant="undirected")


def star_graph(leaves: int) -> Graph:
    edges = tuple((0, i, 1.0) for i in range(1, leaves + 1))
    return Graph(n=leaves + 1, edges=edges, variant="undirected")


def two_triangle_bridge() -> Graph:
    """Two triangles {0,1,2} and {3,4,5} joined by the edge 2-3; the
    triangle split scores exactly 5/14."""
    edges = ((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0),
             (3, 4, 1.0), (4, 5, 1.0), (5, 3, 1.0), (2, 3, 1.0))
    return Graph(n=6, edges=edges, variant="undirected")


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges = tuple((i, j, 1.0) for i, j in outer + spokes + inner)
    return Graph(n=10, edges=edges, variant="undirected")


def weighted_two_path() -> Graph:
    return Graph(
        n=3, edges=((0, 1, 2.5), (1, 2, 0.5)), variant="weighted"
    )


def directed_cycle(n: int = 3) -> Graph:
    edges = tuple((i, (i + 1) % n, 1.0) for i in range(n))
    return Graph(n=n, edges=edges, variant="directed")


def directed_star() -> Graph:
    return Graph(n=3, edges=((0, 1, 1.0), (0, 2, 1.0)), variant="directed")


def bipartite_path4() -> Graph:
    """Path 0-1-2-3 with sides {0, 2} and {1, 3}."""
    return Graph(
        n=4,
        edges=((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)),
        variant="bipartite",
        part=("left", "right", "left", "right"),
    )


def named_fixtures() -> list[tuple[str, Graph]]:
    return [
        ("k2", k2()),
        ("p3", path_graph(3)),
        ("p4", path_graph(4)),
        ("c4", cycle_graph(4)),
        ("c6", cycle_graph(6)),
        ("k4", complete_graph(4)),
        ("k6", complete_graph(6)),
        ("star3", star_graph(3)),
        ("tri2", two_triangle_bridge()),
        ("petersen", petersen()),
        ("w_path", weighted_two_path()),
        ("d_cycle", directed_cycle(3)),
        ("b_path4", bipartite_path4()),
    ]


def _random_undirected(rng: np.random.Generator, n_lo: int, n_hi: int) -> Graph:
    while True:
        n = int(rng.integers(n_lo, n_hi + 1))
        p = float(rng.uniform(0.3, 0.85))
        edges = tuple(
            (i, j, 1.0)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        )
        if edges:
            return Graph(n=n, edges=edges, variant="undirected")


def random_corpus(count: int = 50, seed: int = CORPUS_SEED) -> list[tuple[str, Graph]]:
    """Seeded corpus of small random graphs, n in 4..8."""
    rng = np.random.default_rng(seed)
    return [(f"rand{i:02d}", _random_undirected(rng, 4, 8)) for i in range(count)]


def cut_extra_corpus(count: int = 5, seed: int = CORPUS_SEED + 1) -> list[tuple[str, Graph]]:
    """A few mid-size random graphs (n in 10..14) for bipartition checks."""
    rng = np.random.default_rng(seed)
    return [(f"mid{i:02d}", _random_undirected(rng, 10, 14)) for i in range(count)]


def planted(variant: str, n: int, blocks: int, seed: int) -> Graph:
    """Seeded planted-partition graph of any variant: vertex i in block
    i % blocks, pairs joined with probability 0.5 inside a block and 1.5 / n
    between blocks, each arc of a directed pair with half that. Weighted
    edges weigh a multiple of 1/4 up to 2; a bipartite graph puts vertex i
    on the left when i // blocks is even and joins only the two sides."""
    rng = np.random.default_rng(seed)
    left = [(i // blocks) % 2 == 0 for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if i == j or (variant != "directed" and j < i):
                continue
            if variant == "bipartite" and left[i] == left[j]:
                continue
            p = 0.5 if i % blocks == j % blocks else 1.5 / n
            if rng.random() < (p / 2 if variant == "directed" else p):
                w = float(rng.integers(1, 9)) / 4.0 if variant == "weighted" else 1.0
                edges.append((i, j, w))
    part = tuple("left" if side else "right" for side in left) if variant == "bipartite" else None
    return Graph(n=n, edges=tuple(edges), variant=variant, part=part)


def planted_weighted(n: int, blocks: int, seed: int) -> Graph:
    """The weighted ``planted`` graph, weights uniform in {0.25, 0.5, ...,
    2}. The full solver needs hundreds to thousands of ADMM iterations on
    them at n of 30 to 60."""
    return planted("weighted", n, blocks, seed)
