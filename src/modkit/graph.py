"""Graph parsing, validation, and degree computations.

Four input variants are supported: plain undirected graphs, edge-weighted
undirected graphs, directed graphs, and two-sided (bipartite) graphs. The
edge-list text format is whitespace-separated lines ``i j [w]`` with
'#'-prefixed comment lines; two headers are recognized::

    # n: <count>                  explicit vertex count
    # bipartite-left: i1 i2 ...   side labels for the bipartite variant

Blank lines are ignored. Graphs are immutable after construction.

:class:`Graph` is the one validator: every graph, parsed or built
directly, passes its checks. The parser only parses, and names the line of
any edge that :class:`Graph` rejects.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "VARIANTS",
    "GraphFormatError",
    "Graph",
    "parse_edge_list",
    "render_edge_list",
    "degrees",
]

VARIANTS = ("undirected", "weighted", "directed", "bipartite")


def _checked_int(name: str, value, least: float) -> int:
    """``value`` as a Python int: an int or a numpy integer, never a bool,
    of at least ``least``. The one check of every count and index that
    modkit takes as an argument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")
    value = int(value)
    if value < least:
        raise ValueError(f"{name} must be at least {least}")
    return value


class GraphFormatError(ValueError):
    """Raised for malformed edge-list text or invariant violations.

    ``edges`` holds the indices of the offending edges, empty when the
    error is not about particular edges. For a duplicate it holds the
    first occurrence, then the repeat.
    """

    def __init__(self, message: str, edges: tuple[int, ...] = ()):
        super().__init__(message)
        self.edges = edges


@dataclass(frozen=True)
class Graph:
    """Validated graph: ``n`` vertices, edges as (i, j, w) triples.

    Each edge must be an (i, j, w) triple. ``n`` and the edge endpoints
    must be ints or numpy integers, not bools, and are stored as Python
    ints; a weight must be a real number, not a bool, and is stored as a
    float. For the bipartite variant ``part`` labels each vertex "left" or
    "right" and every edge must join the two sides. Unweighted variants
    carry w = 1.0 on every edge.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]
    variant: str
    part: tuple[str, ...] | None = field(default=None)

    def __post_init__(self):
        # endpoints and weights pass the type checks here; their range is
        # checked below, where a failure can name the edge
        edges = []
        for e, edge in enumerate(self.edges):
            try:
                i, j, w = edge
            except (TypeError, ValueError):
                raise GraphFormatError(
                    f"edge {e} is not an (i, j, w) triple", (e,)
                ) from None
            if isinstance(w, bool) or not isinstance(w, numbers.Real):
                raise TypeError(
                    f"edge weight must be a real number, not {type(w).__name__}"
                )
            edges.append((_checked_int("edge endpoint", i, -math.inf),
                          _checked_int("edge endpoint", j, -math.inf), float(w)))
        object.__setattr__(self, "edges", tuple(edges))
        if self.part is not None:
            object.__setattr__(self, "part", tuple(self.part))
        if self.variant not in VARIANTS:
            raise GraphFormatError(f"unknown variant {self.variant!r}")
        try:
            object.__setattr__(self, "n", _checked_int("n", self.n, 1))
        except ValueError:
            raise GraphFormatError("vertex count must be positive") from None
        if len(self.edges) == 0:
            raise GraphFormatError("graph must contain at least one edge")
        if self.variant == "bipartite":
            if self.part is None or len(self.part) != self.n:
                raise GraphFormatError(
                    "bipartite graphs need a side label for every vertex"
                )
            if not set(self.part) <= {"left", "right"}:
                raise GraphFormatError("side labels must be 'left' or 'right'")
        elif self.part is not None:
            raise GraphFormatError("side labels are only valid for bipartite graphs")

        seen = {}
        for e, (i, j, w) in enumerate(self.edges):
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise GraphFormatError(
                    f"edge ({i}, {j}) out of range for n={self.n}", (e,)
                )
            if i == j:
                raise GraphFormatError(f"self-loop at vertex {i} is not allowed", (e,))
            if not 0 < w < np.inf:
                raise GraphFormatError(
                    f"edge ({i}, {j}) has non-positive or non-finite weight {w}", (e,)
                )
            if self.variant != "weighted" and w != 1.0:
                raise GraphFormatError(
                    f"edge ({i}, {j}) carries weight {w}; only the weighted "
                    "variant admits weights other than 1",
                    (e,),
                )
            key = (i, j) if self.variant == "directed" else (min(i, j), max(i, j))
            if key in seen:
                raise GraphFormatError(f"duplicate edge ({i}, {j})", (seen[key], e))
            seen[key] = e
            if self.variant == "bipartite" and self.part[i] == self.part[j]:
                raise GraphFormatError(
                    f"edge ({i}, {j}) joins two {self.part[i]} vertices", (e,)
                )

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def total_weight(self) -> float:
        """Sum of edge weights (equals m for unweighted variants)."""
        return float(sum(w for _, _, w in self.edges))


def _parse_headers(lines):
    n_header = None
    left_header = None
    for lineno, raw in lines:
        body = raw[1:].strip()
        if body.startswith("n:"):
            try:
                n_header = int(body[2:].strip())
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad vertex count header")
        elif body.startswith("bipartite-left:"):
            try:
                left_header = {int(t) for t in body.split(":", 1)[1].split()}
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad bipartite-left header")
    return n_header, left_header


def parse_edge_list(text: str, variant: str = "undirected") -> Graph:
    """Parse edge-list text into a validated :class:`Graph`.

    A malformed line, a bad header or an empty edge set is rejected here;
    an edge that :class:`Graph` rejects is reported with its line number.
    """
    lines = []
    edges = []
    header_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            header_lines.append((lineno, line))
            continue
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise GraphFormatError(f"line {lineno}: expected 'i j [w]'")
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: vertex ids must be integers")
        w = 1.0
        if len(tokens) == 3:
            try:
                w = float(tokens[2])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad weight {tokens[2]!r}")
        lines.append(lineno)
        edges.append((i, j, w))

    if not edges:
        raise GraphFormatError("no edges: modularity needs m >= 1")

    n_header, left_header = _parse_headers(header_lines)
    max_index = max(max(i, j) for i, j, _ in edges)
    n = n_header if n_header is not None else max_index + 1
    if n <= max_index:
        raise GraphFormatError(
            f"vertex count header n={n} is inconsistent with edge index {max_index}"
        )

    part = None
    if variant == "bipartite":
        if left_header is None:
            raise GraphFormatError(
                "bipartite input needs a '# bipartite-left: ...' header"
            )
        if not all(0 <= v < n for v in left_header):
            raise GraphFormatError("bipartite-left header lists an out-of-range vertex")
        part = tuple("left" if v in left_header else "right" for v in range(n))

    try:
        return Graph(n=n, edges=edges, variant=variant, part=part)
    except GraphFormatError as exc:
        if not exc.edges:
            raise
        *first, last = (lines[e] for e in exc.edges)
        where = f"line {last}: {exc}"
        if first:
            where += f", first seen on line {first[0]}"
        raise GraphFormatError(where, exc.edges) from None


def render_edge_list(g: Graph) -> str:
    """Inverse of :func:`parse_edge_list`: parse(render(g)) reproduces g."""
    lines = [f"# n: {g.n}"]
    if g.variant == "bipartite":
        left = " ".join(str(v) for v in range(g.n) if g.part[v] == "left")
        lines.append(f"# bipartite-left: {left}")
    for i, j, w in g.edges:
        if g.variant == "weighted":
            lines.append(f"{i} {j} {w!r}")
        else:
            lines.append(f"{i} {j}")
    return "\n".join(lines) + "\n"


def degrees(g: Graph):
    """Degree vector of ``g``.

    Undirected/bipartite: incident edge counts. Weighted: incident weight
    sums. Directed: a (d_out, d_in) pair of vectors.
    """
    if g.variant == "directed":
        d_out = np.zeros(g.n)
        d_in = np.zeros(g.n)
        for i, j, _ in g.edges:
            d_out[i] += 1.0
            d_in[j] += 1.0
        return d_out, d_in
    d = np.zeros(g.n)
    for i, j, w in g.edges:
        d[i] += w
        d[j] += w
    return d
