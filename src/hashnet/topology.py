"""Small-world interaction graphs and per-round random partner pairings.

The interaction structure is a classic Watts-Strogatz graph: a ring
lattice whose clockwise edges are independently rewired with probability
``p``. Rewiring moves edges but never adds or removes them, so every
realization has exactly ``n * k / 2`` edges. Each round, agents are paired
by a uniformly random greedy maximal matching over the graph's edges.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .errors import ConfigError, is_integer, is_number, raise_first_violation
from .rng import Stream


class TopologySpec(NamedTuple):
    """Parameters of the interaction graph.

    ``seed`` may be left as None, in which case the engine derives it from
    the run's root seed; the realized graph is always a deterministic
    function of the fully resolved spec.
    """

    n: int
    k: int
    p: float
    seed: int | None = None

    def violations(self) -> list[ConfigError]:
        found = []
        n_ok = is_integer(self.n) and self.n > 0
        if not n_ok:
            found.append(ConfigError("topology.n", f"agent count must be a positive integer, got {self.n!r}"))
        if not is_integer(self.k) or self.k < 2 or self.k % 2 != 0:
            found.append(ConfigError("topology.k", f"neighbor degree must be an even integer >= 2, got {self.k!r}"))
        elif n_ok and self.k >= self.n:
            found.append(ConfigError("topology.k", f"neighbor degree k={self.k} must be smaller than n={self.n}"))
        if not is_number(self.p) or not 0.0 <= float(self.p) <= 1.0:
            found.append(ConfigError("topology.p", f"rewiring probability must lie in [0, 1], got {self.p!r}"))
        if self.seed is not None and (not is_integer(self.seed) or self.seed < 0 or self.seed >= 2**64):
            found.append(ConfigError("topology.seed", f"seed must be an unsigned 64-bit integer, got {self.seed!r}"))
        return found

    validate = raise_first_violation


class Network:
    """Undirected simple graph over agent indices ``0 .. n-1``.

    Edges are stored as ``(lo, hi)`` index pairs with ``lo < hi``. Two
    networks are equal when their ``n`` and ``edges`` are.
    """

    def __init__(self, n: int, edges: frozenset[tuple[int, int]]):
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop on node {a}")
            if not (0 <= a < b < n):
                raise ValueError(f"edge ({a}, {b}) is not a sorted pair of node indices below n={n}")
        self.n = n
        self.edges = edges

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Network(n={self.n!r}, edges={self.edges!r})"

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """Sorted neighbor lists, one per node."""
        neighbors: dict[int, list[int]] = {i: [] for i in range(self.n)}
        for a, b in self.edges:
            neighbors[a].append(b)
            neighbors[b].append(a)
        return {i: tuple(sorted(ns)) for i, ns in neighbors.items()}

    def degree(self, node: int) -> int:
        return len(self.adjacency[node])

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges in sorted order, suitable for transcript headers."""
        return sorted(self.edges)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Network":
        """Build a network from any iterable of unordered index pairs."""
        canonical = frozenset((min(a, b), max(a, b)) for a, b in edges)
        return cls(n=n, edges=canonical)

    @classmethod
    def complete(cls, n: int) -> "Network":
        """Fully connected graph, handy for convergence experiments."""
        return cls(n=n, edges=frozenset((a, b) for a in range(n) for b in range(a + 1, n)))


class Pairing(NamedTuple):
    """One round's partner assignment: disjoint edge pairs plus the
    agents left without an available partner."""

    round: int
    pairs: tuple[tuple[int, int], ...]
    unmatched: tuple[int, ...]


def generate_network(spec: TopologySpec) -> Network:
    """Realize the Watts-Strogatz graph for ``spec``.

    Construction: node ``i`` is linked to its ``k/2`` nearest neighbors on
    each side of the ring; every clockwise lattice edge ``(i, i+j)`` is then
    rewired with probability ``p``, replacing it by ``(i, w)`` for a
    uniformly random ``w`` that is neither ``i`` nor already adjacent to it.
    An edge whose source is already adjacent to every other node is left in
    place. Edge count is invariant: ``|edges| == n * k / 2``.
    """
    spec.validate()
    if spec.seed is None:
        raise ConfigError("topology.seed", "seed must be resolved before generating a network")
    n, k = spec.n, spec.k
    rng = Stream(spec.seed)

    adjacency: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(1, k // 2 + 1):
            b = (i + j) % n
            adjacency[i].add(b)
            adjacency[b].add(i)

    # Scan clockwise lattice edges in ring order, one rewiring decision each.
    for j in range(1, k // 2 + 1):
        for i in range(n):
            if rng.random() >= spec.p:
                continue
            b = (i + j) % n
            if len(adjacency[i]) >= n - 1:
                continue
            w = rng.integers(n)
            while w == i or w in adjacency[i]:
                w = rng.integers(n)
            adjacency[i].discard(b)
            adjacency[b].discard(i)
            adjacency[i].add(w)
            adjacency[w].add(i)

    edges = frozenset((i, b) for i in range(n) for b in adjacency[i] if i < b)
    return Network(n=n, edges=edges)


def pair_round(net: Network, round_index: int, rng: Stream) -> Pairing:
    """Draw a uniformly random greedy maximal matching on ``net``.

    Agents are visited in a random permutation; each still-unmatched agent
    is paired with a uniformly random unmatched neighbor. Agents that end
    up with no available partner sit the round out. The result is maximal:
    no two unmatched agents share an edge. ``rng`` may also be a numpy
    ``Generator``; one seeded alike gives the same pairing.
    """
    if round_index < 1:
        raise ValueError(f"round index must be >= 1, got {round_index}")
    adjacency = net.adjacency
    matched: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for a in map(int, rng.permutation(net.n)):
        if a in matched:
            continue
        candidates = [b for b in adjacency[a] if b not in matched]
        if not candidates:
            continue
        b = candidates[rng.integers(len(candidates))]
        matched.add(a)
        matched.add(b)
        pairs.append((a, b) if a < b else (b, a))
    unmatched = tuple(i for i in range(net.n) if i not in matched)
    return Pairing(round=round_index, pairs=tuple(sorted(pairs)), unmatched=unmatched)
