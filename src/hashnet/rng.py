"""Seed-substream derivation.

Every random draw in a run descends from one root seed through numpy
``SeedSequence`` spawn keys, with one namespace per concern:

    (0,)                 network construction seed
    (1, round)           partner pairing for a round
    (2, round, agent)    per-agent backend draws within a round

Keeping the namespaces separate means adding rounds never perturbs the
network, and per-agent draws are independent of dispatch order, which is
what makes parallel and serial runs byte-identical.

A backend call receives its per-agent generator as a :class:`LazyAgentRng`
handle, which builds the generator on its first draw. Most calls never draw
(remote, replay and constant-mock calls, and imitate calls that already have
a table), so they pay nothing; the stream a draw sees is unchanged.
"""

import numpy as np

_TOPOLOGY_STREAM = 0
_PAIRING_STREAM = 1
_AGENT_STREAM = 2


def topology_seed(root_seed: int) -> int:
    """Derive the integer seed a :class:`~hashnet.topology.TopologySpec` stores."""
    seq = np.random.SeedSequence(root_seed, spawn_key=(_TOPOLOGY_STREAM,))
    return int(seq.generate_state(1, np.uint64)[0])


def pairing_rng(root_seed: int, round_index: int) -> np.random.Generator:
    """Generator driving the partner matching for one round."""
    seq = np.random.SeedSequence(root_seed, spawn_key=(_PAIRING_STREAM, round_index))
    return np.random.default_rng(seq)


def agent_rng(root_seed: int, round_index: int, agent_id: int) -> np.random.Generator:
    """Generator owned by one agent's backend call within one round."""
    seq = np.random.SeedSequence(root_seed, spawn_key=(_AGENT_STREAM, round_index, agent_id))
    return np.random.default_rng(seq)


class LazyAgentRng:
    """Stands in for ``agent_rng(root_seed, round_index, agent_id)``: the
    generator is built on the first attribute access, and every access is
    forwarded to it. One handle serves one backend call, on one thread."""

    __slots__ = ("_key", "_rng")

    def __init__(self, root_seed: int, round_index: int, agent_id: int):
        self._key = (root_seed, round_index, agent_id)
        self._rng: np.random.Generator | None = None

    def __getattr__(self, name: str):
        if self._rng is None:
            self._rng = agent_rng(*self._key)
        return getattr(self._rng, name)
