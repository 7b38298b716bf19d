"""The package's PCG64 stream against numpy, its oracle: same seeds, same
draws, and the network and pairings a run builds from them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashnet import Network, TopologySpec, generate_network, pair_round, topology
from hashnet.rng import Stream, generate_state, pairing_rng, topology_seed


def numpy_rng(entropy, spawn_key=()):
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=spawn_key))


calls = st.lists(
    st.one_of(
        st.tuples(st.just("permutation"), st.integers(0, 300)),
        st.tuples(st.just("integers"), st.one_of(
            st.just(1), st.sampled_from([2, 3, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32]),
            st.integers(1, 2**32),
        )),
        st.tuples(st.just("random"), st.none()),
    ),
    max_size=25,
)


class TestNumpyEquality:
    @given(
        st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 2**160)),
        st.lists(st.one_of(st.integers(0, 20), st.integers(0, 2**40)), max_size=4).map(tuple),
        calls,
    )
    @settings(max_examples=200, deadline=None)
    def test_every_call_equals_numpy(self, entropy, spawn_key, sequence):
        ours, theirs = Stream(entropy, spawn_key), numpy_rng(entropy, spawn_key)
        for name, arg in sequence:
            if name == "permutation":
                assert ours.permutation(arg) == theirs.permutation(arg).tolist()
            elif name == "integers":
                assert ours.integers(arg) == int(theirs.integers(arg))
            else:
                assert ours.random() == float(theirs.random())

    @given(st.integers(0, 2**160), st.lists(st.integers(0, 2**40), max_size=4).map(tuple), st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_generate_state_equals_numpy(self, entropy, spawn_key, n_words):
        expected = np.random.SeedSequence(entropy, spawn_key=spawn_key).generate_state(n_words)
        assert generate_state(entropy, spawn_key, n_words) == expected.tolist()

    @pytest.mark.parametrize("root_seed", [0, 3, 7, 17, 2**32, 2**64 - 1])
    def test_topology_seed_is_numpy_uint64_state(self, root_seed):
        expected = np.random.SeedSequence(root_seed, spawn_key=(0,)).generate_state(1, np.uint64)
        assert topology_seed(root_seed) == int(expected[0])

    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 3, 2**64 - 1])
    def test_integer_seed_equals_default_rng(self, seed):
        ours, theirs = Stream(seed), np.random.default_rng(seed)
        assert [ours.random() for _ in range(5)] == theirs.random(5).tolist()
        assert [ours.integers(100) for _ in range(5)] == theirs.integers(100, size=5).tolist()

    def test_integers_of_one_draws_nothing(self):
        ours, theirs = Stream(9, (1, 2)), numpy_rng(9, (1, 2))
        assert ours.integers(1) == int(theirs.integers(1)) == 0
        assert ours._state is None
        assert ours.integers(1000) == int(theirs.integers(1000))


class TestUnsupported:
    @pytest.mark.parametrize("high", [0, -1, 2**32 + 1, 2**40, 2**64])
    def test_integers_outside_32_bits_refused(self, high):
        stream = Stream(1, (2,))
        with pytest.raises(ValueError):
            stream.integers(high)
        assert stream._state is None

    def test_permutation_past_32_bit_indices_refused(self):
        with pytest.raises(ValueError):
            Stream(1).permutation(2**32 + 1)

    def test_negative_entropy_refused(self):
        with pytest.raises(ValueError):
            Stream(-1).random()


def _numpy_network(monkeypatch, spec):
    with monkeypatch.context() as patch:
        patch.setattr(topology, "Stream", np.random.default_rng)
        return generate_network(spec)


class TestRunDraws:
    @pytest.mark.parametrize("spec", [
        TopologySpec(n=100, k=6, p=0.1, seed=topology_seed(3)),
        TopologySpec(n=20, k=4, p=0.1, seed=topology_seed(7)),
        TopologySpec(n=12, k=10, p=1.0, seed=11),
        TopologySpec(n=30, k=4, p=0.5, seed=2**64 - 1),
    ])
    def test_generate_network_equals_numpy_driven(self, monkeypatch, spec):
        assert generate_network(spec) == _numpy_network(monkeypatch, spec)

    def test_sim_mock_pairings_equal_numpy_driven(self, monkeypatch):
        # the sim_mock benchmark workload at seed 3: n=100, k=6, p=0.1, 300 rounds
        seed = 3
        spec = TopologySpec(n=100, k=6, p=0.1, seed=topology_seed(seed))
        net = generate_network(spec)
        assert net == _numpy_network(monkeypatch, spec)
        for round_index in range(1, 301):
            ours = pair_round(net, round_index, pairing_rng(seed, round_index))
            theirs = pair_round(net, round_index, numpy_rng(seed, (1, round_index)))
            assert ours == theirs
            assert all(type(agent) is int for pair in ours.pairs for agent in pair)

    def test_pairing_rng_is_lazy(self):
        stream = pairing_rng(3, 1)
        assert stream._state is None
        pair_round(Network.complete(4), 1, stream)
        assert stream._state is not None
