"""Generators: seeded rng streams, nets, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordalearn.graphs import Dag, is_chordal, moralize
from chordalearn.synthetic import (
    MAX_FAMILY_CELLS,
    DiscreteBayesNet,
    FamilyTooLargeError,
    all_joint_rows,
    ancestral_sample,
    random_chordal_target,
    random_dag,
    random_parameters,
    rng_from,
)

from conftest import joint_table


class TestRngFrom:
    def test_deterministic(self):
        a = rng_from(5, 1, 2).random(4)
        b = rng_from(5, 1, 2).random(4)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        assert not np.array_equal(rng_from(5, 0).random(4), rng_from(5, 1).random(4))
        assert not np.array_equal(rng_from(5).random(4), rng_from(6).random(4))


class TestDiscreteBayesNet:
    def chain_net(self):
        flip = np.array([[0.8, 0.2], [0.3, 0.7]])
        return DiscreteBayesNet(
            Dag(3, [(0, 1), (1, 2)]),
            (2, 2, 2),
            [np.array([[0.6, 0.4]]), flip, flip],
        )

    def test_table_shapes_validated(self):
        with pytest.raises(ValueError):
            DiscreteBayesNet(Dag(2, [(0, 1)]), (2, 2), [np.array([[0.5, 0.5]])] * 2)

    def test_rows_must_normalize(self):
        with pytest.raises(ValueError):
            DiscreteBayesNet(Dag(1), (2,), [np.array([[0.5, 0.4]])])

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            DiscreteBayesNet(Dag(1), (2,), [np.array([[1.2, -0.2]])])

    def test_log_prob_rows_manual(self):
        net = self.chain_net()
        got = net.log_prob_rows(np.array([[0, 1, 0]]))[0]
        want = math.log(0.6) + math.log(0.2) + math.log(0.3)
        assert abs(got - want) < 1e-12

    def test_joint_table_sums_to_one(self):
        net = self.chain_net()
        t = joint_table(net)
        assert t.shape == (8,)
        assert abs(t.sum() - 1.0) < 1e-12

    def test_zero_parameter_gives_neg_inf(self):
        net = DiscreteBayesNet(Dag(1), (2,), [np.array([[1.0, 0.0]])])
        lp = net.log_prob_rows(np.array([[1]]))
        assert np.isneginf(lp[0])

    def test_json_roundtrip(self):
        rng = rng_from(2)
        d = random_dag(4, 2, rng)
        net = random_parameters(d, (2, 3, 2, 2), rng)
        again = DiscreteBayesNet.from_json(net.to_json())
        assert again == net

    def test_json_deterministic(self):
        net = self.chain_net()
        assert net.to_json() == net.to_json()

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(1, 3), min_size=n, max_size=n),
                st.integers(0, n - 1),
                st.integers(0, 2**32 - 1),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_json_roundtrip_property(self, drawn):
        arities, max_parents, seed = drawn
        rng = rng_from(seed)
        net = random_parameters(random_dag(len(arities), max_parents, rng), arities, rng)
        text = net.to_json()
        again = DiscreteBayesNet.from_json(text)
        assert again == net
        assert again.to_json() == text

    @pytest.mark.parametrize(
        "text",
        [
            "{",
            "[]",
            "null",
            '{"n": 2}',
            '{"n": "2", "arcs": [], "arities": [2, 2], "tables": [[0.5, 0.5], [0.5, 0.5]]}',
            '{"n": 2, "arcs": 5, "arities": [2, 2], "tables": [[0.5, 0.5], [0.5, 0.5]]}',
            '{"n": 2, "arcs": [[0]], "arities": [2, 2], "tables": [[0.5, 0.5], [0.5, 0.5]]}',
            '{"n": 2, "arcs": [[0, 1], [1, 0]], "arities": [2, 2], "tables": [[0.5, 0.5], [0.5, 0.5]]}',
            '{"n": 2, "arcs": [], "arities": [2], "tables": [[0.5, 0.5], [0.5, 0.5]]}',
            '{"n": 2, "arcs": [], "arities": [2, 2], "tables": [[0.5, 0.5]]}',
            '{"n": 2, "arcs": [[0, 1]], "arities": [2, 2], "tables": [[0.5, 0.5], [0.5, 0.5]]}',
            '{"n": 2, "arcs": [], "arities": [2, 2], "tables": [[0.5, 0.5], [0.5, 0.6]]}',
            '{"n": 2, "arcs": [], "arities": [2, 2], "tables": [[0.5, 0.5], [0.5, "x"]]}',
        ],
    )
    def test_malformed_json_rejected(self, text):
        with pytest.raises(ValueError):
            DiscreteBayesNet.from_json(text)


class TestAllJointRows:
    def test_order_lowest_index_fastest(self):
        rows = all_joint_rows((2, 3))
        assert rows.tolist() == [
            [0, 0],
            [1, 0],
            [0, 1],
            [1, 1],
            [0, 2],
            [1, 2],
        ]


class TestRandomDag:
    def test_constraints_respected(self):
        rng = rng_from(7)
        for _ in range(40):
            d = random_dag(6, 3, rng)
            assert all(len(p) <= 3 for p in d.parents)
            d.topological_order()  # acyclic by construction

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            random_dag(4, 4, rng_from(0))
        with pytest.raises(ValueError):
            random_dag(4, -1, rng_from(0))

    def test_seeded_reproducibility(self):
        assert random_dag(6, 3, rng_from(9)) == random_dag(6, 3, rng_from(9))


class TestRandomParameters:
    def test_family_past_the_bound_raises_before_drawing(self):
        # vertex 25 of a binary star has 25 parents: 2^26 cells, 512 MiB
        star = Dag(26, [(u, 25) for u in range(25)])
        rng = rng_from(3)
        state = rng.bit_generator.state
        with pytest.raises(FamilyTooLargeError, match=f"vertex 25 would have {1 << 26} cells"):
            random_parameters(star, (2,) * 26, rng)
        assert rng.bit_generator.state == state
        assert 1 << 26 > MAX_FAMILY_CELLS

    def test_rows_normalized(self):
        rng = rng_from(11)
        net = random_parameters(random_dag(5, 2, rng), (2, 3, 2, 4, 2), rng)
        for t in net.tables:
            assert np.allclose(t.sum(axis=1), 1.0)

    def test_min_prob_floor(self):
        rng = rng_from(13)
        net = random_parameters(random_dag(5, 2, rng), (3,) * 5, rng, min_prob=0.05)
        for t in net.tables:
            assert t.min() >= 0.05 - 1e-12

    def test_min_prob_validated(self):
        rng = rng_from(13)
        with pytest.raises(ValueError):
            random_parameters(Dag(1), (4,), rng, min_prob=0.3)


class TestRandomChordalTarget:
    def test_graph_chordal_and_net_faithful_to_lines(self):
        rng = rng_from(17)
        for _ in range(25):
            chordal, net = random_chordal_target(6, rng)
            assert is_chordal(chordal.graph)
            # the oriented net has no v-structures, so moralization gives
            # back exactly the chordal line set
            assert moralize(net.dag) == chordal.graph

    def test_custom_arities(self):
        rng = rng_from(19)
        _, net = random_chordal_target(4, rng, arities=(2, 3, 2, 3))
        assert net.arities == (2, 3, 2, 3)


class TestAncestralSample:
    def test_shape_and_bounds(self):
        rng = rng_from(23)
        _, net = random_chordal_target(5, rng, arities=(2, 3, 2, 3, 2))
        data = ancestral_sample(net, 500, rng)
        assert data.rows.shape == (500, 5)
        assert data.arities == net.arities
        for v in range(5):
            assert data.rows[:, v].max() < net.arities[v]
            assert data.rows[:, v].min() >= 0

    def test_deterministic(self):
        _, net = random_chordal_target(4, rng_from(29))
        a = ancestral_sample(net, 50, rng_from(31))
        b = ancestral_sample(net, 50, rng_from(31))
        assert np.array_equal(a.rows, b.rows)

    def test_empirical_joint_converges(self):
        # frequencies over the full joint within 4 sigma per cell
        net = DiscreteBayesNet(
            Dag(2, [(0, 1)]),
            (2, 2),
            [np.array([[0.7, 0.3]]), np.array([[0.9, 0.1], [0.2, 0.8]])],
        )
        count = 200000
        data = ancestral_sample(net, count, rng_from(37))
        codes = data.rows[:, 0] + 2 * data.rows[:, 1]
        freq = np.bincount(codes, minlength=4) / count
        probs = joint_table(net)
        sigma = np.sqrt(probs * (1 - probs) / count)
        assert np.all(np.abs(freq - probs) < 4 * sigma + 1e-12)

    def test_zero_rows(self):
        _, net = random_chordal_target(3, rng_from(41))
        data = ancestral_sample(net, 0, rng_from(43))
        assert data.n_rows == 0
        with pytest.raises(ValueError):
            ancestral_sample(net, -1, rng_from(43))
