"""Fitting, divergence estimation, structure diffs, results CSV."""

import math

import numpy as np
import pytest

from chordalearn.evaluation import (
    RESULT_COLUMNS,
    KlEstimate,
    ResultRow,
    fit_parameters,
    kl_estimate,
    kl_exact,
    line_diff,
    results_from_csv,
    results_to_csv,
)
from chordalearn.graphs import ChordalGraph, Dag, UndirectedGraph
from chordalearn.scoring import Dataset
from chordalearn.synthetic import (
    DiscreteBayesNet,
    ancestral_sample,
    random_chordal_target,
    rng_from,
)

from conftest import joint_table


class TestFitParameters:
    def test_posterior_mean_manual(self):
        # one binary variable, counts 3/1, ess 1: theta = (3.5/5, 1.5/5)
        data = Dataset([[0], [0], [0], [1]])
        net = fit_parameters(Dag(1), data, ess=1.0)
        assert np.allclose(net.tables[0], [[0.7, 0.3]])

    def test_unseen_configuration_uniform(self):
        # parent state 1 never appears: the fitted row is uniform
        data = Dataset([[0, 0], [0, 1]], arities=(2, 2))
        net = fit_parameters(Dag(2, [(0, 1)]), data)
        assert np.allclose(net.tables[1][1], [0.5, 0.5])

    def test_rows_always_positive_and_normalized(self):
        rng = rng_from(3)
        _, truth = random_chordal_target(5, rng)
        data = ancestral_sample(truth, 200, rng)
        net = fit_parameters(ChordalGraph.empty(5), data)
        for t in net.tables:
            assert np.allclose(t.sum(axis=1), 1.0)
            assert t.min() > 0

    def test_chordal_structure_oriented(self):
        rng = rng_from(5)
        g, truth = random_chordal_target(4, rng)
        data = ancestral_sample(truth, 100, rng)
        net = fit_parameters(g, data)
        assert UndirectedGraph(net.dag.n, net.dag.arcs) == g.graph

    def test_vertex_count_mismatch(self):
        with pytest.raises(ValueError):
            fit_parameters(Dag(3), Dataset([[0, 1]]))


class TestKlExact:
    def test_zero_for_identical_models(self):
        rng = rng_from(7)
        _, net = random_chordal_target(4, rng)
        assert kl_exact(net, net) == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_sum(self):
        rng = rng_from(11)
        _, p = random_chordal_target(4, rng)
        _, q = random_chordal_target(4, rng)
        pj = joint_table(p)
        qj = joint_table(q)
        want = float(np.sum(pj * (np.log(pj) - np.log(qj))))
        assert kl_exact(p, q) == pytest.approx(want, abs=1e-10)

    def test_nonnegative_on_random_pairs(self):
        rng = rng_from(13)
        for _ in range(30):
            _, p = random_chordal_target(4, rng)
            _, q = random_chordal_target(4, rng)
            assert kl_exact(p, q) >= -1e-12

    def test_fitting_true_structure_converges(self):
        rng = rng_from(17)
        g, truth = random_chordal_target(4, rng, min_prob=0.05)
        small = ancestral_sample(truth, 100, rng)
        large = ancestral_sample(truth, 50000, rng)
        kl_small = kl_exact(truth, fit_parameters(g, small))
        kl_large = kl_exact(truth, fit_parameters(g, large))
        assert kl_large < kl_small
        assert kl_large < 0.01

    def test_state_space_mismatch(self):
        net2 = DiscreteBayesNet(Dag(1), (2,), [np.array([[0.5, 0.5]])])
        net3 = DiscreteBayesNet(Dag(1), (3,), [np.array([[0.3, 0.3, 0.4]])])
        with pytest.raises(ValueError):
            kl_exact(net2, net3)


class TestKlEstimate:
    def test_matches_manual_mean_and_se(self):
        rng = rng_from(19)
        _, p = random_chordal_target(3, rng)
        _, q = random_chordal_target(3, rng)
        test = ancestral_sample(p, 400, rng)
        est = kl_estimate(p, q, test)
        ratios = p.log_prob_rows(test.rows) - q.log_prob_rows(test.rows)
        assert est.kl == pytest.approx(float(np.mean(ratios)), abs=1e-12)
        assert est.se == pytest.approx(
            float(np.std(ratios, ddof=1) / math.sqrt(len(ratios))), abs=1e-12
        )

    def test_empty_test_set_rejected(self):
        rng = rng_from(23)
        _, p = random_chordal_target(3, rng)
        with pytest.raises(ValueError):
            kl_estimate(p, p, ancestral_sample(p, 0, rng))

    def test_zero_fitted_probability_rejected(self):
        p = DiscreteBayesNet(Dag(1), (2,), [np.array([[0.5, 0.5]])])
        q = DiscreteBayesNet(Dag(1), (2,), [np.array([[1.0, 0.0]])])
        test = Dataset([[1]], arities=(2,))
        with pytest.raises(ValueError):
            kl_estimate(p, q, test)

    def test_estimator_consistent_with_exact(self):
        # single deterministic trial at large test size: the estimate must
        # land within 4 standard errors of the exact value
        rng = rng_from(29)
        g, truth = random_chordal_target(5, rng, min_prob=0.05)
        fitted = fit_parameters(g, ancestral_sample(truth, 2000, rng))
        test = ancestral_sample(truth, 10000, rng)
        est = kl_estimate(truth, fitted, test)
        exact = kl_exact(truth, fitted)
        assert abs(est.kl - exact) < 4 * est.se


class TestLineDiff:
    def test_counts(self):
        learned = UndirectedGraph(4, [(0, 1), (1, 2)])
        target = UndirectedGraph(4, [(1, 2), (2, 3), (0, 3)])
        assert line_diff(learned, target) == (1, 2)

    def test_chordal_graph_accepted(self):
        g = ChordalGraph.from_lines(3, [(0, 1)])
        assert line_diff(g, UndirectedGraph(3)) == (1, 0)

    def test_mismatched_sizes(self):
        with pytest.raises(ValueError):
            line_diff(UndirectedGraph(3), UndirectedGraph(4))


def sample_row(**overrides):
    base = dict(
        target_kind="chordal",
        n_vars=4,
        n_obs=100,
        replicate=0,
        learner="chordal",
        kl=0.5,
        kl_se=0.01,
        dim_learned=7,
        dim_target=9,
        fp_lines=1,
        fn_lines=2,
        seed=3,
        kl_exact=0.4,
    )
    base.update(overrides)
    return ResultRow(**base)


class TestResultsCsv:
    def test_roundtrip(self):
        rows = [sample_row(), sample_row(replicate=1, kl_exact=None)]
        text = results_to_csv(rows)
        assert results_from_csv(text) == rows

    def test_header_matches_columns(self):
        text = results_to_csv([sample_row()])
        assert text.splitlines()[0] == ",".join(RESULT_COLUMNS)

    def test_float_cells_use_repr(self):
        row = sample_row(kl=0.1 + 0.2)
        assert repr(0.1 + 0.2) in results_to_csv([row])

    def test_missing_exact_serializes_empty(self):
        line = results_to_csv([sample_row(kl_exact=None)]).splitlines()[1]
        assert line.endswith(",")

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            results_from_csv("a,b,c\n1,2,3\n")

    def test_sort_key_groups_grid_cells(self):
        rows = [
            sample_row(n_obs=1000, learner="dag"),
            sample_row(n_obs=100, learner="chordal"),
            sample_row(n_obs=100, learner="dag"),
        ]
        ordered = sorted(rows, key=lambda r: r.sort_key())
        assert [(r.n_obs, r.learner) for r in ordered] == [
            (100, "chordal"),
            (100, "dag"),
            (1000, "dag"),
        ]
