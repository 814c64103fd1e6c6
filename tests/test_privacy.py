"""Randomization layer: two-point mechanism support, unbiasedness,
and the Monte-Carlo certification of the privacy ratio."""

import math

import numpy as np
import pytest

from tokenfl.privacy import (
    LdpConfig,
    empirical_ldp_ratio,
    perturb_gradients,
)

# Output offset of the two-point mechanism at eps = 1, radius 1:
# radius / tanh(eps / 2), frozen as a regression constant.
BOUND_EPS1 = 2.1639534137386529


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"eps": 0.0},
        {"eps": -1.0},
        {"eps": 1.0, "radius": 0.0},
        {"eps": 1.0, "mechanism": "gaussian"},
        {"eps": math.nan},
        {"eps": 1.0, "radius": math.nan},
    ])
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            LdpConfig(**kwargs)


class TestTwoPointSupport:
    def test_outputs_are_the_two_points(self):
        cfg = LdpConfig(eps=1.0)
        rng = np.random.default_rng(0)
        out = perturb_gradients(np.zeros(1000), cfg, rng)
        assert np.allclose(np.unique(out), [-BOUND_EPS1, BOUND_EPS1], rtol=1e-12)

    def test_shape_preserved(self):
        cfg = LdpConfig(eps=2.0)
        out = perturb_gradients(np.linspace(-2, 2, 17), cfg, np.random.default_rng(1))
        assert out.shape == (17,)

    def test_vanishing_noise_limit(self):
        # At enormous eps the offset collapses to the radius and the
        # extreme input maps to the upper output with probability one.
        cfg = LdpConfig(eps=1e6, radius=1.0)
        out = perturb_gradients(np.ones(500), cfg, np.random.default_rng(2))
        assert np.all(out == 1.0)

    def test_center_input_is_a_fair_coin(self):
        cfg = LdpConfig(eps=1.0)
        out = perturb_gradients(np.zeros(100_000), cfg, np.random.default_rng(3))
        upper = float((out > 0).mean())
        assert abs(upper - 0.5) < 3.0 * 0.5 / math.sqrt(100_000)

    def test_same_seed_reproduces_bits(self):
        cfg = LdpConfig(eps=1.5)
        g = np.linspace(-1, 1, 256)
        a = perturb_gradients(g, cfg, np.random.default_rng(7))
        b = perturb_gradients(g, cfg, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_out_of_range_input_clipped(self):
        cfg = LdpConfig(eps=1e6, radius=1.0)
        out = perturb_gradients(np.full(100, 37.0), cfg, np.random.default_rng(4))
        assert np.all(out == 1.0)

    def test_nonfinite_input_rejected(self):
        cfg = LdpConfig(eps=1.0)
        with pytest.raises(ValueError):
            perturb_gradients(np.array([1.0, np.nan]), cfg, np.random.default_rng(0))

    @pytest.mark.parametrize("eps,radius", [
        (1.0, 1.0),
        (15.0, 0.37),
        (15.0, 1e308),  # bound above max / 2: 2 * bound would overflow
        (40.0, np.finfo(np.float64).max),  # tanh(20) rounds to 1: bound is max
    ])
    def test_outputs_equal_the_where_formulation_bit_for_bit(self, eps, radius):
        # The two-point output written as np.where over the comparison,
        # with P(upper) computed in one expression, on the same stream.
        cfg = LdpConfig(eps=eps, radius=radius)
        rng = np.random.default_rng(11)
        top = np.finfo(np.float64).max
        g = np.concatenate([radius * rng.uniform(-1.0, 1.0, 4000),
                            [-top, -radius, -3.0, -0.0, 0.0, 3.0, radius, top]])
        t = math.tanh(eps / 2.0)
        bound = radius / t
        assert math.isfinite(bound)
        p_up = 0.5 * (1.0 + np.clip(g, -radius, radius) / radius * t)
        expected = np.where(np.random.default_rng(5).random(g.shape) < p_up, bound, -bound)
        out = perturb_gradients(g, cfg, np.random.default_rng(5))
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))
        assert set(np.unique(out)) == {-bound, bound}


class TestUnbiasedness:
    @pytest.mark.parametrize("w", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_mean_matches_input_on_grid(self, w):
        cfg = LdpConfig(eps=1.0)
        n = 100_000
        out = perturb_gradients(np.full(n, w), cfg, np.random.default_rng(11))
        stderr = math.sqrt(BOUND_EPS1**2 - w**2) / math.sqrt(n)
        assert abs(out.mean() - w) <= 3.0 * stderr


class TestLaplaceVariant:
    def test_mean_and_spread(self):
        cfg = LdpConfig(eps=2.0, mechanism="laplace")
        n = 200_000
        out = perturb_gradients(np.full(n, 0.25), cfg, np.random.default_rng(6))
        scale = 2.0 * cfg.radius / cfg.eps
        assert abs(out.mean() - 0.25) <= 4.0 * scale * math.sqrt(2.0 / n)
        assert abs(out.std() - math.sqrt(2.0) * scale) < 0.05

    def test_clips_before_noising(self):
        cfg = LdpConfig(eps=1000.0, mechanism="laplace")
        out = perturb_gradients(np.full(1000, 50.0), cfg, np.random.default_rng(8))
        assert abs(out.mean() - 1.0) < 0.1


class TestEmpiricalRatio:
    def test_identical_inputs_give_unit_ratio(self):
        cfg = LdpConfig(eps=1.0)
        est = empirical_ldp_ratio(cfg, 0.2, 0.2, 50_000, np.random.default_rng(9))
        assert not est.degenerate
        assert est.ratio == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("eps", [0.5, 1.0, 5.0])
    def test_extreme_inputs_certify_the_bound(self, eps):
        cfg = LdpConfig(eps=eps)
        n = 100_000
        est = empirical_ldp_ratio(cfg, 1.0, -1.0, n, np.random.default_rng(10))
        assert not est.degenerate
        p = 0.5 * (1.0 + math.tanh(eps / 2.0))
        true = math.exp(eps)
        stderr = true * math.sqrt((1 - p) / (n * p) + p / (n * (1 - p)))
        assert abs(est.ratio - true) <= 3.0 * stderr

    def test_degenerate_counts_flagged(self):
        # At eps = 30 the lower output is so rare that 10^5 samples of
        # the extreme inputs never see the denominator outcomes.
        cfg = LdpConfig(eps=30.0)
        est = empirical_ldp_ratio(cfg, 1.0, -1.0, 100_000, np.random.default_rng(12))
        assert est.degenerate
        assert math.isinf(est.ratio)

    def test_validation(self):
        cfg = LdpConfig(eps=1.0)
        with pytest.raises(ValueError):
            empirical_ldp_ratio(cfg, 2.0, 0.0, 50_000)
        with pytest.raises(ValueError):
            empirical_ldp_ratio(cfg, 0.5, -0.5, 9_999)
        with pytest.raises(ValueError):
            empirical_ldp_ratio(
                LdpConfig(eps=1.0, mechanism="laplace"), 0.5, -0.5, 50_000
            )
