"""Deterministic RNG plumbing."""

import numpy as np
import pytest

from repro.rng import (
    BufferedUniforms, RngFactory, choose_weighted, clamp, default_rng, peek_uniforms,
)


class TestRngFactory:
    def test_same_seed_same_stream(self):
        a = RngFactory(seed=11).stream("channel").standard_normal(8)
        b = RngFactory(seed=11).stream("channel").standard_normal(8)
        assert np.allclose(a, b)

    def test_different_names_differ(self):
        f = RngFactory(seed=11)
        a = f.stream("alpha").standard_normal(8)
        b = f.stream("beta").standard_normal(8)
        assert not np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = RngFactory(seed=1).stream("x").standard_normal(8)
        b = RngFactory(seed=2).stream("x").standard_normal(8)
        assert not np.allclose(a, b)

    def test_stream_is_cached_and_continues(self):
        f = RngFactory(seed=5)
        first = f.stream("s").standard_normal()
        second = f.stream("s").standard_normal()
        # A fresh factory replays both values in order, proving continuation.
        g = RngFactory(seed=5).stream("s")
        assert g.standard_normal() == pytest.approx(first)
        assert g.standard_normal() == pytest.approx(second)

    def test_fresh_restarts_stream(self):
        f = RngFactory(seed=5)
        first = f.stream("s").standard_normal()
        restarted = f.fresh("s").standard_normal()
        assert restarted == pytest.approx(first)

    def test_order_independence(self):
        f1 = RngFactory(seed=9)
        _ = f1.stream("a").standard_normal()
        v1 = f1.stream("b").standard_normal()
        f2 = RngFactory(seed=9)
        v2 = f2.stream("b").standard_normal()
        assert v1 == pytest.approx(v2)

    def test_child_factory_independent(self):
        f = RngFactory(seed=3)
        child = f.child("worker")
        a = f.stream("x").standard_normal(4)
        b = child.stream("x").standard_normal(4)
        assert not np.allclose(a, b)

    def test_default_rng_helper(self):
        assert isinstance(default_rng(0), RngFactory)


class TestClamp:
    def test_inside_range(self):
        assert clamp(0.5, 0.0, 1.0) == 0.5

    def test_below(self):
        assert clamp(-3.0, 0.0, 1.0) == 0.0

    def test_above(self):
        assert clamp(7.0, 0.0, 1.0) == 1.0


class TestChooseWeighted:
    def test_degenerate_weight_always_chosen(self, rng):
        items = ["a", "b", "c"]
        for _ in range(20):
            assert choose_weighted(rng, items, [0.0, 1.0, 0.0]) == "b"

    def test_respects_weights_statistically(self, rng):
        items = [0, 1]
        draws = [choose_weighted(rng, items, [0.2, 0.8]) for _ in range(4000)]
        frac_one = sum(draws) / len(draws)
        assert 0.75 < frac_one < 0.85

    def test_unnormalised_weights(self, rng):
        items = ["x", "y"]
        draws = [choose_weighted(rng, items, [3.0, 1.0]) for _ in range(4000)]
        frac_x = draws.count("x") / len(draws)
        assert 0.70 < frac_x < 0.80


class TestBlockReads:
    def test_peek_leaves_the_stream_where_it_was(self):
        rng, scalar = np.random.default_rng(3), np.random.default_rng(3)
        ahead = peek_uniforms(rng, 10)
        assert ahead.tolist() == [scalar.random() for _ in range(10)]
        assert rng.random() == ahead[0]

    def test_drawing_the_used_ones_resumes_the_scalar_order(self):
        """Read ahead, use a data-dependent count, then draw another kind:
        the stream gives what scalar draws would have."""
        rng, scalar = np.random.default_rng(4), np.random.default_rng(4)
        ahead = peek_uniforms(rng, 50)
        used = int(np.argmax(ahead > 0.9)) + 1
        rng.random(used)
        for _ in range(used):
            scalar.random()
        assert rng.lognormal(3.0, 0.45) == scalar.lognormal(3.0, 0.45)
        assert rng.random() == scalar.random()

    def test_buffered_uniforms_equal_scalar_draws_across_refills(self):
        buffered, scalar = BufferedUniforms(np.random.default_rng(5)), np.random.default_rng(5)
        assert [buffered.random() for _ in range(600)] == [scalar.random() for _ in range(600)]
