"""Bulk samplers against the per-draw numpy calls they stand in for.

``build_workload`` maps a block of uniforms through
:meth:`BoundedPareto.quantiles` and :func:`categorical_picks` instead of
calling ``bounded_pareto`` and ``Generator.choice(p=...)`` once per
request.  These properties pin the two mappings to the per-draw calls
bit-for-bit, on the same uniforms.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import BoundedPareto, bounded_pareto
from repro.scenarios.samplers import categorical_picks

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(min_value=0.05, max_value=8.0),
    lower=st.floats(min_value=1e-3, max_value=100.0),
    spread=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e3)),
    seed=seeds,
)
def test_quantiles_equal_per_draw_samples(alpha, lower, spread, seed):
    upper = lower + spread
    rng = np.random.default_rng(seed)
    draws = [bounded_pareto(rng, alpha, lower, upper) for _ in range(300)]
    uniforms = np.random.default_rng(seed).random(300).tolist()
    assert BoundedPareto(alpha, lower, upper).quantiles(uniforms) == draws


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(min_value=0.1, max_value=5.0),
       lower=st.floats(min_value=0.1, max_value=10.0),
       seed=seeds)
def test_degenerate_bounds_consume_one_uniform_per_draw(alpha, lower, seed):
    dist = BoundedPareto(alpha, lower, lower)
    rng = np.random.default_rng(seed)
    assert [dist.sample(rng) for _ in range(50)] == [lower] * 50
    assert dist.quantiles([0.0, 0.5, 0.999]) == [lower] * 3
    shadow = np.random.default_rng(seed)
    shadow.random(50)
    assert rng.random() == shadow.random()


@settings(max_examples=80, deadline=None)
@given(
    weights=st.lists(st.floats(min_value=1e-3, max_value=100.0), min_size=1, max_size=4),
    seed=seeds,
)
def test_categorical_picks_equal_generator_choice(weights, seed):
    p = np.asarray(weights, dtype=float)
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    chosen = [int(rng.choice(len(p), p=p)) for _ in range(400)]
    uniforms = np.random.default_rng(seed).random(400)
    assert categorical_picks(p, uniforms).tolist() == chosen
    # choice(p=) draws exactly one uniform per call, like the block.
    assert rng.random() == np.random.default_rng(seed).random(401)[-1]
