"""Block-drawn jitter stream: bit-identical to one scalar draw per call."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.kernel.futex import FutexTable
from repro.workloads.programs import JITTER_BLOCK, ProgramEnv, jittered

SIGMAS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2]),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)
WORKS = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
SCALES = st.floats(min_value=0.01, max_value=4.0, allow_nan=False)


def scalar_jittered(rng: np.random.Generator, scale: float, work, sigma) -> float:
    """The one-draw-per-call formula the block stream must reproduce."""
    return work * scale * float(np.exp(rng.normal(-sigma * sigma / 2, sigma)))


def make_env(seed: int, scale: float) -> ProgramEnv:
    return ProgramEnv(
        futexes=FutexTable(), rng=np.random.default_rng(seed), work_scale=scale
    )


@settings(max_examples=60, deadline=None)
@given(
    seeds=st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)),
    scales=st.tuples(SCALES, SCALES),
    pattern=st.lists(
        st.tuples(st.integers(0, 1), WORKS, SIGMAS), min_size=1, max_size=30
    ),
    n_calls=st.integers(2 * JITTER_BLOCK + 1, 5 * JITTER_BLOCK),
    build_draws=st.integers(0, 5),
)
def test_block_stream_matches_scalar_draws(
    seeds, scales, pattern, n_calls, build_draws
):
    envs = [make_env(seed, scale) for seed, scale in zip(seeds, scales)]
    twins = [np.random.default_rng(seed) for seed in seeds]
    # Build-time draws before the first jitter call are allowed.
    for env, twin in zip(envs, twins):
        assert env.rng.normal(size=build_draws).tolist() == (
            twin.normal(size=build_draws).tolist()
        )
    for call in range(n_calls):
        which, work, sigma = pattern[call % len(pattern)]
        got = jittered(envs[which], work, sigma)
        want = scalar_jittered(twins[which], scales[which], work, sigma)
        assert got == want


class TestRefillCheck:
    def test_foreign_draw_between_refills_raises(self):
        env = make_env(3, 1.0)
        jittered(env, 1.0)
        env.rng.random()
        for _ in range(JITTER_BLOCK - 1):
            jittered(env, 1.0)
        with pytest.raises(WorkloadError, match="env.rng"):
            jittered(env, 1.0)
