"""Synthetic PMU tests: profiles, speedup function, counter accumulation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import counters as counters_module
from repro.sim.counters import (
    COUNTER_TABLE,
    INFORMATIVE_NAMES,
    INSTRUCTIONS_PER_WORK,
    PENDING_LIMIT,
    WIDE_VECTOR_SIZE,
    MicroArchProfile,
    PerformanceCounters,
    counter_names,
    profile_from_traits,
    wide_vector,
)
from tests.conftest import FAST_PROFILE, NEUTRAL_PROFILE, SLOW_PROFILE

unit = st.floats(0.0, 1.0)


class EagerCounters:
    """Reference PMU: synthesises every record at once, scalar draws.

    This is the accumulation the lazy :class:`PerformanceCounters` must
    reproduce bit for bit: five scalar noise draws per compute record, in
    counter order, each amount added with ``+=`` as it is produced.
    """

    def __init__(self, profile: MicroArchProfile, rng: np.random.Generator) -> None:
        self.profile = profile
        self.rng = rng
        self.totals = dict.fromkeys(INFORMATIVE_NAMES, 0.0)
        self.window = dict.fromkeys(INFORMATIVE_NAMES, 0.0)

    def _bump(self, name: str, amount: float) -> None:
        self.totals[name] += amount
        self.window[name] += amount

    def record_compute(self, work: float, cpu_time: float) -> None:
        if work < 0 or cpu_time < 0:
            raise SimulationError(f"negative accounting: work={work} t={cpu_time}")
        if work == 0.0:
            return
        insts = work * INSTRUCTIONS_PER_WORK
        p = self.profile

        def noisy(rate: float) -> float:
            return insts * rate * max(0.0, 1.0 + self.rng.normal(0.0, 0.05))

        self._bump("commit.committedInsts", insts)
        self._bump("fp_regfile_writes", noisy(0.05 + 0.40 * p.ilp))
        self._bump("fetch.Branches", noisy(0.02 + 0.20 * p.branchiness))
        self._bump("rename.SQFullEvents", noisy(0.002 + 0.05 * p.store_pressure))
        self._bump("dcache.tags.tagsinuse", noisy(0.05 + 0.60 * p.mem_bound))
        self._bump(
            "fetch.IcacheWaitRetryStallCycles",
            noisy(0.005 + 0.12 * p.frontend_stall),
        )

    def record_wait(self, wait_time: float) -> None:
        if wait_time < 0:
            raise SimulationError(f"negative wait time {wait_time}")
        cycles = wait_time * 2.0e6 * (0.5 + 0.5 * self.profile.quiesce)
        self._bump("quiesceCycles", cycles)

    def read_window(self, reset: bool = True) -> dict[str, float]:
        snapshot = dict(self.window)
        if reset:
            for name in self.window:
                self.window[name] = 0.0
        return snapshot

    def normalized(self) -> dict[str, float]:
        insts = self.totals["commit.committedInsts"]
        if insts <= 0.0:
            return {name: 0.0 for name in INFORMATIVE_NAMES[:-1]}
        return {name: self.totals[name] / insts for name in INFORMATIVE_NAMES[:-1]}


class TestProfile:
    def test_field_range_validated(self):
        with pytest.raises(SimulationError):
            MicroArchProfile(
                ilp=1.5, branchiness=0, store_pressure=0,
                mem_bound=0, frontend_stall=0, quiesce=0,
            )

    def test_speedup_bounds(self):
        assert 1.0 <= SLOW_PROFILE.speedup() <= 2.9
        assert 1.0 <= FAST_PROFILE.speedup() <= 2.9

    def test_compute_bound_faster_than_memory_bound(self):
        assert FAST_PROFILE.speedup() > SLOW_PROFILE.speedup()

    def test_fast_profile_near_ceiling(self):
        assert FAST_PROFILE.speedup() > 2.4

    def test_slow_profile_near_floor(self):
        assert SLOW_PROFILE.speedup() < 1.25

    @given(unit, unit, unit, unit, unit, unit)
    @settings(max_examples=100, deadline=None)
    def test_speedup_always_in_range(self, a, b, c, d, e, f):
        profile = MicroArchProfile(a, b, c, d, e, f)
        assert 1.0 <= profile.speedup() <= 2.9

    @given(unit, unit)
    @settings(max_examples=50, deadline=None)
    def test_speedup_monotone_in_ilp(self, ilp, mem):
        lower = MicroArchProfile(max(0.0, ilp - 0.2), 0.3, 0.3, mem, 0.2, 0.2)
        higher = MicroArchProfile(min(1.0, ilp + 0.2), 0.3, 0.3, mem, 0.2, 0.2)
        assert higher.speedup() >= lower.speedup() - 1e-12

    def test_profile_from_traits_deterministic_per_rng(self):
        p1 = profile_from_traits(0.5, 0.5, 0.5, np.random.default_rng(7))
        p2 = profile_from_traits(0.5, 0.5, 0.5, np.random.default_rng(7))
        assert p1 == p2

    def test_profile_from_traits_tracks_traits(self):
        rng = np.random.default_rng(0)
        compute = profile_from_traits(0.95, 0.05, 0.1, rng, jitter=0.0)
        memory = profile_from_traits(0.05, 0.95, 0.1, rng, jitter=0.0)
        assert compute.ilp > memory.ilp
        assert memory.mem_bound > compute.mem_bound


class TestCounterAccumulation:
    def make(self, profile=NEUTRAL_PROFILE, seed=0):
        return PerformanceCounters(profile=profile, rng=np.random.default_rng(seed))

    def test_initial_zero(self):
        counters = self.make()
        assert all(v == 0.0 for v in counters.totals.values())
        assert set(counters.totals) == set(INFORMATIVE_NAMES)

    def test_committed_insts_exact(self):
        counters = self.make()
        counters.record_compute(work=2.0, cpu_time=3.0)
        assert counters.totals["commit.committedInsts"] == pytest.approx(
            2.0 * INSTRUCTIONS_PER_WORK
        )

    def test_zero_work_noop(self):
        counters = self.make()
        counters.record_compute(work=0.0, cpu_time=0.0)
        assert counters.totals["commit.committedInsts"] == 0.0

    def test_negative_work_rejected(self):
        with pytest.raises(SimulationError):
            self.make().record_compute(work=-1.0, cpu_time=1.0)

    def test_negative_wait_rejected(self):
        with pytest.raises(SimulationError):
            self.make().record_wait(-0.5)

    def test_wait_accumulates_quiesce_only(self):
        counters = self.make()
        counters.record_wait(5.0)
        assert counters.totals["quiesceCycles"] > 0
        assert counters.totals["commit.committedInsts"] == 0.0

    def test_ilp_drives_regfile_writes(self):
        fast = self.make(FAST_PROFILE, seed=1)
        slow = self.make(SLOW_PROFILE, seed=1)
        fast.record_compute(10.0, 10.0)
        slow.record_compute(10.0, 10.0)
        assert (
            fast.totals["fp_regfile_writes"] > slow.totals["fp_regfile_writes"]
        )

    def test_mem_bound_drives_dcache_tags(self):
        fast = self.make(FAST_PROFILE, seed=1)
        slow = self.make(SLOW_PROFILE, seed=1)
        fast.record_compute(10.0, 10.0)
        slow.record_compute(10.0, 10.0)
        assert (
            slow.totals["dcache.tags.tagsinuse"]
            > fast.totals["dcache.tags.tagsinuse"]
        )

    def test_window_read_and_reset(self):
        counters = self.make()
        counters.record_compute(1.0, 1.0)
        window = counters.read_window(reset=True)
        assert window["commit.committedInsts"] > 0
        assert counters.window["commit.committedInsts"] == 0.0
        # totals survive the reset
        assert counters.totals["commit.committedInsts"] > 0

    def test_window_read_without_reset(self):
        counters = self.make()
        counters.record_compute(1.0, 1.0)
        counters.read_window(reset=False)
        assert counters.window["commit.committedInsts"] > 0

    def test_normalized_divides_by_insts(self):
        counters = self.make()
        counters.record_compute(4.0, 4.0)
        normalized = counters.normalized()
        insts = counters.totals["commit.committedInsts"]
        for name, value in normalized.items():
            assert value == pytest.approx(counters.totals[name] / insts)
        assert "commit.committedInsts" not in normalized

    def test_normalized_empty_is_zero(self):
        normalized = self.make().normalized()
        assert all(v == 0.0 for v in normalized.values())


class TestWideVector:
    def test_shape_and_names(self):
        names = counter_names()
        assert len(names) == WIDE_VECTOR_SIZE
        assert names[: len(INFORMATIVE_NAMES)] == list(INFORMATIVE_NAMES)
        assert len(set(names)) == WIDE_VECTOR_SIZE

    def test_table2_rows_present(self):
        assert len(COUNTER_TABLE) == 7
        assert COUNTER_TABLE[-1].name == "commit.committedInsts"
        letters = [row.index for row in COUNTER_TABLE]
        assert letters == list("ABCDEFG")

    def test_wide_vector_embeds_informative_values(self, rng):
        counters = PerformanceCounters(
            profile=NEUTRAL_PROFILE, rng=np.random.default_rng(0)
        )
        counters.record_compute(5.0, 5.0)
        vector = wide_vector(counters.totals, rng)
        assert vector.shape == (WIDE_VECTOR_SIZE,)
        for i, name in enumerate(INFORMATIVE_NAMES):
            assert vector[i] == pytest.approx(counters.totals[name])

    def test_distractors_nonnegative(self, rng):
        counters = PerformanceCounters(
            profile=NEUTRAL_PROFILE, rng=np.random.default_rng(0)
        )
        counters.record_compute(5.0, 5.0)
        vector = wide_vector(counters.totals, rng)
        assert (vector >= 0).all()

    def test_distractors_scale_with_instructions(self):
        small = {name: 0.0 for name in INFORMATIVE_NAMES}
        small["commit.committedInsts"] = 1e4
        big = dict(small, **{"commit.committedInsts": 1e8})
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        v_small = wide_vector(small, rng_a)
        v_big = wide_vector(big, rng_b)
        assert v_big[len(INFORMATIVE_NAMES):].sum() > v_small[
            len(INFORMATIVE_NAMES):
        ].sum()


# ----------------------------------------------------------------------
# Lazy synthesis vs the eager reference
# ----------------------------------------------------------------------
profiles = st.builds(MicroArchProfile, unit, unit, unit, unit, unit, unit)

operations = st.one_of(
    st.tuples(
        st.just("compute"),
        st.one_of(st.just(0.0), st.floats(1e-6, 50.0)),
        st.floats(0.0, 50.0),
    ),
    st.tuples(st.just("wait"), st.floats(0.0, 20.0)),
    st.tuples(st.just("read"), st.booleans()),
    st.tuples(st.just("reset")),
    st.tuples(st.just("totals")),
    st.tuples(st.just("window")),
    st.tuples(st.just("normalized")),
)


def replay(lazy: PerformanceCounters, eager: EagerCounters, ops) -> None:
    """Apply ``ops`` to both implementations, comparing every read."""
    for op in ops:
        kind = op[0]
        if kind == "compute":
            lazy.record_compute(op[1], op[2])
            eager.record_compute(op[1], op[2])
        elif kind == "wait":
            lazy.record_wait(op[1])
            eager.record_wait(op[1])
        elif kind == "read":
            assert lazy.read_window(reset=op[1]) == eager.read_window(reset=op[1])
        elif kind == "reset":
            # reset_window discards the window the reference reads away.
            lazy.reset_window()
            eager.read_window(reset=True)
        elif kind == "totals":
            assert lazy.totals == eager.totals
        elif kind == "window":
            assert lazy.window == eager.window
        else:
            assert lazy.normalized() == eager.normalized()
    assert lazy.totals == eager.totals
    assert lazy.window == eager.window


class TestLazySynthesis:
    @given(profiles, st.integers(0, 2**32 - 1), st.lists(operations, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_eager(self, profile, seed, ops):
        replay(
            PerformanceCounters(profile, np.random.default_rng(seed)),
            EagerCounters(profile, np.random.default_rng(seed)),
            ops,
        )

    @given(profiles, st.integers(0, 2**32 - 1), st.lists(operations, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_bit_identical_across_forced_flushes(self, profile, seed, ops):
        """A tiny pending limit flushes mid-window; nothing may change."""
        original = counters_module.PENDING_LIMIT
        counters_module.PENDING_LIMIT = 3
        try:
            replay(
                PerformanceCounters(profile, np.random.default_rng(seed)),
                EagerCounters(profile, np.random.default_rng(seed)),
                ops,
            )
        finally:
            counters_module.PENDING_LIMIT = original

    @given(profiles, st.integers(0, 2**63 - 1), st.lists(operations, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_seeded_counters_match_eager_generator(self, profile, seed, ops):
        """An integer seed builds ``default_rng(seed)`` on first synthesis."""
        replay(
            PerformanceCounters(profile, np.int64(seed)),
            EagerCounters(profile, np.random.default_rng(seed)),
            ops,
        )

    def test_seeded_counters_build_no_generator_until_read(self):
        counters = PerformanceCounters(NEUTRAL_PROFILE, 11)
        counters.record_compute(1.0, 1.0)
        counters.reset_window()
        assert counters.rng == 11
        assert counters.totals["fetch.Branches"] > 0
        assert isinstance(counters.rng, np.random.Generator)

    def test_reset_window_excludes_earlier_pending_records(self):
        replay(
            PerformanceCounters(NEUTRAL_PROFILE, np.random.default_rng(2)),
            EagerCounters(NEUTRAL_PROFILE, np.random.default_rng(2)),
            [
                ("compute", 2.0, 2.0),
                ("reset",),
                ("compute", 1.0, 1.0),
                ("window",),
                ("compute", 3.0, 3.0),
                ("reset",),
                ("read", False),
                ("totals",),
            ],
        )

    def test_pending_buffer_is_bounded(self):
        counters = PerformanceCounters(NEUTRAL_PROFILE, np.random.default_rng(0))
        eager = EagerCounters(NEUTRAL_PROFILE, np.random.default_rng(0))
        for i in range(3 * PENDING_LIMIT + 5):
            counters.record_compute(0.5 + (i % 7) * 0.25, 1.0)
            eager.record_compute(0.5 + (i % 7) * 0.25, 1.0)
            assert len(counters._pending) < PENDING_LIMIT
        assert counters.totals == eager.totals

    def test_no_noise_drawn_until_read(self):
        rng = np.random.default_rng(4)
        counters = PerformanceCounters(NEUTRAL_PROFILE, rng)
        state = rng.bit_generator.state
        for _ in range(10):
            counters.record_compute(1.0, 1.0)
        counters.record_wait(2.0)
        counters.reset_window()
        assert rng.bit_generator.state == state
        assert counters.totals["fetch.Branches"] > 0
        assert rng.bit_generator.state != state

    @pytest.mark.parametrize(
        "call",
        [
            lambda c: c.record_compute(-1.0, 1.0),
            lambda c: c.record_compute(1.0, -1.0),
            lambda c: c.record_wait(-0.5),
        ],
    )
    def test_negative_inputs_raise_at_record_time(self, call):
        rng = np.random.default_rng(9)
        counters = PerformanceCounters(NEUTRAL_PROFILE, rng)
        eager = EagerCounters(NEUTRAL_PROFILE, np.random.default_rng(9))
        counters.record_compute(2.0, 2.0)
        eager.record_compute(2.0, 2.0)
        state = rng.bit_generator.state
        with pytest.raises(SimulationError):
            call(counters)
        # The rejected record neither queued nor forced a synthesis.
        assert rng.bit_generator.state == state
        assert len(counters._pending) == 1
        assert counters.totals == eager.totals
