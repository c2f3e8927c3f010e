"""Synthetic performance-monitoring unit (the gem5 stats substitute).

The paper's speedup model (Table 2) is built offline: run every benchmark
in single-program mode on all-big and all-little machines, record **all 225
gem5 performance counters** of the big cores plus the measured relative
speedup, select the six most informative counters with PCA, normalise them
by committed instructions, and fit a linear regression.

We reproduce that pipeline end to end, which requires a counter substrate
with the same statistical shape:

* every thread has a latent :class:`MicroArchProfile` -- ILP, branchiness,
  store-queue pressure, memory-boundedness, frontend stalls, quiesce
  tendency -- from which its *ground-truth* big-vs-little speedup is a
  fixed function (:meth:`MicroArchProfile.speedup`);
* the seven counters of the paper's Table 2 accumulate during execution at
  rates driven by that profile (with multiplicative noise), so they carry a
  learnable speedup signal;
* :func:`wide_vector` expands a snapshot to the full 225-counter vector by
  adding distractor counters (noise plus mild instruction-count coupling),
  so the PCA selection stage has real work to do.

Counter synthesis is lazy (see :class:`PerformanceCounters`): accounting
only queues each slice's instruction count, and the noise draws happen in
one batch when a window or total is read.  The batch draws the same
RNG stream and sums in the same order as per-slice accumulation, so every
value is bit-identical to it, and runs that never read counters never pay
for synthesis.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError

# ---------------------------------------------------------------------------
# Table 2: the counters the paper's PCA selects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterSpec:
    """One row of the paper's Table 2 counter list."""

    index: str
    name: str
    description: str


#: The seven counters of Table 2 (A-F are model inputs, G the normaliser).
COUNTER_TABLE: tuple[CounterSpec, ...] = (
    CounterSpec("A", "fp_regfile_writes", "# integer regfile writes"),
    CounterSpec("B", "fetch.Branches", "# branches encountered"),
    CounterSpec("C", "rename.SQFullEvents", "SQ-full blocks"),
    CounterSpec("D", "quiesceCycles", "interrupt waiting cycles"),
    CounterSpec("E", "dcache.tags.tagsinuse", "tags of dcache in use"),
    CounterSpec("F", "fetch.IcacheWaitRetryStallCycles", "MSHR-full stall cycles"),
    CounterSpec("G", "commit.committedInsts", "instructions committed"),
)

#: Names of the informative counters, in Table 2 order.
INFORMATIVE_NAMES: tuple[str, ...] = tuple(s.name for s in COUNTER_TABLE)

#: Committed instructions per work unit (1 work unit = 1 big-core ms at an
#: assumed ~1.5 IPC x 2 GHz, scaled down; absolute value is arbitrary, only
#: ratios matter to the model).
INSTRUCTIONS_PER_WORK = 3.0e6

#: Total width of the synthetic counter vector (matches the 225 gem5 stats
#: the paper records before PCA).
WIDE_VECTOR_SIZE = 225


def counter_names() -> list[str]:
    """Names of all :data:`WIDE_VECTOR_SIZE` synthetic counters."""
    names = list(INFORMATIVE_NAMES)
    names += [f"distractor.{i:03d}" for i in range(WIDE_VECTOR_SIZE - len(names))]
    return names


# ---------------------------------------------------------------------------
# Latent micro-architectural profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MicroArchProfile:
    """Latent thread characteristics in [0, 1] each.

    Attributes:
        ilp: Exploitable instruction-level parallelism; drives the benefit
            of the big core's out-of-order pipeline.
        branchiness: Branch density; mildly correlated with control-heavy
            code that still benefits from the big core's predictor.
        store_pressure: Store-queue occupancy; high values both reflect and
            reward out-of-order buffering.
        mem_bound: Fraction of time stalled on memory; erodes the big
            core's advantage (both cores wait on DRAM at similar speed).
        frontend_stall: Instruction-fetch stall tendency.
        quiesce: Propensity to sit in interrupt-wait (sync-heavy threads).
    """

    ilp: float
    branchiness: float
    store_pressure: float
    mem_bound: float
    frontend_stall: float
    quiesce: float

    def __post_init__(self) -> None:
        for name in (
            "ilp",
            "branchiness",
            "store_pressure",
            "mem_bound",
            "frontend_stall",
            "quiesce",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SimulationError(f"profile field {name}={value} outside [0,1]")

    def speedup(self) -> float:
        """Ground-truth big-vs-little speedup of this profile.

        The functional form composes the 2.0/1.2 GHz frequency ratio with
        an out-of-order benefit that grows with ILP and store pressure and
        shrinks with memory- and frontend-boundedness.  The result is
        clipped to [1.0, 2.9] -- big cores are never slower, and 2.9x is
        roughly the A57-vs-A53 ceiling reported for compute-bound kernels.
        """
        freq_ratio = 2.0 / 1.2
        ooo_benefit = 1.0 + 0.55 * self.ilp + 0.15 * self.store_pressure
        erosion = 1.0 + 0.85 * self.mem_bound + 0.25 * self.frontend_stall
        return float(np.clip(freq_ratio * ooo_benefit / erosion, 1.0, 2.9))


def profile_from_traits(
    compute_intensity: float,
    memory_intensity: float,
    sync_intensity: float,
    rng: np.random.Generator,
    jitter: float = 0.08,
) -> MicroArchProfile:
    """Derive a latent profile from benchmark-level traits.

    Args:
        compute_intensity: 0..1, how compute-bound (drives ILP).
        memory_intensity: 0..1, how memory-bound (erodes speedup).
        sync_intensity: 0..1, how synchronisation-heavy (drives quiesce).
        rng: Source of per-thread jitter, so threads of one benchmark are
            similar but not identical.
        jitter: Standard deviation of the additive per-field noise.
    """

    def clamped(base: float) -> float:
        # Same value as float(np.clip(v, 0.0, 1.0)) for a Python float.
        return min(max(base + rng.normal(0.0, jitter), 0.0), 1.0)

    return MicroArchProfile(
        ilp=clamped(0.15 + 0.75 * compute_intensity),
        branchiness=clamped(0.2 + 0.4 * compute_intensity * (1 - memory_intensity)),
        store_pressure=clamped(0.1 + 0.5 * compute_intensity),
        mem_bound=clamped(0.08 + 0.8 * memory_intensity),
        frontend_stall=clamped(0.1 + 0.35 * memory_intensity),
        quiesce=clamped(0.05 + 0.85 * sync_intensity),
    )


# ---------------------------------------------------------------------------
# Per-task counter accumulation
# ---------------------------------------------------------------------------


#: Counters synthesised from compute records, in the column order of a
#: materialisation: committed instructions (exact), then the five noisy
#: counters in the order their noise factors are drawn from the RNG stream.
_SYNTH_NAMES: tuple[str, ...] = (
    "commit.committedInsts",
    "fp_regfile_writes",
    "fetch.Branches",
    "rename.SQFullEvents",
    "dcache.tags.tagsinuse",
    "fetch.IcacheWaitRetryStallCycles",
)

#: Pending compute records are materialised once this many have queued up,
#: so a task whose counters are never read holds bounded memory.
PENDING_LIMIT = 1024


class PerformanceCounters:
    """Accumulating PMU state of one task.

    Two accumulator sets are kept: lifetime totals (training) and a window
    that the 10 ms labeler reads and resets (online prediction).

    Synthesis is lazy.  :meth:`record_compute` validates its arguments and
    queues the slice's instruction count; the noisy counters are only
    synthesised when :attr:`totals`, :attr:`window`, :meth:`read_window`
    or :meth:`normalized` is read (or :data:`PENDING_LIMIT` records have
    queued).  A materialisation draws ``5 * n`` noise factors in one
    ``Generator.normal`` call -- numpy consumes the bit-stream exactly as
    ``n`` five-value (or ``5 * n`` scalar) draws would -- and folds each
    counter with a sequential ``np.cumsum`` starting from its current
    value, which performs the same IEEE additions, in the same order, as
    one ``+=`` per record.  Every total and window is therefore
    bit-identical to eager accumulation, while runs that never read their
    counters (CFS, GTS, baselines, oracle-driven policies) skip the noise
    synthesis on every accounted slice.

    ``rng`` is the noise Generator, or an integer seed: the first
    materialisation then builds ``np.random.default_rng(seed)``, so a task
    whose counters are never synthesised never builds a Generator.
    """

    __slots__ = (
        "profile", "rng", "_totals", "_window", "_rates", "_pending", "_mark"
    )

    def __init__(
        self, profile: MicroArchProfile, rng: np.random.Generator | int
    ) -> None:
        self.profile = profile
        self.rng = rng
        self._totals = dict.fromkeys(INFORMATIVE_NAMES, 0.0)
        self._window = dict.fromkeys(INFORMATIVE_NAMES, 0.0)
        p = profile
        # Per-instruction rates of the noisy counters, in _SYNTH_NAMES[1:]
        # order; a fixed function of the frozen profile.
        self._rates = np.array(
            [
                0.05 + 0.40 * p.ilp,
                0.02 + 0.20 * p.branchiness,
                0.002 + 0.05 * p.store_pressure,
                0.05 + 0.60 * p.mem_bound,
                0.005 + 0.12 * p.frontend_stall,
            ]
        )
        #: Instruction counts of compute records not yet synthesised.
        self._pending = array("d")
        #: Pending records before this index precede the last window reset
        #: and count towards the totals only.
        self._mark = 0

    # -- accumulation -------------------------------------------------------
    def record_compute(self, work: float, cpu_time: float) -> None:
        """Account ``work`` units retired over ``cpu_time`` ms of execution.

        Counter rates are per-instruction functions of the latent profile
        with ~5% multiplicative noise, so windows are informative but not
        oracle-clean -- the regression model has realistic residuals.
        """
        if work < 0 or cpu_time < 0:
            raise SimulationError(f"negative accounting: work={work} t={cpu_time}")
        if work == 0.0:
            return
        pending = self._pending
        pending.append(work * INSTRUCTIONS_PER_WORK)
        if len(pending) >= PENDING_LIMIT:
            self._materialise()

    def record_wait(self, wait_time: float) -> None:
        """Account blocked time as quiesce (interrupt-wait) cycles."""
        if wait_time < 0:
            raise SimulationError(f"negative wait time {wait_time}")
        # 2 GHz big-core cycles per ms of quiescence, profile-weighted.  No
        # compute record touches this counter, so it is accumulated eagerly.
        cycles = wait_time * 2.0e6 * (0.5 + 0.5 * self.profile.quiesce)
        self._totals["quiesceCycles"] += cycles
        self._window["quiesceCycles"] += cycles

    def _materialise(self) -> None:
        """Fold every pending compute record into the accumulators."""
        pending = self._pending
        n = len(pending)
        if n == 0:
            return
        totals = self._totals
        window = self._window
        rng = self.rng
        if not isinstance(rng, np.random.Generator):
            rng = self.rng = np.random.default_rng(rng)
        insts = np.frombuffer(pending)
        noise = rng.normal(0.0, 0.05, 5 * n).reshape(n, 5)
        # Row 0 holds the current values; row i the amounts of record i.
        # Columns 0-5 feed the totals and columns 6-11 the window, whose
        # rows before the mark stay 0.0 (the window was reset after them).
        steps = np.empty((n + 1, 12))
        steps[0] = [totals[name] for name in _SYNTH_NAMES] + [
            window[name] for name in _SYNTH_NAMES
        ]
        steps[1:, 0] = insts
        steps[1:, 1:6] = insts[:, None] * self._rates * np.maximum(0.0, 1.0 + noise)
        steps[1:, 6:] = steps[1:, :6]
        steps[1 : self._mark + 1, 6:] = 0.0
        sums = np.cumsum(steps, axis=0)[-1].tolist()
        for i, name in enumerate(_SYNTH_NAMES):
            totals[name] = sums[i]
            window[name] = sums[i + 6]
        self._pending = array("d")
        self._mark = 0

    # -- snapshots ------------------------------------------------------------
    @property
    def totals(self) -> dict[str, float]:
        """Lifetime accumulators (materialised on read)."""
        self._materialise()
        return self._totals

    @property
    def window(self) -> dict[str, float]:
        """Accumulators since the last window reset (materialised on read)."""
        self._materialise()
        return self._window

    def read_window(self, reset: bool = True) -> dict[str, float]:
        """Return the per-window accumulators, optionally resetting them."""
        self._materialise()
        snapshot = dict(self._window)
        if reset:
            self.reset_window()
        return snapshot

    def reset_window(self) -> None:
        """Start a new window without synthesising the one it discards.

        Records still pending stay queued for the totals; the mark keeps
        them out of the new window.
        """
        window = self._window
        for name in window:
            window[name] = 0.0
        self._mark = len(self._pending)

    def normalized(self, source: dict[str, float] | None = None) -> dict[str, float]:
        """Counters A-F divided by committed instructions (Table 2 form)."""
        values = source if source is not None else self.totals
        insts = values.get("commit.committedInsts", 0.0)
        if insts <= 0.0:
            return {name: 0.0 for name in INFORMATIVE_NAMES[:-1]}
        return {name: values[name] / insts for name in INFORMATIVE_NAMES[:-1]}


def wide_vector(
    informative: dict[str, float], rng: np.random.Generator
) -> np.ndarray:
    """Expand a 7-counter snapshot to the full 225-counter vector.

    The distractor counters are dominated by noise with a mild coupling to
    committed instructions (most real gem5 counters scale with work done
    but carry no extra speedup information), so PCA-based selection must
    genuinely find the informative columns.

    Args:
        informative: Snapshot containing at least the Table 2 counters.
        rng: Noise source for the distractor columns.

    Returns:
        Vector of length :data:`WIDE_VECTOR_SIZE` in :func:`counter_names`
        order.
    """
    insts = max(informative.get("commit.committedInsts", 0.0), 1.0)
    values = [informative[name] for name in INFORMATIVE_NAMES]
    n_distractors = WIDE_VECTOR_SIZE - len(values)
    noise = rng.normal(1.0, 0.35, size=n_distractors)
    distractors = np.abs(insts * _DISTRACTOR_SCALES * noise)
    return np.concatenate([np.asarray(values, dtype=float), distractors])


#: Fixed per-column rates for the distractor counters: like real PMU events,
#: each distractor has a stable characteristic rate across samples (so it is
#: a plausible counter, not obvious garbage) but its per-sample variation is
#: pure noise, uncorrelated with speedup.
_DISTRACTOR_SCALES = np.random.Generator(np.random.PCG64(0x5EED)).uniform(
    0.001, 0.2, size=WIDE_VECTOR_SIZE - len(INFORMATIVE_NAMES)
)
