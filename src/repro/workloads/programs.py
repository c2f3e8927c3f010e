"""Program instantiation plumbing shared by all benchmark models.

A *program* is one application of a multi-programmed workload: a set of
tasks sharing synchronisation objects.  :class:`ProgramEnv` carries the
per-machine resources a model needs (the futex table its primitives park
on, the RNG all stochastic structure derives from, and a global work
scale), and :class:`ProgramInstance` is the finished bundle handed to
:meth:`repro.sim.machine.Machine.add_program`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import WorkloadError
from repro.kernel.futex import FutexTable
from repro.kernel.task import Task
from repro.sim.counters import MicroArchProfile, profile_from_traits

#: Sentinel item that tells a pipe consumer to shut down.
POISON = "__poison__"

#: Standard normals drawn per refill of an env's jitter buffer.
JITTER_BLOCK = 256

#: Upper bound of the finiteness checks (a module global is a cheap load).
_INF = math.inf


@dataclass
class ProgramEnv:
    """Resources available to workload builders.

    Attributes:
        futexes: The machine's futex table (primitives must park there so
            blocking feeds the criticality metric).
        rng: Deterministic randomness source for structure jitter.
        work_scale: Multiplies every compute segment; lets the experiment
            harness shrink simulations uniformly without changing their
            relative structure.

    Jitter-stream contract: builders may draw from ``rng`` freely while
    they build tasks, but once the first :func:`jittered` call has run,
    ``rng`` belongs to the jitter stream alone.  :func:`jittered` draws
    standard normals ``JITTER_BLOCK`` at a time into a buffer; a draw
    from ``rng`` by anyone else between two refills would be silently
    folded into the stream, so each refill checks that the generator
    state is still the one the previous refill left and raises
    :class:`~repro.errors.WorkloadError` otherwise.
    """

    futexes: FutexTable
    rng: np.random.Generator
    work_scale: float = 1.0
    #: Standard normals of the current block (``None`` before the first
    #: jitter draw).
    _normals: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Index of the next unused normal; ``JITTER_BLOCK`` forces a refill.
    _next: int = field(default=JITTER_BLOCK, init=False, repr=False, compare=False)
    #: Lognormal factors of the current block, per sigma seen in it.
    _factors: dict[float, list[float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: ``rng.bit_generator.state`` right after the last refill.
    _rng_state: dict | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def for_machine(cls, machine, work_scale: float = 1.0) -> "ProgramEnv":
        """Build an env bound to ``machine``'s futex table and RNG."""
        return cls(
            futexes=machine.futexes,
            rng=np.random.default_rng(machine.rng.integers(0, 2**63)),
            work_scale=work_scale,
        )


@dataclass
class ProgramInstance:
    """One instantiated application: name + its tasks."""

    name: str
    app_id: int
    tasks: list[Task] = field(default_factory=list)

    @property
    def n_threads(self) -> int:
        return len(self.tasks)


@dataclass(frozen=True)
class Traits:
    """Benchmark-level behavioural traits in [0, 1] each.

    These drive both the latent micro-architectural profiles (hence the
    ground-truth core sensitivity) and nothing else -- synchronisation
    structure is explicit in the action streams.
    """

    compute_intensity: float
    memory_intensity: float
    sync_intensity: float

    def __post_init__(self) -> None:
        for name in ("compute_intensity", "memory_intensity", "sync_intensity"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise WorkloadError(f"trait {name}={value} outside [0,1]")


def make_profile(
    env: ProgramEnv, traits: Traits, jitter: float = 0.08
) -> MicroArchProfile:
    """Sample one thread's latent profile from benchmark traits."""
    return profile_from_traits(
        compute_intensity=traits.compute_intensity,
        memory_intensity=traits.memory_intensity,
        sync_intensity=traits.sync_intensity,
        rng=env.rng,
        jitter=jitter,
    )


def make_task(
    env: ProgramEnv,
    name: str,
    app_id: int,
    traits: Traits,
    generator,
    profile: MicroArchProfile | None = None,
) -> Task:
    """Build a task with a (possibly overridden) sampled profile."""
    return Task(
        name=name,
        app_id=app_id,
        actions=generator,
        profile=profile if profile is not None else make_profile(env, traits),
    )


def _refill_jitter(env: ProgramEnv) -> None:
    """Draw the next block of standard normals into ``env``'s buffer."""
    rng = env.rng
    if env._rng_state is not None and rng.bit_generator.state != env._rng_state:
        raise WorkloadError(
            "env.rng was drawn from after the jitter stream started; "
            "draw build-time randomness before any task runs"
        )
    env._normals = rng.standard_normal(JITTER_BLOCK)
    env._rng_state = rng.bit_generator.state
    env._factors.clear()
    env._next = 0


def jittered(env: ProgramEnv, work: float, sigma: float = 0.2) -> float:
    """Scaled work with lognormal jitter (never negative, mean ~= work).

    Returns ``work * env.work_scale * exp(N(-sigma**2 / 2, sigma))``, one
    normal per call from ``env.rng``, bit-identical to a scalar
    ``np.exp(env.rng.normal(-sigma * sigma / 2, sigma))`` per call.  The
    normals come from a buffer refilled ``JITTER_BLOCK`` at a time with
    ``rng.standard_normal``: ``Generator.normal(loc, scale)`` is
    ``loc + scale * z`` for the next ziggurat draw ``z``, so a block is
    the same stream, and the factors of a block are computed once per
    sigma with the same vectorised ``np.exp``.  See :class:`ProgramEnv`
    for the contract this puts on ``env.rng``.

    Raises:
        WorkloadError: ``work`` or ``sigma`` is negative or not finite.
    """
    if not 0.0 <= work < _INF:
        if work < 0:
            raise WorkloadError(f"negative work {work}")
        raise WorkloadError(f"work must be finite, got {work}")
    if not 0.0 <= sigma < _INF:
        raise WorkloadError(f"jitter sigma must be finite and >= 0, got {sigma}")
    index = env._next
    if index == JITTER_BLOCK:
        _refill_jitter(env)
        index = 0
    env._next = index + 1
    factors = env._factors.get(sigma)
    if factors is None:
        factors = np.exp(-sigma * sigma / 2 + sigma * env._normals).tolist()
        env._factors[sigma] = factors
    return work * env.work_scale * factors[index]
