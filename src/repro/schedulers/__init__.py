"""Scheduling policies under evaluation.

* :mod:`repro.schedulers.cfs` -- the AMP-agnostic Linux CFS baseline;
* :mod:`repro.schedulers.wash` -- the WASH re-implementation (multi-factor
  heuristic controlling *core affinity only*, selection left to CFS);
* :mod:`repro.core.colab` -- the paper's contribution (imported here for
  convenience so all three policies are available from one namespace).
"""

from repro.errors import SchedulerError
from repro.schedulers.base import Scheduler, SchedulerStats
from repro.schedulers.cfs import CFSScheduler
from repro.schedulers.gts import GTSScheduler
from repro.schedulers.wash import WASHScheduler

#: Names :func:`make_scheduler` accepts ("cfs" is an alias of "linux").
SCHEDULER_NAMES = ("linux", "cfs", "wash", "colab", "gts")


def check_scheduler_name(name: str) -> None:
    """Raise :class:`~repro.errors.SchedulerError` for an unknown name.

    Cheap enough to call on user input before any expensive setup (such
    as training the speedup model) starts.
    """
    if name.lower() not in SCHEDULER_NAMES:
        raise SchedulerError(
            f"unknown scheduler {name!r}; expected one of "
            + ", ".join(SCHEDULER_NAMES)
        )


def make_scheduler(name: str, **kwargs) -> Scheduler:
    """Build a scheduler by its evaluation name.

    Names: "linux"/"cfs", "wash", "colab", and the extension baseline
    "gts".  Extra keyword arguments are forwarded to the policy
    constructor (e.g. ``estimator=`` for WASH and COLAB).

    Raises:
        SchedulerError: if ``name`` is none of :data:`SCHEDULER_NAMES`.
    """
    from repro.core.colab import COLABScheduler

    check_scheduler_name(name)
    lowered = name.lower()
    if lowered in ("linux", "cfs"):
        return CFSScheduler(**kwargs)
    if lowered == "wash":
        return WASHScheduler(**kwargs)
    if lowered == "colab":
        return COLABScheduler(**kwargs)
    return GTSScheduler(**kwargs)


__all__ = [
    "CFSScheduler",
    "GTSScheduler",
    "SCHEDULER_NAMES",
    "Scheduler",
    "SchedulerStats",
    "WASHScheduler",
    "check_scheduler_name",
    "make_scheduler",
]
