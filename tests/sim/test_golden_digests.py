"""Golden ``run_digest`` table: behaviour pinned against committed digests.

The hot-vs-reference parity tests compare two paths of the *current*
code, so a change both paths share (the synthetic PMU, for one) could
drift unnoticed.  This table was generated before counter synthesis
became lazy and pins every digest as an absolute value: 4 schedulers x
2 topologies x 2 mixes x {pure oracle, learned default model}.  The
learned points also pin the trained model, whose coefficients are fitted
on counter totals, so any bit of counter drift changes them.

Sanitized and sampled runs must reproduce the plain digest; traced runs
hash their dispatch trace as well and carry their own golden value.

Regenerate (only for an intended behaviour change, and say so in the
change log)::

    PYTHONPATH=src python -m tests.sim.test_golden_digests --write
"""

from __future__ import annotations

import argparse
import json
import pathlib

import pytest

from repro.kernel.task import reset_tid_counter
from repro.model.speedup import OracleSpeedupModel
from repro.model.training import default_speedup_model
from repro.obs.context import ObsConfig
from repro.schedulers import make_scheduler
from repro.sim.digest import run_digest
from repro.sim.machine import Machine, MachineConfig
from repro.sim.topology import standard_topologies
from repro.workloads.mixes import MIXES
from repro.workloads.programs import ProgramEnv

GOLDEN = pathlib.Path(__file__).with_name("golden_digests.json")

SCHEDULERS = ("linux", "wash", "colab", "gts")
CONFIGS = ("2B2S", "4B4S")
MIX_NAMES = ("Sync-1", "Rand-10")
ESTIMATORS = ("oracle", "learned")
SEED = 13
WORK_SCALE = 0.3

#: Run variants beyond the plain run, with the golden entry they must match.
VARIANTS = {
    "sanitize": ({"sanitize": True}, "plain"),
    "timeseries": ({"timeseries": True}, "plain"),
    "trace": ({"obs": ObsConfig(trace=True, metrics=True)}, "trace"),
}


def point_key(scheduler: str, config: str, mix: str, estimator: str) -> str:
    return f"{scheduler}/{config}/{mix}/{estimator}"


POINTS = [
    (scheduler, config, mix, estimator)
    for scheduler in SCHEDULERS
    for config in CONFIGS
    for mix in MIX_NAMES
    for estimator in ESTIMATORS
]


def point_digest(
    scheduler: str, config: str, mix: str, estimator: str, **config_kwargs
) -> str:
    """Digest of one big-first run of ``mix`` on ``config``."""
    if scheduler in ("wash", "colab"):
        model = (
            OracleSpeedupModel(noise_std=0.0, seed=SEED)
            if estimator == "oracle"
            else default_speedup_model()
        )
        policy = make_scheduler(scheduler, estimator=model)
    else:
        policy = make_scheduler(scheduler)
    # Task ids are digest fields and training the default model allocates
    # some, so the counter is reset only once the model exists.
    reset_tid_counter()
    machine = Machine(
        standard_topologies()[config].with_order(True),
        policy,
        MachineConfig(seed=SEED, **config_kwargs),
    )
    env = ProgramEnv.for_machine(machine, work_scale=WORK_SCALE)
    for instance in MIXES[mix].instantiate(env):
        machine.add_program(instance)
    return run_digest(machine.run())


def generate() -> dict:
    digests = {}
    for point in POINTS:
        digests[point_key(*point)] = {
            "plain": point_digest(*point),
            "trace": point_digest(*point, **VARIANTS["trace"][0]),
        }
    return {
        "seed": SEED,
        "work_scale": WORK_SCALE,
        "big_first": True,
        "digests": digests,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    table = json.loads(GOLDEN.read_text())
    assert table["seed"] == SEED and table["work_scale"] == WORK_SCALE
    return table["digests"]


def test_table_covers_the_grid(golden):
    assert set(golden) == {point_key(*point) for point in POINTS}


@pytest.mark.parametrize("point", POINTS, ids=lambda p: point_key(*p))
def test_plain_digest_matches_golden(golden, point):
    assert point_digest(*point) == golden[point_key(*point)]["plain"]


#: Variant runs cover every scheduler and estimator on one topology/mix.
VARIANT_POINTS = [
    (scheduler, CONFIGS[-1], MIX_NAMES[-1], estimator)
    for scheduler in SCHEDULERS
    for estimator in ESTIMATORS
]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("point", VARIANT_POINTS, ids=lambda p: point_key(*p))
def test_variant_digest_matches_golden(golden, point, variant):
    config_kwargs, entry = VARIANTS[variant]
    assert point_digest(*point, **config_kwargs) == golden[point_key(*point)][entry]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Golden run_digest table")
    parser.add_argument(
        "--write", action="store_true", help=f"regenerate {GOLDEN.name}"
    )
    args = parser.parse_args(argv)
    table = generate()
    text = json.dumps(table, indent=1, sort_keys=True) + "\n"
    if args.write:
        GOLDEN.write_text(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
