"""Child-process entry points of the benchmark.

    child.py setup-oracle SEED       import, context, pure oracle; say "ready"
    child.py setup-learned SEED      import, context, trained default model
    child.py import-cli              import repro.cli
    child.py calibrated-cli OUT ARGV run ``repro.cli.main(ARGV)``, as
                                     ``python -m repro ARGV`` does, and
                                     write the host-speed samples to OUT
    child.py traced-cli OUT ARGV     run ``repro.cli.main(ARGV)`` with spans on,
                                     writing them to OUT (.npz) at exit

Every mode but ``traced-cli`` samples host speed from its first line on
(``calibrate.Sampler``; modes that simulate also sample when
``Machine.run`` returns).  The
set-up modes then print ``ready {samples}``; the parent measures set-up
as the time from spawning the process until that line arrives and
converts it with the samples.  ``PYTHONPATH`` must name the checkout's
``src/`` (the parent's ``child_env`` does).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import calibrate


def _hook(sampler: calibrate.Sampler) -> None:
    from repro.sim.machine import Machine

    sampler.hook(Machine, "run")


def _ready(sampler: calibrate.Sampler) -> int:
    sampler.sample()
    print("ready " + json.dumps(sampler.report()), flush=True)
    return 0


def setup_oracle(sampler: calibrate.Sampler, seed: str) -> int:
    from campaign import oracle_context

    oracle_context(int(seed)).get_estimator()
    return _ready(sampler)


def setup_learned(sampler: calibrate.Sampler, seed: str) -> int:
    _hook(sampler)
    from campaign import learned_context

    learned_context(int(seed)).get_estimator()
    return _ready(sampler)


def import_cli(sampler: calibrate.Sampler) -> int:
    import repro.cli  # noqa: F401

    return _ready(sampler)


def calibrated_cli(sampler: calibrate.Sampler, out: str, *argv: str) -> int:
    _hook(sampler)
    import repro.cli

    try:
        return repro.cli.main(list(argv))
    finally:
        sampler.sample()
        Path(out).write_text(json.dumps(sampler.report()))


def traced_cli(out: str, *argv: str) -> int:
    from spantrace import SpanTracer

    import repro.cli

    tracer = SpanTracer().install()
    try:
        code = repro.cli.main(list(argv))
    finally:
        tracer.uninstall()
        tracer.spans().save(Path(out))
    return code


SAMPLED = {
    "setup-oracle": setup_oracle,
    "setup-learned": setup_learned,
    "import-cli": import_cli,
    "calibrated-cli": calibrated_cli,
}

if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "traced-cli":
        sys.exit(traced_cli(*args))
    sys.exit(SAMPLED[mode](calibrate.Sampler(), *args))
