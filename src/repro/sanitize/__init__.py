"""Correctness tooling for the COLAB reproduction.

Three layers, one goal: the repo's determinism and kernel-contract
guarantees are machine-checked instead of enforced by convention.

* :mod:`repro.sanitize.lint` + :mod:`repro.sanitize.rules` -- a per-file
  AST lint pass (``repro lint``) with per-rule codes (DET001, DET002,
  OBS001, KERN001, ERR001, ...), text/JSON reporters, and
  ``# sanitize: ignore[CODE]`` suppressions.
* :mod:`repro.sanitize.analyze` -- whole-program analyses (``repro
  analyze``, the ANA family): interprocedural determinism taint into
  digest-relevant code, fingerprint/digest coverage contracts, and
  pickle-safety proofs for worker payloads, with SARIF output and a
  committed baseline for incremental CI gating.
* :mod:`repro.sanitize.schedsan` -- a runtime sanitizer ("schedsan") of
  read-only invariant hooks injected into the runqueues, futex table,
  and event engine behind ``MachineConfig(sanitize=True)``, raising
  :class:`repro.errors.SanitizerError` with recent trace events attached.
"""

from __future__ import annotations

from repro.sanitize.analyze import (
    analyze_paths,
    apply_baseline,
    load_baseline,
    render_sarif,
    write_baseline,
)
from repro.sanitize.lint import LintReport, Violation, lint_paths
from repro.sanitize.reporting import render_json, render_text, rule_catalogue
from repro.sanitize.schedsan import SchedSanitizer

__all__ = [
    "LintReport",
    "SchedSanitizer",
    "Violation",
    "analyze_paths",
    "apply_baseline",
    "lint_paths",
    "load_baseline",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_catalogue",
    "write_baseline",
]
