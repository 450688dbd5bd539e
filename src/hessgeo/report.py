"""Deterministic verification reports."""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ConfigError

__version__ = "0.1.0"

__all__ = ["CheckResult", "VerificationReport", "measured", "require", "__version__"]


class CheckResult:
    """One named check: max residual over samples against a tolerance.

    `status` is one of "checked" (pass = residual < tolerance), "assumed"
    (hypothesis recorded, never evaluated) and "informational" (reported,
    not gating).  Negative controls are phrased as exact-value identities so
    that pass = residual < tolerance holds for them too.
    """

    def __init__(self, check_id, claim, residual, tolerance, samples, status="checked"):
        self.check_id, self.claim, self.status = check_id, claim, status
        self.residual, self.tolerance, self.samples = residual, tolerance, samples

    def __eq__(self, other):
        return type(other) is CheckResult and vars(self) == vars(other)

    @property
    def passed(self):
        if self.status != "checked":
            return True
        return self.residual < self.tolerance

    def as_dict(self):
        return {
            "check_id": self.check_id,
            "claim": self.claim,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "samples": self.samples,
            "status": self.status,
            "pass": self.passed,
        }


def measured(check_id, claim, tolerance, defects, status="checked"):
    """The entry of per-point defects (or per map and point): the residual is
    their largest value, a NaN or inf kept, and `samples` their number.  An
    empty sample reads NaN and fails."""
    defects = np.asarray(defects, dtype=float)
    residual = float(np.max(defects)) if defects.size else math.nan
    return CheckResult(check_id, claim, residual, tolerance, defects.size, status)


def require(what, entries):
    """Raises `ConfigError` at the first failed entry: how a structure
    validates, by running its own checks."""
    for entry in entries:
        if not entry.passed:
            raise ConfigError(f"{what} fails {entry.check_id}: residual {entry.residual:.2e}")


class VerificationReport:
    def __init__(self, geometry, seed, entries=None, version=__version__):
        self.geometry, self.seed, self.version = geometry, seed, version
        self.entries = [] if entries is None else entries

    def extend(self, entries):
        self.entries.extend(entries)

    def sorted_entries(self):
        return sorted(self.entries, key=lambda e: e.check_id)

    @property
    def passed(self):
        return all(e.passed for e in self.entries)

    def as_dict(self):
        return {
            "version": self.version,
            "geometry": self.geometry,
            "seed": self.seed,
            "pass": self.passed,
            "entries": [e.as_dict() for e in self.sorted_entries()],
        }

    def to_json(self):
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    def to_text(self):
        lines = [f"geometry: {self.geometry}  seed: {self.seed}  version: {self.version}"]
        for e in self.sorted_entries():
            if e.status == "checked":
                verdict = "PASS" if e.passed else "FAIL"
                lines.append(
                    f"[{verdict}] {e.check_id}: residual {e.residual:.3e} "
                    f"< {e.tolerance:.1e} ({e.samples} samples) -- {e.claim}"
                )
            else:
                lines.append(f"[{e.status.upper()}] {e.check_id}: {e.claim}")
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)
