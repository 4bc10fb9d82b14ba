"""Helpers shared by the three workloads."""
from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field

import numpy as np

MB = 1e6


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child.

    ``ru_maxrss`` is in KiB on Linux.  On svc-small the children are the
    gateway's pool workers, reaped when the gateway stops.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) * 1024 / MB


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default) of ``values``."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q * 100.0))


def median(values: list[float]) -> float:
    return float(statistics.median(values))


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons.

    An operation fails either because the program raised (``error``) or
    because an output check rejected what it returned (``problem``); only
    the latter makes the run's output incorrect (``wrong``).
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, op: str, problem: str | None, error: str | None = None) -> bool:
        self.attempted += 1
        if problem is None and error is None:
            return True
        self.failed += 1
        if problem is not None:
            self.wrong += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"{op}: {problem or error}")
        return False
