"""Output checks that do not rely on the program.

Each check recomputes from the input and output arrays with numpy alone,
or tests a property the method must have.  None compares against a
stored copy of earlier output.  Every check returns ``None`` when the
output passes and a one-line reason when it fails; the workloads count a
failed check as a failed operation.
"""
from __future__ import annotations

import math

import numpy as np


def same_geometry(original: np.ndarray, output: np.ndarray) -> str | None:
    """``output`` has the shape and dtype of ``original``."""
    if output.shape != original.shape or output.dtype != original.dtype:
        return f"geometry {output.shape}/{output.dtype} != {original.shape}/{original.dtype}"
    return None


def within_bound(original: np.ndarray, output: np.ndarray, eb: float) -> str | None:
    """Every point of ``output`` lies within ``eb`` of ``original`` (float64)."""
    problem = same_geometry(original, output)
    if problem is not None:
        return problem
    err = np.abs(output.astype(np.float64) - original.astype(np.float64))
    worst = float(err.max()) if err.size else 0.0
    if not worst <= eb:  # also catches NaN
        return f"max error {worst!r} exceeds bound {eb!r}"
    return None


def bit_identical(a: np.ndarray, b: np.ndarray) -> str | None:
    """``a`` and ``b`` hold the same bytes (QP must not change the output)."""
    problem = same_geometry(a, b)
    if problem is not None:
        return problem
    if not np.array_equal(
        np.ascontiguousarray(a).view(np.uint8), np.ascontiguousarray(b).view(np.uint8)
    ):
        return "reconstructions differ"
    return None


def squared_error(original: np.ndarray, output: np.ndarray) -> float:
    """Sum of squared errors in float64 (slab-wise PSNR accumulates this)."""
    diff = output.astype(np.float64) - original.astype(np.float64)
    return float(np.dot(diff.ravel(), diff.ravel()))


def psnr_from(sse: float, count: int, value_range: float) -> float:
    """PSNR in dB from a summed squared error over ``count`` points."""
    mse = sse / max(1, count)
    if mse == 0.0:
        return math.inf
    return 20.0 * math.log10(value_range) - 10.0 * math.log10(mse)


def psnr(original: np.ndarray, output: np.ndarray) -> float:
    """PSNR in dB with the original's value range as the peak."""
    lo = float(original.min())
    hi = float(original.max())
    return psnr_from(squared_error(original, output), original.size, hi - lo)


def prefix_equals(prefix: bytes, rest: bytes, full: bytes) -> str | None:
    """A coarse prefix plus the refined rest is exactly the archived blob."""
    joined = bytes(prefix) + bytes(rest)
    if joined != bytes(full):
        return f"prefix+rest ({len(joined)} B) differs from the archived blob ({len(full)} B)"
    return None


def same_sizes(first: list, other: list) -> str | None:
    """The same operations gave the same number of bytes in two passes.

    ``None`` stands for an operation that failed; it is skipped."""
    if len(first) != len(other):
        return f"{len(other)} operations against {len(first)}"
    for i, (a, b) in enumerate(zip(first, other)):
        if a is not None and b is not None and a != b:
            return f"operation {i} gave {b} bytes, earlier {a}"
    return None
