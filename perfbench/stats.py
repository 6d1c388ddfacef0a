"""Statistics the benchmark reports: medians, the tail rule, ratios that
carry their base, and trajectory digests."""

import hashlib
import math
from dataclasses import dataclass

# A tail percentile is only reported where at least this many samples lie
# beyond it, so one outlier cannot set it on its own.
TAIL_BEYOND = 10


def median(values):
    values = sorted(values)
    if not values:
        raise ValueError("median of no values")
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float  # share of samples at or below `value`, in percent
    samples: int


def tail(values):
    """The highest percentile that still has TAIL_BEYOND samples beyond it:
    the (TAIL_BEYOND + 1)-th largest sample."""
    values = sorted(values)
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"tail needs more than {TAIL_BEYOND} samples, got {n}")
    return Tail(values[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n)


@dataclass(frozen=True)
class Ratio:
    """A ratio reported together with what it was divided by."""

    value: float
    numerator: float
    base: float
    base_name: str

    def describe(self):
        return f"{self.value:.4g} = {self.numerator:.6g} / {self.base:.6g} ({self.base_name})"


def ratio(numerator, base, base_name):
    """numerator / base; 0 when the base is 0 (nothing was attempted)."""
    return Ratio(numerator / base if base else 0.0, numerator, base, base_name)


def digest(trajectory):
    """SHA-256 over the exact bit patterns of a trajectory's values."""
    h = hashlib.sha256()
    for v in trajectory:
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            # JSON writes 1.0 as 1; both must hash alike.
            token = "nan" if math.isnan(v) else float(v).hex()
        else:
            token = repr(v)
        h.update(token.encode())
        h.update(b";")
    return h.hexdigest()


def same_trajectory(a, b):
    return digest(a) == digest(b)
