"""Range checks shared by the parameter dataclasses; each raises ValueError naming the field."""

import math
from numbers import Integral


def check_int(name: str, value, low: int) -> None:
    """An integer (numpy integers included, bool excluded) of at least ``low``."""
    if not isinstance(value, Integral) or isinstance(value, bool) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def check_float(name: str, value, low: float, high: float = math.inf, strict=False) -> None:
    """A finite number in [low, high], or in (low, high] when ``strict``."""
    if not (math.isfinite(value) and (value > low if strict else value >= low) and value <= high):
        span = f"> {low}" if strict else f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be finite and {span}, got {value!r}")
