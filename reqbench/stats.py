"""Tail percentiles the benchmark reports.

A tail percentile is reported only when at least :data:`MIN_BEYOND`
samples lie beyond it; medians and quartiles come straight from
``statistics``.
"""

from __future__ import annotations

import statistics

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to support it."""


def percentile(values, p: int, min_beyond: int = MIN_BEYOND) -> float:
    """The ``p``-th percentile, refused unless ``min_beyond`` samples exceed it."""
    values = sorted(values)
    if len(values) < 2:
        raise TooFewSamples(f"p{p} of {len(values)} samples")
    value = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    beyond = sum(1 for v in values if v > value)
    if beyond < min_beyond:
        raise TooFewSamples(
            f"p{p} of {len(values)} samples has {beyond} beyond it "
            f"(needs {min_beyond})"
        )
    return value
