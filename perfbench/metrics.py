"""Metric records and the small statistics the benchmark reports."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Metric:
    value: float
    samples: int


class Metrics(dict):
    """``name -> Metric``, in the order the metrics were added.

    Units are not kept here: ``BENCHMARK.json`` is the one place that
    names each metric's unit (see ``run.catalogue``).
    """

    def add(self, name: str, value: float, samples: int) -> None:
        if name in self:
            raise KeyError(f"metric {name!r} reported twice")
        self[name] = Metric(float(value), int(samples))


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (``q`` in [0, 1]) of a sample."""
    data = sorted(values)
    if not data:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))
