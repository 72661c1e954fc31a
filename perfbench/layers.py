"""Outside-in layer tracing: wrap public functions, measure self time.

The benchmark never edits the simulator.  A :class:`LayerTracer` swaps a
class attribute for a thin wrapper that counts calls and (for timed
layers) accumulates wall time, and puts the original back on
:meth:`LayerTracer.remove`.  Self time is a layer's own time minus the
time spent in wrapped layers it called, so the self times of a nested
set of layers add up to the time of the outermost one.

Timers are per thread: the job service runs its HTTP loop on one
thread while the client drives it from another, and a shared call
stack would charge one thread's time to the other's frames.
"""

from __future__ import annotations

import functools
import threading
from time import perf_counter


class _ThreadTally:
    """One thread's call stack and per-layer accumulators."""

    def __init__(self) -> None:
        self.stack: list[float] = []
        # label -> [calls, inclusive seconds, self seconds]
        self.layers: dict[str, list] = {}


class LayerTracer:
    """Installs call-counting / timing wrappers and removes them again."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tallies: list[_ThreadTally] = []
        self._tallies_lock = threading.Lock()
        self._patched: list[tuple[type, str, object]] = []
        # Every (owner, attr, original) ever wrapped, kept after remove().
        self.wrapped: list[tuple[type, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def _tally(self) -> _ThreadTally:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = self._local.tally = _ThreadTally()
            with self._tallies_lock:
                self._tallies.append(tally)
        return tally

    def _original(self, owner: type, attr: str):
        fn = owner.__dict__.get(attr)
        if not callable(fn):
            raise TypeError(f"{owner.__name__}.{attr} is not a plain function")
        return fn

    def timed(self, owner: type, attr: str, label: str) -> None:
        """Time every call of ``owner.attr`` under ``label``."""
        fn = self._original(owner, attr)
        tally_of = self._tally

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tally = tally_of()
            stack = tally.stack
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                row = tally.layers.get(label)
                if row is None:
                    row = tally.layers[label] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - children

        self._patch(owner, attr, fn, wrapper)

    def counted(self, owner: type, attr: str, label: str) -> None:
        """Count calls of ``owner.attr`` under ``label`` (no timing)."""
        fn = self._original(owner, attr)
        tally_of = self._tally

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layers = tally_of().layers
            row = layers.get(label)
            if row is None:
                row = layers[label] = [0, 0.0, 0.0]
            row[0] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, fn, wrapper)

    def _patch(self, owner: type, attr: str, fn, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, fn))
        self.wrapped.append((owner, attr, fn))

    def remove(self) -> None:
        """Restore every original, newest first."""
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def restored(self) -> bool:
        """True iff every function ever wrapped is its original again."""
        return not self._patched and all(
            owner.__dict__[attr] is fn for owner, attr, fn in self.wrapped
        )

    # -- readout --------------------------------------------------------

    def _merged(self, label: str) -> list:
        out = [0, 0.0, 0.0]
        with self._tallies_lock:
            for tally in self._tallies:
                row = tally.layers.get(label)
                if row is not None:
                    out[0] += row[0]
                    out[1] += row[1]
                    out[2] += row[2]
        return out

    def calls(self, label: str) -> int:
        return self._merged(label)[0]

    def seconds(self, label: str) -> float:
        """Inclusive wall time of ``label`` (children included)."""
        return self._merged(label)[1]

    def self_seconds(self, label: str) -> float:
        """Wall time of ``label`` minus time in wrapped callees."""
        return self._merged(label)[2]

