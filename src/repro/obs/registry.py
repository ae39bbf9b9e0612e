"""Shared metrics registry: thread-safe instruments, one exposition.

:class:`MetricsRegistry` is the one place any subsystem registers an
instrument; the serve layer's ``/metrics`` endpoint is a renderer over
it.

Three instrument kinds, matching what the Prometheus text exposition
(version 0.0.4) can carry:

* :class:`Counter` — monotonic total, or with a ``label`` a family over
  that one dimension;
* :class:`Gauge` — value that goes up and down;
* :class:`Histogram` — fixed-bucket cumulative histogram.

Counter and Gauge share one storage and one renderer; every one of
them is read as ``value(label_value="")``.

Every mutation takes the instrument's lock, so N threads incrementing
concurrently lose nothing — the registry is shared between the serving
event loop, its executor threads, and whatever the jobs layer runs.

A process-global default registry (:func:`default_registry`) collects
instruments from subsystems that have no natural owner object (jobs
cache counters, FDT decision gauges, injected faults).  Callsites
use the get-or-create accessors (:meth:`MetricsRegistry.counter` and
friends) rather than holding instrument references across a
:func:`reset_default_registry`, so tests can start from a clean slate.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Iterable, TypeVar, Union

#: Default latency buckets (seconds): sub-millisecond cache hits
#: through multi-second cold simulations.
LATENCY_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


def _format_value(value: float) -> str:
    """Prometheus sample value: integers bare, floats via ``repr``."""
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r"\"")
            .replace("\n", r"\n"))


class _Value:
    """One float per label value, and its exposition.

    An unlabelled instrument keeps one value under ``""`` and always
    renders it; a family (``label`` set) renders only the label values
    it has seen, sorted.  :class:`Counter` and :class:`Gauge` differ
    only in how the value may move.
    """

    __slots__ = ("name", "help", "label", "_values", "_lock")
    kind = ""

    def __init__(self, name: str, help_text: str, label: str = "") -> None:
        self.name = name
        self.help = help_text
        self.label = label
        self._values: dict[str, float] = {} if label else {"": 0.0}
        self._lock = threading.Lock()

    def _add(self, label_value: str, amount: float) -> None:
        with self._lock:
            self._values[label_value] = self._values.get(label_value, 0.0) \
                + amount

    def value(self, label_value: str = "") -> float:
        return self._values.get(label_value, 0.0)

    def render(self) -> list[str]:
        with self._lock:
            samples = sorted(self._values.items())
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} {self.kind}"]
        for label_value, value in samples:
            labels = (f'{{{self.label}="{_escape_label(label_value)}"}}'
                      if self.label else "")
            lines.append(f"{self.name}{labels} {_format_value(value)}")
        return lines


class Counter(_Value):
    """Monotonic total; with a ``label``, a family over that dimension."""

    __slots__ = ()
    kind = "counter"

    def inc(self, label_value: str = "", amount: float = 1.0) -> None:
        self._add(label_value, amount)


class Gauge(_Value):
    """Value that goes up and down (in-flight requests, last estimate)."""

    __slots__ = ()
    kind = "gauge"

    def inc(self, amount: float = 1.0) -> None:
        self._add("", amount)

    def dec(self, amount: float = 1.0) -> None:
        self._add("", -amount)

    def set(self, value: float) -> None:
        with self._lock:
            self._values[""] = value


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics)."""

    __slots__ = ("name", "help", "buckets", "_counts", "sum", "count",
                 "_lock")

    def __init__(self, name: str, help_text: str,
                 buckets: Iterable[float] = LATENCY_BUCKETS) -> None:
        self.name = name
        self.help = help_text
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.sum += value
            self.count += 1
            # Per-bucket tallies; render() turns them cumulative.
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[i] += 1
                    return

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} histogram"]
        cumulative = 0
        for bound, bucket_count in zip(self.buckets, self._counts):
            cumulative += bucket_count
            lines.append(f'{self.name}_bucket{{le="{_format_value(bound)}"}}'
                         f" {cumulative}")
        lines.append(f'{self.name}_bucket{{le="+Inf"}} {self.count}')
        lines.append(f"{self.name}_sum {_format_value(self.sum)}")
        lines.append(f"{self.name}_count {self.count}")
        return lines


Instrument = Union[Counter, Gauge, Histogram]
_I = TypeVar("_I", Counter, Gauge, Histogram)


class MetricsRegistry:
    """Named instruments, rendered together in registration order.

    Every accessor is get-or-create, idempotent per name; asking for a
    name under another kind, or a counter under another label, raises.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Instrument] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, kind: type[_I], name: str, *args: Any) -> _I:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = kind(name, *args)
            if not isinstance(instrument, kind):
                raise ValueError(
                    f"instrument {name!r} already registered as "
                    f"{type(instrument).__name__}, not {kind.__name__}")
            return instrument

    def counter(self, name: str, help_text: str,
                label: str = "") -> Counter:
        counter = self._get_or_create(Counter, name, help_text, label)
        if counter.label != label:
            raise ValueError(f"counter {name!r} already registered with "
                             f"label {counter.label!r}, not {label!r}")
        return counter

    def gauge(self, name: str, help_text: str) -> Gauge:
        return self._get_or_create(Gauge, name, help_text)

    def histogram(self, name: str, help_text: str,
                  buckets: Iterable[float] = LATENCY_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help_text, buckets)

    def render_prometheus(self) -> str:
        """The full text exposition (version 0.0.4) of this registry."""
        with self._lock:
            instruments = list(self._instruments.values())
        lines = [line for instrument in instruments
                 for line in instrument.render()]
        return "\n".join(lines) + "\n" if lines else ""


# -- the process-global default registry ------------------------------

_default = MetricsRegistry()
_default_lock = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The registry subsystem-level instruments register into."""
    return _default


def reset_default_registry() -> MetricsRegistry:
    """Replace the default registry with a fresh one (tests).

    Callsites that use the get-or-create accessors on every update pick
    up the new registry automatically; holding an instrument reference
    across a reset keeps updating the orphaned one.
    """
    global _default
    with _default_lock:
        _default = MetricsRegistry()
    return _default
