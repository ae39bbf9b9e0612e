"""Shared metrics registry: thread-safe instruments, one exposition.

Before this module, each layer grew its own counters — the serve layer
had an inline metrics panel, jobs counted hits in manifests, bench kept
trial times privately.  :class:`MetricsRegistry` is the one place any
subsystem registers an instrument; the serve layer's ``/metrics``
endpoint is just a renderer over it.

Four instrument kinds, matching what the Prometheus text exposition
(version 0.0.4) can carry:

* :class:`Counter` — monotonic total;
* :class:`LabeledCounter` — counter family with one label dimension;
* :class:`Gauge` — value that goes up and down;
* :class:`Histogram` — fixed-bucket cumulative histogram.

Every mutation takes the instrument's lock, so N threads incrementing
concurrently lose nothing — the registry is shared between the serving
event loop, its executor threads, and whatever the jobs layer runs.

A process-global default registry (:func:`default_registry`) collects
instruments from subsystems that have no natural owner object (jobs
cache counters, FDT decision gauges, bench trial timings).  Callsites
use the get-or-create accessors (:meth:`MetricsRegistry.counter` and
friends) rather than holding instrument references across a
:func:`reset_default_registry`, so tests can start from a clean slate.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, Union

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


class Counter:
    """Monotonic counter."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help = help_text
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def render(self) -> list[str]:
        return [f"# HELP {self.name} {self.help}",
                f"# TYPE {self.name} counter",
                f"{self.name} {_format_value(self._value)}"]


class LabeledCounter:
    """Counter family with a single label dimension."""

    __slots__ = ("name", "help", "label", "_values", "_lock")

    def __init__(self, name: str, help_text: str, label: str) -> None:
        self.name = name
        self.help = help_text
        self.label = label
        self._values: dict[str, float] = {}
        self._lock = threading.Lock()

    def inc(self, label_value: str, amount: float = 1.0) -> None:
        with self._lock:
            self._values[label_value] = self._values.get(label_value, 0.0) \
                + amount

    def value(self, label_value: str) -> float:
        return self._values.get(label_value, 0.0)

    @property
    def total(self) -> float:
        return sum(self._values.values())

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} counter"]
        for label_value in sorted(self._values):
            lines.append(
                f'{self.name}{{{self.label}="{_escape_label(label_value)}"}}'
                f" {_format_value(self._values[label_value])}")
        return lines


class Gauge:
    """Value that goes up and down (in-flight requests, last estimate)."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help = help_text
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        return self._value

    def render(self) -> list[str]:
        return [f"# HELP {self.name} {self.help}",
                f"# TYPE {self.name} gauge",
                f"{self.name} {_format_value(self._value)}"]


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics)."""

    __slots__ = ("name", "help", "buckets", "_counts", "_sum", "_count",
                 "_lock")

    def __init__(self, name: str, help_text: str,
                 buckets: Iterable[float] = LATENCY_BUCKETS) -> None:
        self.name = name
        self.help = help_text
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * len(self.buckets)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            # Per-bucket tallies; render() turns them cumulative.
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[i] += 1
                    return

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} histogram"]
        cumulative = 0
        for bound, bucket_count in zip(self.buckets, self._counts):
            cumulative += bucket_count
            lines.append(f'{self.name}_bucket{{le="{_format_value(bound)}"}}'
                         f" {cumulative}")
        lines.append(f'{self.name}_bucket{{le="+Inf"}} {self._count}')
        lines.append(f"{self.name}_sum {_format_value(self._sum)}")
        lines.append(f"{self.name}_count {self._count}")
        return lines


Instrument = Union[Counter, LabeledCounter, Gauge, Histogram]


class MetricsRegistry:
    """Named instruments, rendered together in registration order."""

    def __init__(self) -> None:
        self._instruments: dict[str, Instrument] = {}
        self._lock = threading.Lock()

    def register(self, instrument: Instrument) -> Instrument:
        """Add an instrument; the name must be new."""
        with self._lock:
            if instrument.name in self._instruments:
                raise ValueError(
                    f"instrument {instrument.name!r} already registered")
            self._instruments[instrument.name] = instrument
        return instrument

    def _get_or_create(self, kind: type, name: str, *args: object) -> Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if type(existing) is not kind:
                    raise ValueError(
                        f"instrument {name!r} already registered as "
                        f"{type(existing).__name__}, not {kind.__name__}")
                return existing
            instrument = kind(name, *args)
            self._instruments[name] = instrument
            return instrument

    # -- get-or-create accessors (idempotent per name) ----------------

    def counter(self, name: str, help_text: str) -> Counter:
        instrument = self._get_or_create(Counter, name, help_text)
        assert isinstance(instrument, Counter)
        return instrument

    def labeled_counter(self, name: str, help_text: str,
                        label: str) -> LabeledCounter:
        instrument = self._get_or_create(LabeledCounter, name, help_text,
                                         label)
        assert isinstance(instrument, LabeledCounter)
        return instrument

    def gauge(self, name: str, help_text: str) -> Gauge:
        instrument = self._get_or_create(Gauge, name, help_text)
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(self, name: str, help_text: str,
                  buckets: Iterable[float] = LATENCY_BUCKETS) -> Histogram:
        instrument = self._get_or_create(Histogram, name, help_text, buckets)
        assert isinstance(instrument, Histogram)
        return instrument

    # -- introspection and rendering ----------------------------------

    def get(self, name: str) -> Instrument | None:
        return self._instruments.get(name)

    def instruments(self) -> list[Instrument]:
        """Snapshot of the registered instruments, in order."""
        with self._lock:
            return list(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    def render_prometheus(self) -> str:
        """The full text exposition (version 0.0.4) of this registry."""
        lines: list[str] = []
        for instrument in self.instruments():
            lines.extend(instrument.render())
        if not lines:
            return ""
        return "\n".join(lines) + "\n"


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
