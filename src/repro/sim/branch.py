"""Gshare branch predictor (4-KB table, Table 1).

The predictor XORs a global history register with the branch PC to index a
table of 2-bit saturating counters.  The simulated core charges a
pipeline-depth flush penalty on every misprediction.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class BranchStats:
    """Prediction outcome counts for one predictor instance."""

    predictions: int = 0
    mispredictions: int = 0

    @property
    def accuracy(self) -> float:
        """Fraction of branches predicted correctly (1.0 when none seen)."""
        if self.predictions == 0:
            return 1.0
        return 1.0 - self.mispredictions / self.predictions


class GsharePredictor:
    """Gshare: global-history XOR PC indexing into 2-bit counters.

    The global history register is log2(entries) bits long, so history
    fully covers the index.

    Args:
        entries: number of 2-bit counters; must be a power of two.
    """

    __slots__ = ("_table", "_mask", "_history", "stats")

    def __init__(self, entries: int = 16384) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        #: The 2-bit counters, made (weakly taken) by the first update.
        self._table: bytearray | None = None
        self._mask = entries - 1
        self._history = 0
        self.stats = BranchStats()

    def update(self, pc: int, taken: bool) -> bool:
        """Predict, train on the actual outcome, and report correctness.

        Returns:
            True if the prediction matched ``taken``.
        """
        table = self._table
        if table is None:
            table = self._table = bytearray(b"\x02") * (self._mask + 1)
        idx = ((pc >> 2) ^ self._history) & self._mask
        counter = table[idx]
        prediction = counter >= 2
        if taken and counter < 3:
            table[idx] = counter + 1
        elif not taken and counter > 0:
            table[idx] = counter - 1
        self._history = ((self._history << 1) | int(taken)) & self._mask
        self.stats.predictions += 1
        correct = prediction == taken
        if not correct:
            self.stats.mispredictions += 1
        return correct
