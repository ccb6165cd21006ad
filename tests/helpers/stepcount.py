"""A kernel that counts what it fires, for the order and op-budget tests."""

from repro.sim.kernel import Environment


class StepCounting(Environment):
    """Counts ``step()`` entries — fired events — and, of those, the ``idle``
    ones whose event had nobody to call.  An existing environment joins by
    ``env.__class__ = StepCounting``."""

    steps = idle = 0

    def step(self):
        event = self._urgent[0] if self._urgent else self._queue[0][2]
        self.steps += 1
        if not event.callbacks:
            self.idle += 1
        super().step()

    @property
    def effective(self) -> int:
        """Events that fired for somebody."""
        return self.steps - self.idle
