"""A kernel that counts what it fires, for the order and op-budget tests."""

from repro.sim.kernel import Environment, Process


class StepCounting(Environment):
    """Counts ``step()`` entries — fired events — and, of those, the ``idle``
    ones whose event had nobody to call.  A ``Process`` popped from the heap
    is a sleeper: it resumes its own generator, so it is never idle.  An
    existing environment joins by ``env.__class__ = StepCounting``."""

    steps = idle = 0

    def step(self):
        if self._urgent:
            idle = not self._urgent[0].callbacks
        else:
            event = self._queue[0][2]
            idle = not event.callbacks and type(event) is not Process
        self.steps += 1
        self.idle += idle
        super().step()

    @property
    def effective(self) -> int:
        """Events that fired for somebody."""
        return self.steps - self.idle
