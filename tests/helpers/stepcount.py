"""A kernel that counts what it fires, for the order and op-budget tests."""

from repro.sim.kernel import Environment, Process, Timeout, TimerTrain


class StepCounting(Environment):
    """Counts ``step()`` entries — fired events — and, of those, the ``idle``
    ones whose event had nobody to call.  A pending ``Process``, popped from
    either lane, is a start or a sleeper: it resumes its own generator, so it
    is never idle.  Every step also checks the lane discipline: the wakeup
    lane holds triggered events and pending processes, the heap holds
    ``Timeout``s, ``TimerTrain``s and pending processes.  An existing
    environment joins by ``env.__class__ = StepCounting``."""

    steps = idle = 0

    def step(self):
        if self._urgent:
            event = self._urgent[0]
            fits = event.triggered
        elif self._queue:
            event = self._queue[0][2]
            fits = type(event) in (Timeout, TimerTrain)
        else:
            return super().step()  # raises EmptySchedule
        resumes = type(event) is Process and not event.triggered
        assert resumes or fits, f"{event!r} may not wait in its lane"
        self.steps += 1
        self.idle += not (resumes or event.callbacks)
        super().step()

    @property
    def effective(self) -> int:
        """Events that fired for somebody."""
        return self.steps - self.idle
