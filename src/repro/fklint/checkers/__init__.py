"""The rules, one ``check(ctx)`` function each, in rule-id order."""

from . import blocking, determinism

CHECKERS = (determinism.check, blocking.check)

__all__ = ["CHECKERS"]
