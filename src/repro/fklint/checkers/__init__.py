"""The rules, one ``check(ctx)`` function each, in rule-id order."""

from . import determinism

CHECKERS = (determinism.check,)

__all__ = ["CHECKERS"]
