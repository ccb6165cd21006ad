"""Operation context: who is calling a service, from where, at what speed.

Every service generator takes an :class:`OpContext` as its first argument.
The context carries:

* ``payer`` — the cost-meter service label charged for the operation
  (e.g. ``"s3"`` vs ``"s3:system"``), letting benchmarks split costs the way
  Figures 9/11 do;
* ``io_mult`` — latency multiplier of the caller (functions with small
  memory allocations do I/O slower, Section 5.3.2);
* ``region`` — caller region; a mismatch with the service's region adds the
  inter-region penalty of Figure 4b;
* ``crash`` — the crash windows of the one function invocation the
  context belongs to (:class:`repro.cloud.functions.CrashWindows`), or
  None: every caller shares a frozen context unless a crash plan arms it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

__all__ = ["OpContext", "CLIENT_CTX", "boundary"]


@dataclass(frozen=True)
class OpContext:
    payer: str | None = None
    io_mult: float = 1.0
    region: str | None = None
    arch: str = "x86"
    crash: Any = None


#: Default context for direct client calls (full-speed I/O, no attribution).
CLIENT_CTX = OpContext()


def boundary(ctx: OpContext, op: str, work: Generator) -> Generator:
    """``work``, a boundary call ``op`` of ``ctx``'s caller — a storage op
    through the retry layer, a queue send, a watch delivery — run between
    its crash windows when ``ctx`` belongs to an armed invocation."""
    return work if ctx.crash is None else ctx.crash.around(op, work)
