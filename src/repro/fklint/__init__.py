"""fklint: domain-aware static analysis + runtime sanitizer.

Static rules (``python -m repro.fklint``, over ``cli.PATHS`` by default):

====== ===================== ==============================================
FK001  determinism           no wall clock / ambient RNG outside the kernel
====== ===================== ==============================================

The runtime half (:mod:`repro.fklint.sanitize`, armed by ``FK_SANITIZE=1``)
asserts the storage disciplines of the commit-log append and the guarded
watch removal (its ``FK002``/``FK003`` messages) at the kvstore layer.

This module stays import-light: the cloud layer imports
:mod:`repro.fklint.sanitize`, so nothing here may import from
:mod:`repro.cloud` or :mod:`repro.faaskeeper`.
"""

from .core import Finding, LintContext, lint_file, lint_paths, lint_source

__all__ = ["Finding", "LintContext", "lint_file", "lint_paths", "lint_source"]
