"""The validation kernel's backend name, for bench records.

The kernel (:mod:`repro.core.castkernel` walking the flat
:mod:`repro.automata.compiled` tables) is pure Python; it has one
backend, ``py``.  Benchmark records still carry it as
``kernel_backend`` so a throughput number always names the kernel that
produced it.
"""

from __future__ import annotations

__all__ = ["backend_name"]


def backend_name() -> str:
    """The kernel backend, for bench records."""
    return "py"
