"""Pluggable kernel backends for the checkerboard sweeps.

Public surface re-exported from :mod:`repro.kernels.registry`; see
that module (and DESIGN.md's "Kernel registry" section) for the
selection semantics and the bit-identity contract.
"""

from repro.kernels.registry import (
    OP_NAMES,
    KernelBackend,
    KernelUnavailableError,
    available_backends,
    backend_version,
    check_kernel_name,
    get_ops,
    kernel_available,
    known_backends,
    register_backend,
    resolve_kernel,
    resolve_sweep_mode,
    unregister_backend,
)

__all__ = [
    "OP_NAMES",
    "KernelBackend",
    "KernelUnavailableError",
    "available_backends",
    "backend_version",
    "check_kernel_name",
    "get_ops",
    "kernel_available",
    "known_backends",
    "register_backend",
    "resolve_kernel",
    "resolve_sweep_mode",
    "unregister_backend",
]
