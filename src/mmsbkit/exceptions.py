"""Shared exception types.

The CLI maps these onto process exit codes: usage problems (plain
``ValueError``) exit 1, :class:`DataFormatError` exits 2, and
:class:`NumericalError` and ``numpy.linalg.LinAlgError`` (a
``ValueError`` subclass) exit 3, as does a ``MemoryError`` (a valid size
too large to allocate).
"""


class MmsbkitError(Exception):
    """Base class for package-specific failures."""


class DataFormatError(MmsbkitError):
    """A file or configuration payload violates its documented format."""


class NumericalError(MmsbkitError):
    """A numerical procedure failed: singular systems, non-convergence,
    degenerate geometry, or rank deficiency detected at run time."""
