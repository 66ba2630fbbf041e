"""Exception types shared across the package, and the number rules its checks share."""

from numbers import Integral, Real


def _is_count(value, minimum: int = 1) -> bool:
    """The rule for sizes, counts and repeats: an int, not a bool, at or above minimum."""
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= minimum


def _is_real(value) -> bool:
    """The rule for timings and rates: a real number, not a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)


class KernelBenchError(Exception):
    """Base class for every error raised by this package."""


class SizeError(KernelBenchError):
    """A byte buffer, file body, or dimension does not match what was declared."""


class FormatError(KernelBenchError):
    """An image's channel layout does not match the requested operation."""


class UnsupportedFormat(KernelBenchError):
    """An input file uses a format, or is a kind of file, this package does not read."""


class RangeError(KernelBenchError):
    """A numeric argument falls outside its documented range."""


class EndOfStream(KernelBenchError):
    """A frame source has no frame at the requested index."""


class UnsupportedKernel(KernelBenchError):
    """A kernel cannot be lowered to the shader target."""


class EmptyChain(KernelBenchError):
    """A chain spec contains no passes."""
