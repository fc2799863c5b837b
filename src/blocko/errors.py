class BlockoError(Exception):
    """Base class for mathematical rejections (CLI exit code 2)."""


class CartanError(BlockoError):
    """Invalid or non-symmetrizable generalized Cartan matrix."""


class CriticalityError(BlockoError):
    """Operation refused on a critical (or undecidable) block."""


class TruncationError(BlockoError):
    """A length bound was too small, or a lattice failed its certificate."""


class UnsupportedError(BlockoError):
    """Input outside the supported scope (e.g. singular block character)."""
