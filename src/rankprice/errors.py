"""Exception types raised across the package."""


class RankPriceError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInstance(RankPriceError):
    """Instance data violates a structural invariant."""


class InvalidRange(RankPriceError):
    """An argument value is outside what the call accepts."""


class SearchSpaceTooLarge(RankPriceError):
    def __init__(self, size: int, cap: int):
        super().__init__(
            f"brute force would settle {size} price vectors, above the enumeration cap {cap}"
        )
        self.size = size
        self.cap = cap


class InstanceReadError(RankPriceError):
    """An instance file could not be read or parsed."""


class OutputWriteError(RankPriceError):
    """An output file or directory could not be written."""
