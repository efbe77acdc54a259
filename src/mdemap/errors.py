"""Exception hierarchy shared across the package."""


class MdemapError(Exception):
    """Base class for all package errors."""


class ConfigError(MdemapError):
    """Invalid configuration or unusable parameter combination."""


class OutOfAreaError(MdemapError):
    """A coordinate falls outside the area of interest."""


class InvalidScaleError(MdemapError):
    """Mesh scale is non-positive or a scale pair does not nest."""


class InvalidAngleError(MdemapError):
    """Non-finite angle passed to direction binning."""


class EmptyHistogramError(MdemapError):
    """Entropy requested for a histogram with zero total count."""


class EmptyFieldError(MdemapError):
    """An operation needs at least one defined mesh entry."""


class PointParseError(MdemapError):
    """A trajectory input could not be parsed.

    ``line_no`` is the 1-based line of the offending record when known;
    the message then starts with it.
    """

    def __init__(self, message, line_no=None):
        super().__init__(message if line_no is None
                         else f"line {line_no}: {message}")
        self.line_no = line_no
