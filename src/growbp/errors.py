"""Exception types shared across the package."""


class GrowbpError(Exception):
    """Base class for all growbp errors."""


class DatasetError(GrowbpError):
    """Base class for dataset file problems."""


class MissingKeyError(DatasetError):
    """A required key is absent from a ``.dt`` header or a manifest."""

    def __init__(self, key, place="header"):
        self.key = key
        super().__init__(f"missing required {place} key: {key!r}")


class MalformedValueError(DatasetError):
    """A header value or data field cannot be interpreted."""


class RowArityError(DatasetError):
    """A data row has the wrong number of columns."""

    def __init__(self, line_no, expected, got):
        self.line_no = line_no
        super().__init__(
            f"line {line_no}: expected {expected} columns, got {got}"
        )


class CountMismatchError(DatasetError):
    """Rows or columns of the data disagree with the declared header."""


class NonFiniteError(DatasetError):
    """A data field is NaN or infinite."""

    def __init__(self, line_no):
        self.line_no = line_no
        super().__init__(f"line {line_no}: non-finite value")


class EmptyTrainingError(DatasetError):
    """Normalization statistics requested from an empty training partition."""


class ArityMismatchError(GrowbpError):
    """A vector has the wrong length for the network or rule at hand."""


class EmptySetError(GrowbpError):
    """An operation that averages or counts over patterns got no patterns."""


class ConfigError(GrowbpError):
    """A training or experiment configuration violates its invariants."""


class InvalidRangeError(ConfigError):
    """A weight-initialization range is not positive, or too wide to draw
    from."""
