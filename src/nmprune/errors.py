"""Exception hierarchy shared across the toolkit.

The CLI exits 2 on ConfigError and 1 on any other NMPruneError; verify
gathers VerificationError into its report.
"""


class NMPruneError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(NMPruneError):
    """A container or sidecar file does not conform to the on-disk format."""


class ConfigError(NMPruneError):
    """Invalid pruning configuration or command options."""


class ZeroRowError(NMPruneError):
    """A weight row is entirely zero, so row-relative scores are undefined."""

    def __init__(self, row: int):
        super().__init__(f"row {row} is entirely zero")
        self.row = row


class ZeroColumnError(NMPruneError):
    """A weight column is entirely zero, so column-relative scores are undefined."""

    def __init__(self, col: int):
        super().__init__(f"column {col} is entirely zero")
        self.col = col


class VerificationError(NMPruneError):
    """A mask failed a structural check."""
