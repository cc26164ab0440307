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


class VerificationError(NMPruneError):
    """A mask failed a structural check."""
