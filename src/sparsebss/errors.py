"""Exception types raised by the separation toolkit.

All errors derive from :class:`SparseBssError` (itself a ``ValueError``),
so callers may catch either the specific condition or anything from this
package with one clause.
"""


class SparseBssError(ValueError):
    """Base class for all toolkit errors."""


class NonFiniteError(SparseBssError):
    """Signal data contains NaN or infinite entries."""


class TooShortError(SparseBssError):
    """Signal has fewer than two samples per channel."""


class ZeroChannelError(SparseBssError):
    """A channel is identically zero, or constant, where a nonzero rms or a
    nonzero variance (for a correlation) is required."""


class RankDeficientError(SparseBssError):
    """Channels are (numerically) linearly dependent; whitening cannot proceed."""


class DimensionMismatchError(SparseBssError):
    """Operand shapes are inconsistent."""


class TooFewHeadingsError(SparseBssError):
    """Fewer than two accepted headings are available for clustering."""


class NoRunFoundError(SparseBssError):
    """No column of the adjacency table contains a single true entry."""


class EmptyClusterError(SparseBssError):
    """The component-wise AND eliminated every candidate heading."""


class DegenerateClusterError(SparseBssError):
    """Cluster members cancel; the averaged direction has (near-)zero length."""


class NoConsecutivePairError(SparseBssError):
    """No two consecutive accepted headings exist (minimum-change search).

    ``iteration`` is the zero-based deflation iteration when ``separate``
    raised it, else None.
    """

    def __init__(self, message, iteration=None):
        self.iteration = iteration
        super().__init__(message)


class ClusterFormationFailedError(SparseBssError):
    """The global method could not form a cluster at some deflation iteration.

    Carries the zero-based iteration index and the underlying cause.
    """

    def __init__(self, iteration, cause):
        self.iteration = iteration
        self.cause = cause
        super().__init__(f"cluster formation failed at iteration {iteration}: {cause}")

    def __reduce__(self):
        # ``args`` holds only the message; rebuild from the constructor's
        # arguments so the error survives pickling (e.g. from a worker process)
        return type(self), (self.iteration, self.cause), self.__dict__


class AllRunsFailedError(SparseBssError):
    """Every Monte Carlo run in every set failed to separate."""
