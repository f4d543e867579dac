"""Exception and warning types shared across the package."""


class GsfaError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(GsfaError):
    """Array shapes do not match the operation's contract."""


class ParameterError(GsfaError):
    """Invalid sizes or options (N too small, bad variant, ...)."""


class DegenerateGraphError(GsfaError):
    """Graph unusable: non-positive vertex weight, R <= 0, ..."""


class DegenerateLabelError(GsfaError):
    """Label is constant (zero weighted variance)."""


class DependentLabelError(GsfaError):
    """A label is weighted-linearly dependent on earlier ones."""


class ContractError(GsfaError):
    """A documented precondition was violated; message names it."""


class RankError(GsfaError):
    """Requested more independent directions than the problem has."""


class SingularityError(GsfaError):
    """Covariance rank-deficient beyond what regularization absorbs."""

    def __init__(self, message, null_dim=None):
        super().__init__(message)
        self.null_dim = null_dim


class ArchitectureError(GsfaError):
    """Layer specs do not tile or chain; message names the layer."""


class BinningError(GsfaError):
    """Label binning produced a class with too few samples."""


class FormatError(GsfaError):
    """File has wrong magic, kind, or an unknown format version."""


class GsfaWarning(UserWarning):
    """Base class for warnings issued by this package."""


class NegativeEigenvalueWarning(GsfaWarning):
    """A target delta above 2 implies a negative graph eigenvalue."""


class TruncationWarning(GsfaWarning):
    """Samples were dropped to satisfy a divisibility requirement."""


class RegularizationWarning(GsfaWarning):
    """A singular system was solved after adding a ridge term."""


class InconsistentGraphWarning(GsfaWarning):
    """Operation proceeded on a graph that fails the consistency check."""
