"""Exception taxonomy shared across the package.

Every error raised by the library derives from PmuPlaceError so callers
can distinguish failure classes without string matching. Each class's
`exit_code` is the command line's exit status for it; a subclass
without its own inherits its base's. `UsageError` is a run setting that
cannot be honoured, reported as a bad command line.
"""

from __future__ import annotations


class PmuPlaceError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class UsageError(PmuPlaceError, ValueError):
    exit_code = 2


class CaseError(PmuPlaceError):
    """Problems with case-file content or the parsed network model."""

    exit_code = 5


class MalformedRecord(CaseError):
    """A record that cannot be read; `source` names the file of a
    multi-file bundle, and `line_no` is a line of that file."""

    exit_code = 4

    def __init__(self, line_no: int, detail: str, source: str = ""):
        self.line_no = line_no
        super().__init__(f"{source} line {line_no}: {detail}".lstrip())


class MissingSection(CaseError):
    exit_code = 4


class DuplicateBusId(CaseError):
    pass


class DuplicateSlack(CaseError):
    pass


class MissingSlack(CaseError):
    pass


class UnknownBusReference(CaseError):
    pass


class InvalidBranch(CaseError):
    pass


class DisconnectedNetwork(CaseError):
    exit_code = 6


class NonConvergence(PmuPlaceError):
    exit_code = 7

    def __init__(self, iterations: int, mismatch: float):
        self.iterations = iterations
        self.mismatch = mismatch
        super().__init__(
            f"power flow did not converge after {iterations} iterations "
            f"(mismatch inf-norm {mismatch:.3e} p.u.)"
        )


class SingularSubmatrix(PmuPlaceError):
    """Grounded conductance matrix is not invertible (rank deficiency
    beyond the single zero mode of a connected network)."""

    exit_code = 6


class SolverError(PmuPlaceError):
    exit_code = 8


class Infeasible(SolverError):
    """No selection covers every bus. Cannot occur when every bus can
    cover itself; kept as a defensive check."""


class DecompositionError(PmuPlaceError):
    """The SVD kernel failed to converge, or its input was not finite."""

    exit_code = 9


class ReportError(PmuPlaceError):
    exit_code = 10


class PmuPlaceWarning(UserWarning):
    """Base class for diagnostic warnings; warnings never change results
    or exit status."""


class TieAtThreshold(PmuPlaceWarning):
    """The branch-count cutoff fell inside a group of equal distances;
    the selection is still deterministic (index order)."""
