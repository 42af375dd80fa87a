"""Exception hierarchy for trailkit.

Everything raised on purpose derives from TrailkitError so callers (and the
CLI) can separate expected failure modes from genuine bugs.
"""

from __future__ import annotations


class TrailkitError(Exception):
    """Base class for all trailkit errors."""


class NotGCMError(TrailkitError):
    """Matrix is not a generalized Cartan matrix."""


class NotFiniteTypeError(TrailkitError):
    """Cartan matrix is a GCM but not of finite type."""


class UnknownLetterError(TrailkitError):
    """Word letter outside the node set of the Cartan matrix."""


class NotReducedError(TrailkitError):
    """Word is not a reduced expression."""


class PositionMissingError(TrailkitError):
    """Requested occurrence (s, k) does not exist in the word."""


class TNotInWord(TrailkitError):
    """Index t never occurs in the word, so no driving trail exists."""


class NotExtremalWeightError(TrailkitError):
    """Weight expected to be extremal has multiplicity != 1."""


class ConsistencyError(TrailkitError):
    """Internal cross-check failed: two independent computations disagree."""


class RadicalRankMismatch(ConsistencyError):
    """A built module disagrees with the character formulas or its own
    defining relations."""


class DomainError(TrailkitError):
    """Arguments outside the stated domain of a closed-form expression."""


class NotApplicable(TrailkitError):
    """Closed form has no content for these parameters (e.g. q < 0)."""


class OpenFaceRequest(TrailkitError):
    """Face index k = 1 requested; that object is the driving trail itself."""


class MixedTrivialization(TrailkitError):
    """Trails grouped together trivialize at different steps."""


class NoMaximalTrail(TrailkitError):
    """No trail in the class satisfies the maximality condition."""


class PointOutside(TrailkitError):
    """Point is not a member of the polytope under discussion."""


class FalseTrailDetected(TrailkitError):
    """A layer function escaped every block of the step decomposition.

    Carries forensic data: the step index, the class key, the offending
    function and the nearest block found.
    """

    def __init__(self, step: int, class_key: object, function: object,
                 nearest: object = None, detail: str = ""):
        self.step = step
        self.class_key = class_key
        self.function = function
        self.nearest = nearest
        self.detail = detail
        msg = f"false trail at step {step}, class {class_key}: {function}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class ConfigError(TrailkitError):
    """Bad CLI configuration file."""
