"""Exception types shared across the pipeline."""


class OutOfWorkspace(ValueError):
    """A continuous position lies outside the workspace box on some axis."""


class RangeError(ValueError):
    """An integer component of a discrete action is outside its valid range."""


class EmptyObject(ValueError):
    """Every camera cloud for an object is empty."""


class EmptyEpisode(ValueError):
    """An episode contains no steps."""


class InsufficientDemos(ValueError):
    """The demonstration store is smaller than the requested batch size."""


class EmptyTrajectory(ValueError):
    """A single-arm trajectory handed to composition is empty."""


class ConfigError(ValueError):
    """An experiment configuration is invalid or incomplete."""


class CompletionError(ValueError):
    """Base class for failures while interpreting a model completion."""


class ParseFailure(CompletionError):
    """No bracketed action list could be extracted from the completion."""


class ArityMismatch(CompletionError):
    """An extracted action tuple has the wrong number of components."""


class RangeViolation(CompletionError):
    """An extracted action tuple contains out-of-range components."""


class OracleParseError(ValueError):
    """The scripted oracle received a prompt outside the expected grammar."""


class TransportError(RuntimeError):
    """Network failure or HTTP error status from the chat backend."""


class RequestTimeoutError(TransportError):
    """The chat backend did not answer within the configured deadline."""


class ExhaustedRetries(RuntimeError):
    """All parse-and-retry attempts for one logical call failed. Carries the call's
    phase, the last ``:`` part of its tag; the CallLog holds each attempt's record."""

    def __init__(self, message, phase=None):
        super().__init__(message)
        self.phase = phase


class AllCandidatesFailed(RuntimeError):
    """Every best-of-n candidate (or its scoring) raised an error."""

    def __init__(self, message, failures=()):
        super().__init__(message)
        self.failures = list(failures)


class JudgeParseError(CompletionError):
    """The judge backend returned an uninterpretable verdict."""


class GimbalWarning(UserWarning):
    """Pitch is within 1e-3 rad of +/-90 deg; Euler angles are degenerate there."""


# The failures an episode may end with that are not bugs in the program:
# the runner records them as a failed episode, and best-of-n reranking
# drops a candidate whose judge call raised one. Anything else propagates.
EPISODE_ERRORS = (
    AllCandidatesFailed,
    CompletionError,
    ExhaustedRetries,
    OracleParseError,
    TransportError,
)
