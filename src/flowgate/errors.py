"""Exception types raised across the package."""


class FlowgateError(Exception):
    """Base class for all errors raised by this package."""


class BadConfig(FlowgateError, ValueError):
    """A configuration value is malformed or out of range; names the key."""


# --- capture / packet parsing ---

class UnrecognizedMagic(FlowgateError):
    """Capture file does not start with a known magic number."""


class TruncatedRecord(FlowgateError):
    """A capture record header claims more bytes than remain in the file."""


class OversizedRecord(FlowgateError):
    """A capture record header claims more bytes than any capture may hold."""


class TooShort(FlowgateError):
    """Frame too short to contain a link-layer header."""


class NotIPv4(FlowgateError):
    """Network-layer bytes do not start with an IPv4 header."""


class HeaderTruncated(FlowgateError):
    """A protocol header extends past the available bytes."""


class BadIHL(FlowgateError):
    """IPv4 header-length field below the legal minimum of 5 words."""


# --- dataset IO ---

class IoFailure(FlowgateError):
    """Underlying file operation failed."""


class MalformedRow(FlowgateError):
    """CSV row has the wrong column count, a non-numeric field, or an out-of-range
    value, or a line of a CSV or config file is not UTF-8."""


# --- numeric core ---

class ShapeMismatch(FlowgateError):
    """Operand shapes are incompatible."""


class DetachedLoss(FlowgateError):
    """The loss tensor was not produced by any operation recorded on the tape."""


class DtypeMismatch(FlowgateError):
    """An integer array, packet byte codes say, where float values are expected."""


# --- training ---

class EmptyDataset(FlowgateError):
    """Training requires at least one sample."""


class AnomalyInTrainingSet(FlowgateError):
    """A row labeled as an anomaly reached a training stage."""


class EmptyClass(FlowgateError):
    """Classifier training requires samples from both classes."""


class NonFiniteMetric(FlowgateError):
    """A training stage's holdout metric came out NaN or infinite."""


# --- flow ---

class NonFiniteInput(FlowgateError):
    """Input vector contains NaN or infinity."""


class NonFiniteIntermediate(FlowgateError):
    """A flow block produced a non-finite value; indicates a bug, not bad input."""


# --- synthesis ---

class NegativeSigma(FlowgateError):
    """Noise standard deviation must be non-negative."""


class EmptyInput(FlowgateError):
    """Synthesis requires a non-empty set of source vectors."""


# --- scoring / evaluation ---

class OneClassOnly(FlowgateError):
    """Metric needs at least one positive and one negative sample."""


class CheckpointMismatch(FlowgateError):
    """Checkpoint failed magic, stage, shape, or dimension verification."""
