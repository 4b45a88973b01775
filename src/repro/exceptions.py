"""Exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError`, so callers can
catch a single type while still being able to distinguish configuration
errors (bad dimensions, bad wires) from synthesis and verification failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class DimensionError(ReproError):
    """Raised when a qudit dimension is invalid for the requested operation.

    Examples: ``d < 2`` anywhere, ``d < 3`` for the paper's constructions,
    an odd-``d`` routine called with even ``d`` or vice versa.
    """


class WireError(ReproError):
    """Raised when wire indices are out of range, repeated, or insufficient."""


class GateError(ReproError):
    """Raised when a gate is constructed from inconsistent data."""


class SynthesisError(ReproError):
    """Raised when a synthesis routine cannot produce a circuit.

    This signals a caller error (e.g. not enough borrowable wires) rather
    than an internal failure; internal failures surface as assertions in the
    test suite.
    """


class VerificationError(ReproError):
    """Raised by the verification helpers when a circuit does not implement
    its specification."""


class CacheError(ReproError):
    """Raised when a compile-cache artifact is malformed or unreadable —
    a corrupted or truncated ``.npz`` payload, an unknown serialization
    format version, or metadata that does not match the stored table."""


class WorkloadError(ReproError):
    """Raised when a batch workload spec is malformed: unknown request
    kind, missing fields, or values the referenced strategy rejects."""


class DSEError(ReproError):
    """Raised by the design-space exploration layer: a malformed sweep
    spec or a frontier query over objectives the store does not carry."""


class ServeError(ReproError):
    """Raised by the serving layer: a malformed submit body, a request
    rejected by admission control (queue full, oversized batch, daemon
    draining), or a daemon misconfiguration (e.g. a multi-process pool
    without a shared cache directory)."""

    #: HTTP status the daemon maps this error to (subclasses override).
    status = 400


class EstimationError(ReproError):
    """Raised when the analytic resource estimator cannot produce an exact
    count — an unsupported strategy/parameter combination, or a calibration
    whose measured finite differences are not affine (which would make
    extrapolation silently wrong, so it is refused instead)."""
