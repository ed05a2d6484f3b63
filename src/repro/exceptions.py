"""Library-wide exception types."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class InfeasibleRequestError(ReproError):
    """A deployment request cannot be satisfied by any parameter relaxation.

    Raised by ADPaR when fewer than ``k`` strategies exist at all — no
    alternative parameters can conjure strategies that are not in ``S``.
    """


class ModelNotFittedError(ReproError):
    """A linear parameter model was used before being fitted or configured."""


class UnknownStrategyError(ReproError, KeyError):
    """A strategy name was looked up that the catalog/model bank lacks."""


class ApiError(ReproError):
    """A malformed, unversioned, or otherwise invalid service-API payload.

    Raised by the wire codec (:mod:`repro.api.codec`) when ``decode``
    meets a payload it cannot decode — missing fields, wrong types,
    unknown envelope type, unsupported ``api_version`` — and by
    :class:`~repro.api.EngineService` for unknown session/ensemble
    handles.  ``code`` is the stable machine-readable error code the
    envelope carries on the wire (see ``repro.api.envelopes.ERROR_CODES``
    for the full exception → code map).
    """

    def __init__(self, message: str, code: str = "bad_request"):
        super().__init__(message)
        self.code = code


class JournalCorruptError(ReproError):
    """A decision-journal segment has a malformed non-tail line.

    A *torn final line* (crash mid-append) is tolerated and dropped by
    the journal reader — every segment is append-only and a reopened
    journal starts a fresh segment, so only a segment's last line can
    legitimately be torn.  Anything else malformed (a bad line with
    valid lines after it, an event referencing an ensemble the journal
    never recorded, a recorded op recovery cannot re-apply) is
    corruption and raises this.
    """


class UnknownPlannerError(ReproError, KeyError):
    """A planner backend name was requested that the registry lacks."""


class UnknownSolverError(ReproError, KeyError):
    """An ADPaR solver backend name was requested that the registry lacks."""


class UnknownScenarioError(ReproError, KeyError):
    """A scenario family name was requested that the registry lacks."""


class InvalidSpecError(ReproError, TypeError):
    """A workload spec was built or overridden with invalid fields.

    Raised by ``ScenarioSpec.with_`` (and every sub-spec's ``with_``)
    when a sweep override names a field the spec does not have, instead
    of the bare ``TypeError`` ``dataclasses.replace`` would leak — the
    service API maps it to the stable ``invalid_spec`` error code.
    Subclasses ``TypeError`` so legacy callers that caught the old error
    keep working.
    """
