"""Exception hierarchy for the repro library.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Budget violations (iteration / fact / depth limits used
to tame programs with function symbols, whose naive semantics may be
infinite -- see Section 3 of the paper) raise :class:`BudgetExceeded`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class DatalogError(ReproError):
    """Base class for Datalog-layer errors."""


class ParseError(DatalogError):
    """Raised when the (d)Datalog text parser rejects its input."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class ValidationError(DatalogError):
    """Raised when a rule or program violates a well-formedness condition.

    Examples: head variables that do not occur in the body (range
    restriction), inequality constraints over unknown variables, or a
    dDatalog rule whose head carries no peer.
    """


class UnknownAlarmError(ValidationError):
    """Raised when an alarm fed to the online supervisor names a peer the
    model does not contain, or a symbol that peer can never emit.

    Validated at the :meth:`repro.diagnosis.online.OnlineDiagnoser.push`
    boundary: malformed *input* must be distinguishable from a
    well-formed stream that is merely inconsistent with the model (the
    latter is a legitimate diagnosis outcome, the former a caller bug or
    a corrupt client payload).  Carries the offending alarm so servers
    can attach it to a structured error response.
    """

    def __init__(self, alarm: object, reason: str):
        super().__init__(f"invalid alarm {alarm}: {reason}")
        self.alarm = alarm
        self.reason = reason


class ProgramAnalysisError(ValidationError):
    """Raised when static analysis finds errors in a program.

    Carries the structured :class:`repro.datalog.analysis.Diagnostic`
    records that caused the failure; the exception message embeds their
    rendered form so the failure is self-explanatory without catching.
    """

    def __init__(self, message: str, diagnostics: tuple = ()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


class BudgetExceeded(ReproError):
    """Raised when an evaluation exceeds its configured resource budget.

    dDatalog programs contain function symbols, so bottom-up evaluation of
    an unrestricted program may diverge (the paper's Section 3 notes that
    "its naive evaluation may not terminate").  Budgets make divergence an
    explicit, catchable condition rather than a hang.
    """

    def __init__(self, resource: str, limit: int):
        super().__init__(f"evaluation budget exceeded: {resource} > {limit}")
        self.resource = resource
        self.limit = limit


class PetriNetError(ReproError):
    """Base class for Petri-net-layer errors."""


class MarkingBoundExceeded(PetriNetError):
    """A reachability exploration passed its marking bound and was cut off."""


class NotSafeError(PetriNetError):
    """Raised when a firing would violate the 1-safety assumption.

    The paper assumes safe Petri nets: a transition enabled in a reachable
    marking must have an unmarked postset (Definition 2).
    """


class NotFireableError(PetriNetError):
    """Raised when asked to fire a transition that is not enabled."""


class DistributedError(ReproError):
    """Base class for distributed-layer errors."""


class NetworkClosedError(DistributedError):
    """Raised when sending on a network that has been shut down."""


class UnknownPeerError(DistributedError):
    """Raised when a message or a peer fault plan names a peer that does
    not exist."""


class TransportExhausted(DistributedError):
    """Raised when one frame is lost more than ``max_retries`` times.

    Carries the poisoned channel, the kind of the undeliverable message
    and a per-channel snapshot of delivery statistics (sent / delivered /
    dropped / retransmits), so callers can degrade gracefully --
    the diagnosis engine reports a partial result instead of crashing.
    """

    def __init__(self, channel: tuple[str, str], kind: str, retries: int,
                 stats: dict[str, dict[str, int]]):
        sender, recipient = channel
        super().__init__(
            f"gave up delivering a {kind!r} message on channel "
            f"{sender}->{recipient} after {retries} retries")
        self.channel = channel
        self.kind = kind
        self.retries = retries
        self.stats = stats


class PeerUnavailable(DistributedError):
    """Raised when undeliverable work remains but the peers holding it
    up are permanently failed (down with no restart scheduled) or cut
    off behind a partition that will never heal.

    Carries the failed peer names and a per-peer report (up /
    permanently_down / crashes / restarts / deliveries / held_frames),
    so callers can degrade gracefully -- the diagnosis engine returns
    the sound partial diagnosis computed by the surviving peers.
    """

    def __init__(self, peers: tuple[str, ...],
                 report: dict[str, dict[str, int | bool]],
                 reason: str | None = None):
        names = ", ".join(peers) if peers else "<none scheduled to return>"
        super().__init__(reason or f"peers permanently unavailable: {names}")
        self.peers = peers
        self.report = report


class ServiceError(ReproError):
    """Base class for errors of the long-lived diagnosis service
    (:mod:`repro.service`)."""


class ServiceOverloaded(ServiceError):
    """Raised (or returned as a structured refusal) when admission
    control sheds an alarm instead of queueing it unboundedly.

    The limit is measured, not estimated: a session whose bounded queue
    is full -- or a server above its global high watermark -- either
    refuses the alarm with this error (``on_overload="shed"``) or
    degrades the session to a tighter compaction window and answers
    ``partial=True`` (``on_overload="degrade"``).  Carries the queue
    depths so clients can implement informed backoff.
    """

    def __init__(self, session_id: str, queued: int, limit: int,
                 scope: str = "session"):
        super().__init__(
            f"service overloaded: {scope} queue at {queued}/{limit} "
            f"for session {session_id!r}; retry after backoff")
        self.session_id = session_id
        self.queued = queued
        self.limit = limit
        self.scope = scope


class SnapshotStoreError(ServiceError):
    """Raised when a session snapshot store fails a read or write.

    The service retries writes with exponential backoff
    (``service.snapshot_retries``); a write that stays failed leaves the
    session resident and is surfaced through
    ``service.snapshot_failures`` rather than crashing the session.
    """


class DiagnosisError(ReproError):
    """Base class for diagnosis-layer errors."""


class EncodingError(DiagnosisError):
    """Raised when a Petri net cannot be encoded as dDatalog rules.

    The Section-4.1 encoder supports transitions with one or two parent
    places (the paper's simplifying assumption plus its "straightforward"
    generalization); wider transitions are rejected explicitly.
    """
