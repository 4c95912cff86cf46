"""Exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch library failures with a single ``except`` clause
while still distinguishing the analytic layer (:class:`AnalysisError`),
the series-algebra substrate (:class:`SeriesError`) and the simulator
(:class:`SimulationError`).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SeriesError",
    "PoleError",
    "NotAProbabilityError",
    "AnalysisError",
    "UnstableQueueError",
    "ModelError",
    "SimulationError",
    "TopologyError",
    "SanitizerError",
    "CalibrationError",
    "ExecutionError",
    "ExperimentDBError",
    "LintError",
    "ApiError",
    "JobQueueFullError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class SeriesError(ReproError):
    """A power-series / rational-function operation is undefined.

    Raised for example when dividing by the zero polynomial or when a
    Taylor expansion is requested at a point where it does not exist.
    """


class PoleError(SeriesError):
    """A series expansion was requested at a genuine pole.

    Removable singularities (numerator and denominator vanishing to the
    same order, as happens for the waiting-time transform at ``z = 1``)
    are handled transparently; this error signals that the denominator
    vanishes to *higher* order than the numerator.
    """


class NotAProbabilityError(SeriesError):
    """A sequence was rejected as a probability mass function.

    Raised when constructing a PGF from a pmf with negative mass or a
    total that is not (approximately) one.
    """


class AnalysisError(ReproError):
    """Base class for errors in the queueing-analysis layer."""


class UnstableQueueError(AnalysisError):
    """The offered load is at or above capacity (``rho >= 1``).

    The steady-state waiting time of the paper's queue exists only for
    traffic intensity ``rho = m * lambda < 1``; every analytic entry
    point validates this before producing formulas that would otherwise
    silently return negative or infinite values.
    """


class ModelError(AnalysisError):
    """A traffic or service model was constructed with invalid parameters."""


class SimulationError(ReproError):
    """Base class for errors raised by the clocked network simulator."""


class TopologyError(SimulationError):
    """An interconnection topology is malformed or unsupported.

    Examples: a banyan network whose port count is not a power of the
    switch degree, or a wiring permutation that is not a bijection.
    """


class SanitizerError(SimulationError):
    """A runtime sanitizer invariant failed (``REPRO_SANITIZE=1``).

    Raised by the opt-in invariant hooks of the engines
    (:mod:`repro.simulation.sanitize`): NaN/inf in waiting-time
    statistics, negative queue depths, broken message conservation, or
    inconsistent merged-shard moments.  The ``cycle``/``stage``/
    ``replica`` attributes locate the first violation (``None`` where a
    coordinate does not apply, e.g. the stage of a conservation
    check).
    """

    def __init__(
        self,
        message: str,
        *,
        cycle: "int | None" = None,
        stage: "int | None" = None,
        replica: "int | None" = None,
    ) -> None:
        coords = ", ".join(
            f"{name}={value}"
            for name, value in (("cycle", cycle), ("stage", stage), ("replica", replica))
            if value is not None
        )
        super().__init__(f"{message} [{coords}]" if coords else message)
        self.cycle = cycle
        self.stage = stage
        self.replica = replica


class CalibrationError(ReproError):
    """A Section-IV style calibration run failed to produce constants."""


class ExecutionError(ReproError):
    """The experiment-execution layer (:mod:`repro.exec`) failed.

    Raised for malformed experiment specs, unreproducible content
    digests, and batches whose failures the caller asked to be fatal
    (:meth:`~repro.exec.runner.BatchResult.raise_on_failure`).
    """


class ExperimentDBError(ReproError):
    """The experiment ledger (:mod:`repro.expdb`) was misused.

    Raised for databases written by a *newer* schema than this package
    understands and for malformed ingestion sources.  A *corrupt*
    database file is never an error: it is moved aside and replaced by
    a fresh one, mirroring the result cache's corrupt-entry-as-miss
    rule.
    """


class LintError(ReproError):
    """The static-analysis layer (:mod:`repro.lint`) was misused.

    Raised for unknown rule codes and unreadable lint targets; rule
    *violations* are reported as findings, never as exceptions.
    """


class ApiError(ReproError):
    """The simulation service (:mod:`repro.api`) rejected a request.

    The HTTP layer maps these onto 4xx responses; anything else that
    escapes a handler is a 500.
    """


class JobQueueFullError(ApiError):
    """The job queue is at capacity; the submission was not accepted.

    Mapped onto HTTP 429 by the server so clients can back off and
    retry -- nothing was enqueued and no state changed.
    """
