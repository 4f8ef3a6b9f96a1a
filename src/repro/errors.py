"""Exception hierarchy for the TMU reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch a single base class.  Subclasses partition the failure
modes by subsystem: tensor formats, TMU configuration/execution, and the
timing simulator.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class FormatError(ReproError):
    """A tensor/format invariant was violated (bad shape, unsorted
    coordinates, pointer array inconsistencies, ...)."""


class ConversionError(FormatError):
    """A format conversion was requested that is impossible or lossy."""


class TMUConfigError(ReproError):
    """The TMU was programmed with an invalid configuration (too many
    lanes, storage overflow, dangling stream parents, ...)."""


class TMURuntimeError(ReproError):
    """The TMU engine reached an inconsistent runtime state (deadlock,
    queue protocol violation).  Indicates a bug in a program or engine."""


class SimulationError(ReproError):
    """The timing simulator was driven with inconsistent parameters or
    traces."""


class WorkloadError(ReproError):
    """An experiment/workload registry lookup or execution failed."""


class ExecutorError(ReproError):
    """The experiment runtime could not complete a batch of simulation
    tasks (cells failed beyond the retry budget or timed out)."""


class ObsError(ReproError):
    """The telemetry layer was misused (metric kind mismatch) or a perf
    snapshot violated the schema."""


class ServeError(ReproError):
    """The simulation job service was driven with an invalid request
    (malformed sweep spec, unknown job, illegal state transition) or
    refused one (per-client quota exhausted)."""


class StoreError(ReproError):
    """The experiment database was opened with an incompatible schema
    version, fed a source file it cannot ingest, or queried for
    something it does not hold."""
