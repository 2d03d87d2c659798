"""Survey-as-a-service: crash-safe job queue, supervised runner, async API.

The service layer composes the repo's resilience stack into a long-running
daemon: :mod:`repro.service.jobs` is the durable lease/heartbeat queue,
:mod:`repro.service.specs` the validated job identity and the O(1)
admission guard, :mod:`repro.service.runner` the supervised executor
driving the resilient runners, and :mod:`repro.service.api` the
stdlib-only async HTTP front end (``repro.cli serve`` / ``repro.cli
jobs``).

The front end's names (``SurveyService``, ``serve``, ``request_json``,
``DEFAULT_MAX_DEPTH``) resolve on first access (PEP 562), so a queue or
runner user never loads asyncio or ``urllib.request``.
"""

from .jobs import JOB_STATES, JOBS_SCHEMA, JobQueue, JobQueueError, default_owner
from .runner import DrainRequested, JobRunner
from .specs import (
    DEFAULT_ADMISSION_CEILING,
    SpecError,
    admission,
    job_id,
    normalize_spec,
)

_API_NAMES = frozenset({"DEFAULT_MAX_DEPTH", "SurveyService", "request_json", "serve"})


def __getattr__(name: str):
    if name in _API_NAMES:
        from . import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DEFAULT_ADMISSION_CEILING",
    "DEFAULT_MAX_DEPTH",
    "DrainRequested",
    "JOBS_SCHEMA",
    "JOB_STATES",
    "JobQueue",
    "JobQueueError",
    "JobRunner",
    "SpecError",
    "SurveyService",
    "admission",
    "default_owner",
    "job_id",
    "normalize_spec",
    "request_json",
    "serve",
]
