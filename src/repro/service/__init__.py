"""Survey-as-a-service: crash-safe job queue, job runner, async API.

The service layer composes the repo's resilience stack into a long-running
daemon: :mod:`repro.service.jobs` is the durable lease/heartbeat queue,
:mod:`repro.service.specs` the validated job identity and the O(1)
admission guard, :mod:`repro.service.runner` the job runner driving the
resilient runners, and :mod:`repro.service.api` the
stdlib-only async HTTP front end (``repro.cli serve`` / ``repro.cli
jobs``).

The job stack's names (``JobQueue``, ``JobRunner`` and their siblings,
which load sqlite3, :mod:`repro.store` and
:mod:`repro.runtime`) and the front end's names (``SurveyService``,
``serve``, ``request_json``, ``DEFAULT_MAX_DEPTH``) resolve on first
access (PEP 562).  ``repro --help`` and the admission constant in
:mod:`repro.service.specs` therefore load neither, and a queue or runner
user never loads asyncio or ``urllib.request``.
"""

from .specs import (
    DEFAULT_ADMISSION_CEILING,
    SpecError,
    admission,
    job_id,
    normalize_spec,
)

#: Lazily resolved names, by the submodule that defines them.
_LAZY_NAMES = {
    "JOBS_SCHEMA": "jobs",
    "JOB_STATES": "jobs",
    "JobQueue": "jobs",
    "JobQueueError": "jobs",
    "default_owner": "jobs",
    "DrainRequested": "runner",
    "JobRunner": "runner",
    "DEFAULT_MAX_DEPTH": "api",
    "SurveyService": "api",
    "request_json": "api",
    "serve": "api",
}


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        from importlib import import_module

        return getattr(import_module(f".{_LAZY_NAMES[name]}", __name__), name)
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
