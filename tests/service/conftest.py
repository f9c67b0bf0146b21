import pytest


@pytest.fixture
def abandon():
    """``abandon(svc)`` leaves a :class:`SweepService` without ``stop()``,
    as a SIGKILL would.  At teardown its two log handles, which the kernel
    closes for a killed process, are closed; nothing else is shut down."""
    services = []
    yield services.append
    for svc in services:
        svc.journal.close()
        svc._jobs_log.close()
