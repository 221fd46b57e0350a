import resource

import pytest


@pytest.fixture
def address_cap():
    """cap(extra) limits the address space to extra bytes above its present
    size, so an allocation past it fails with MemoryError rather than
    filling the machine; the old limit comes back after the test."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)

    def cap(extra: int) -> None:
        with open("/proc/self/statm") as fh:
            mapped = int(fh.read().split()[0]) * resource.getpagesize()
        limit = mapped + extra
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    yield cap
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
