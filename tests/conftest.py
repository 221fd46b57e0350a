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


@pytest.fixture
def budget_estimate(monkeypatch):
    """estimate(call, what) runs call and returns (nbytes, seconds), the
    estimate its require_budget call whose work description starts with
    what passed; every module that calls require_budget is recorded."""
    from cotypelab import cotype, embeddings, gridops, harmonic, spaces

    def estimate(call, what):
        seen, real = [], spaces.require_budget

        def record(name, nbytes=0, seconds=0.0):
            seen.append((name, nbytes, seconds))
            real(name, nbytes, seconds)

        with monkeypatch.context() as patch:
            for module in (spaces, harmonic, cotype, embeddings, gridops):
                patch.setattr(module, "require_budget", record)
            call()
        found = {(b, s) for name, b, s in seen if name.startswith(what)}
        assert len(found) == 1, (what, seen)
        return found.pop()

    return estimate


@pytest.fixture
def budget_boundary(monkeypatch, budget_estimate):
    """boundary(call, what) checks both thresholds at the estimate of
    call's require_budget call for what: with MEMORY_BUDGET (WORK_BUDGET)
    patched to the estimated bytes (seconds) the call runs, and one byte
    (one ulp) below, it raises BudgetExceededError naming what. A threshold
    the site does not estimate is skipped. Returns the estimate."""
    import math
    import re

    from cotypelab import BudgetExceededError, spaces

    def boundary(call, what):
        nbytes, seconds = budget_estimate(call, what)
        assert nbytes > 0 or seconds > 0
        for name, value, below in (("MEMORY_BUDGET", nbytes, nbytes - 1),
                                   ("WORK_BUDGET", seconds,
                                    math.nextafter(seconds, 0.0))):
            if not value:
                continue
            with monkeypatch.context() as patch:
                patch.setattr(spaces, name, value)
                call()
                patch.setattr(spaces, name, below)
                with pytest.raises(BudgetExceededError,
                                   match=f"^{re.escape(what)}"):
                    call()
        return nbytes, seconds

    return boundary
