import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def concurrently():
    """Call fn(arg) for every arg, each from its own thread, all released at
    once with a 1e-6 s switch interval; results come back in argument order."""

    def run(fn, args):
        start = threading.Barrier(len(args))

        def call(arg):
            start.wait(timeout=60)
            return fn(arg)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(args)) as pool:
                return list(pool.map(call, args, timeout=60))
        finally:
            sys.setswitchinterval(interval)

    return run


@pytest.fixture
def hankel_levels(monkeypatch):
    """The levels zeta_hankel evaluates, in order."""
    from zetaroutes import numeric

    calls = []
    weighted_terms = numeric._weighted_terms

    def counted(s, spec, level):
        calls.append(level)
        return weighted_terms(s, spec, level)

    monkeypatch.setattr(numeric, "_weighted_terms", counted)
    return calls
