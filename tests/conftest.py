import ctypes
import glob
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Property tests drive dense linear algebra; per-example deadlines are noise.
settings.register_profile(
    "numeric",
    deadline=None,
    derandomize=True,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")

# Make the reference and oracle modules importable from any test.
sys.path.insert(0, str(Path(__file__).parent))


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.fixture
def openblas_threads():
    """``(get, set)`` for the thread count of numpy's bundled OpenBLAS, found
    independently of the package. The count is restored after the test."""
    if _cpu_count() < 2:
        pytest.skip("one CPU: OpenBLAS cannot run the 2 threads this test compares with 1")
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                before = get()
                try:
                    yield get, put
                finally:
                    put(before)
                return
    pytest.skip("numpy bundles no OpenBLAS, so there is no thread count to set")


@pytest.fixture
def decisions(monkeypatch):
    """Every report of ``certificate.decide`` during the test, in call order:
    the solver's through ``certificate.certify`` and ``z2.planted_verdict``'s.
    Each comes as ``(report, S)``, with ``S`` a copy of the certificate array
    whose eigenvalues decided, as handed to ``smallest_eigvals``; ``S`` is
    None where a factorization proved the verdict or a diagonal entry of
    ``S`` refuted it."""
    from phasesync import certificate, z2

    seen, solved = [], []

    def eigenvalues(s, k, _solve=certificate.smallest_eigvals):
        solved.append(s.copy())
        return _solve(s, k)

    def recording(x, t, e, _decide=certificate.decide):
        solved.clear()
        report = _decide(x, t, e)
        seen.append((report, solved[-1] if solved else None))
        return report

    monkeypatch.setattr(certificate, "smallest_eigvals", eigenvalues)
    for module in (certificate, z2):
        monkeypatch.setattr(module, "decide", recording)
    return seen
