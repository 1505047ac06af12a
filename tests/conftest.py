import sys
from pathlib import Path

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
