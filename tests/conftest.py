import pytest
from hypothesis import HealthCheck, settings

from kerrdown import verify

# numerical property tests: examples are cheap but the first oracle call per
# (cutoff, k) pays for a stacked sector diagonalization
settings.register_profile(
    "kerrdown",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("kerrdown")


@pytest.fixture(scope="session")
def grid_times():
    return verify.grid_times()
