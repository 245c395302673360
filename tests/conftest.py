import sys

import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run, and no per-example
# deadline lets a loaded machine's timing jitter fail them
settings.register_profile("qnlab", derandomize=True, deadline=None)
settings.load_profile("qnlab")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def positive_field_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Strictly positive values with a spread of magnitudes."""
    return np.exp(rng.uniform(-3.0, 3.0, size=n))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance-criteria verdict lines after capture ends."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
