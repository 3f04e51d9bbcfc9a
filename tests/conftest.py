import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def pytest_configure(config):
    # an ambiguous continuation must be expected (pytest.warns) or it fails
    config.addinivalue_line("filterwarnings", "error::adiatherm.thermal.ContinuationWarning")
    # numpy's ComplexWarning, matched by message: its class moved in numpy 2.0
    config.addinivalue_line("filterwarnings", "error:Casting complex values to real")
    # numpy's invalid-value, overflow and divide warnings: NaN must not reach a CSV
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")


@pytest.fixture
def stacks(monkeypatch):
    """The list of every slice models.stack_slices yields to a stacked loop of
    thermal, dynamics or susceptibility, for a test that changes the budget
    to show that the change reached the loops."""
    from adiatherm import dynamics, models, susceptibility, thermal

    seen = []

    def recorded(count, item_bytes):
        for at in models.stack_slices(count, item_bytes):
            seen.append(at)
            yield at

    for module in (dynamics, susceptibility, thermal):
        monkeypatch.setattr(module, "stack_slices", recorded)
    return seen
