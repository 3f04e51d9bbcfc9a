import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def pytest_configure(config):
    # an ambiguous continuation must be expected (pytest.warns) or it fails
    config.addinivalue_line("filterwarnings", "error::adiatherm.thermal.ContinuationWarning")
    # numpy's ComplexWarning, matched by message: its class moved in numpy 2.0
    config.addinivalue_line("filterwarnings", "error:Casting complex values to real")
    # numpy's invalid-value, overflow and divide warnings: NaN must not reach a CSV
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")
