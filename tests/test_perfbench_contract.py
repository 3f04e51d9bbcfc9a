"""The names perfbench traces and records must exist in the package.

perfbench's tracer rebinds package functions by name and fails on a name
that is gone; this runs its layer installation and machine record here, so
a rename or deletion fails the test suite instead of a traced benchmark run.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import Tracer, install_layers  # noqa: E402
from worker import machine_record  # noqa: E402


def test_traced_layers_and_machine_record_resolve():
    with Tracer() as tracer:
        install_layers(tracer)
        record = machine_record()
    assert record["kernels_backend"] == "numpy"
