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


@pytest.fixture
def every_block():
    """A function of a model that gives its SymmetrySectors with each
    reflection twin as a block of its own, counted once: the twin keeps its
    partner's diagonal h0 and takes its v from its own basis columns and
    the dense V, so a route run on it evolves every twin for itself."""
    from adiatherm.models import SymmetrySectors, build_v, symmetry_sectors

    def expand(model):
        sectors = symmetry_sectors(model)
        v = build_v(model).mat
        labels, blocks, lo = [], [], 0
        for label, block, count in zip(sectors.labels, sectors.blocks, sectors.multiplicity):
            size = block[0].shape[0]
            labels.append(label)
            blocks.append(block)
            if count == 2:
                m, p, x = label
                cols = sectors.basis[:, lo + size : lo + 2 * size]
                v_twin = cols.T @ v @ cols
                labels.append((m, -p, x))
                blocks.append((block[0], 0.5 * (v_twin + v_twin.T)))
            lo += count * size
        return SymmetrySectors(tuple(labels), sectors.basis, tuple(blocks), (1,) * len(blocks))

    return expand
