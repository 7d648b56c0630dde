import pytest

from shiftimpute.benchmark import ExperimentGrid, run_benchmark


@pytest.fixture(scope="session")
def full_grid_result():
    """The default 245-cell ridge grid, run once per session."""
    return run_benchmark(ExperimentGrid(), jobs=2)
