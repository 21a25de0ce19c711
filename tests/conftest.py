"""Fixtures shared by the test modules."""

from concurrent.futures import ProcessPoolExecutor

import pytest

from hullwalk import montecarlo


@pytest.fixture
def pool_sizes(monkeypatch):
    """The ``max_workers`` of every process pool ``montecarlo`` starts during the test, in order."""
    sizes = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
    return sizes
