import pytest

from heislab import parallel


@pytest.fixture
def pool_counter(monkeypatch):
    """(started, maps): one entry per process pool started and per pool map call."""
    started, maps = [], []

    class CountingPool(parallel.ProcessPoolExecutor):
        def __init__(self, *a, **kw):
            started.append(1)
            super().__init__(*a, **kw)

        def map(self, *a, **kw):
            maps.append(1)
            return super().map(*a, **kw)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingPool)
    return started, maps
