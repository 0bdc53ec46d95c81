from pathlib import Path

import numpy as np
import pytest

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def stream_builds(monkeypatch):
    """Counts of the SeedSequence, PCG64 and default_rng calls made through numpy.random."""
    counts = {"SeedSequence": 0, "PCG64": 0, "default_rng": 0}
    for name in counts:
        real = getattr(np.random, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.random, name, counted)
    return counts
