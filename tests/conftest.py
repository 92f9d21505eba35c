import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from certbit.rng import RandomStream


@pytest.fixture
def rng():
    return RandomStream(12345)


@pytest.fixture
def make_rng():
    def factory(seed=12345):
        return RandomStream(seed)

    return factory


# The sampling methods whose calls perfbench counts as rng.calls.
RNG_METHODS = ("random", "integers", "bit", "bits", "permutation", "choice", "multinomial")


@pytest.fixture
def rng_calls(monkeypatch):
    """Count RandomStream sampling calls by method, and record the leading size of each draw."""
    calls = SimpleNamespace(counts=Counter(), rows=[])
    for name in RNG_METHODS:
        original = getattr(RandomStream, name)

        def counted(self, *args, _original=original, _name=name, **kwargs):
            drawn = _original(self, *args, **kwargs)
            calls.counts[_name] += 1
            calls.rows.append(np.shape(drawn)[0] if np.ndim(drawn) else 1)
            return drawn

        monkeypatch.setattr(RandomStream, name, counted)
    return calls
