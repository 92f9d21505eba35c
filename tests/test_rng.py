"""RandomStream: the draw-counting guard sees every sampling method, batched permutations and row-block draws."""

import inspect

import numpy as np
import pytest

from certbit.rng import RandomStream
from conftest import RNG_METHODS


def test_every_sampling_method_is_counted():
    # rng_calls and perfbench's rng.calls count only the methods they list,
    # so an unlisted sampling method would draw past every draw-cost guard.
    public = {name for name, _ in inspect.getmembers(RandomStream, inspect.isfunction) if not name.startswith("_")}
    assert public - {"split"} == set(RNG_METHODS)


@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("n", [0, 1, 64])
def test_permutation_rows_are_successive_permutations(n, rows):
    stream, single = RandomStream(3), RandomStream(3)
    drawn = stream.permutation(n, rows=rows)
    assert drawn.shape == (rows, n)
    assert drawn.tolist() == [single.permutation(n).tolist() for _ in range(rows)]
    assert stream.random() == single.random()


def test_bits_is_the_integers_draw_itself():
    stream, reference = RandomStream(4), RandomStream(4)
    drawn = stream.bits(128)
    assert isinstance(drawn, np.ndarray) and drawn.dtype == np.int64
    assert drawn.tolist() == reference.integers(0, 2, size=128).tolist()
    assert stream.random() == reference.random()


def _draw(stream, method, rows, cols):
    return stream.random((rows, cols)) if method == "random" else stream.integers(0, 2, size=(rows, 2))


@pytest.mark.parametrize("rows", [1, 5, 300, 2 * 4096 + 3])
@pytest.mark.parametrize("method", ["random", "integers"])
def test_row_blocks_are_the_one_draw_itself(method, rows):
    # The Monte Carlo samplers in ``analysis`` draw in row blocks and report the one draw's numbers.
    pick = np.random.default_rng(rows)
    for seed in range(4):
        cols = int(pick.integers(1, 17))
        bounds = [0, *sorted(pick.integers(0, rows + 1, size=seed + 1).tolist()), rows]
        stream, reference = RandomStream(seed), RandomStream(seed)
        if seed % 2:  # start mid-word: a 32-bit draw leaves half of Philox's next 64-bit output
            assert stream.bit() == reference.bit()
        drawn = [_draw(stream, method, stop - start, cols) for start, stop in zip(bounds, bounds[1:])]
        assert np.concatenate(drawn).tolist() == _draw(reference, method, rows, cols).tolist()
        assert stream.random() == reference.random()
