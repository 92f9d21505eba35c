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


@pytest.mark.parametrize("size", [128, (3, 5)])
def test_bits_is_one_random_draw_below_a_half(size):
    stream, reference = RandomStream(4), RandomStream(4)
    drawn = stream.bits(size)
    assert isinstance(drawn, np.ndarray) and drawn.dtype == np.int64
    assert drawn.tolist() == (reference.random(size) < 0.5).astype(int).tolist()
    assert stream.random() == reference.random()


@pytest.mark.parametrize("n", [0, 1, 128])
def test_bits_are_the_values_of_as_many_bit_calls(n):
    stream, twin = RandomStream(5), RandomStream(5)
    assert stream.bits(n).tolist() == [twin.bit() for _ in range(n)]
    assert stream.random() == twin.random()


def _draw(stream, method, rows, cols):
    if method == "random":
        return stream.random((rows, cols))
    if method == "bits":
        return stream.bits((rows, cols))
    return stream.integers(0, 2, size=(rows, 2))


@pytest.mark.parametrize("rows", [1, 5, 300, 2 * 4096 + 3])
@pytest.mark.parametrize("method", ["random", "bits", "integers"])
def test_row_blocks_are_the_one_draw_itself(method, rows):
    # run_sessions and the Monte Carlo samplers draw in row blocks and report the one draw's numbers.
    pick = np.random.default_rng(rows)
    for seed in range(4):
        cols = int(pick.integers(1, 17))
        bounds = [0, *sorted(pick.integers(0, rows + 1, size=seed + 1).tolist()), rows]
        stream, reference = RandomStream(seed), RandomStream(seed)
        if seed % 2:  # start mid-word: a 32-bit draw leaves half of Philox's next 64-bit output
            assert stream.integers(0, 2) == reference.integers(0, 2)
        drawn = [_draw(stream, method, stop - start, cols) for start, stop in zip(bounds, bounds[1:])]
        assert np.concatenate(drawn).tolist() == _draw(reference, method, rows, cols).tolist()
        assert stream.random() == reference.random()
