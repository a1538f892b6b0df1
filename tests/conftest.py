import numpy as np
import pytest

from igbs import accel
from igbs.infotheory import joint_entropies


# the ids name the block the MI counts get: the module's, or a small one
@pytest.fixture(params=[None, 1000], ids=["MI_BLOCK", "small-blocks"])
def mi_block(request, monkeypatch):
    """The module's block size, and one small enough that 300-pixel rows
    go at most three to a block."""
    if request.param is not None:
        monkeypatch.setattr(accel, "CACHE_BLOCK", request.param)


@pytest.fixture
def stacked_counts():
    """``stacked_counts(x, rows, alphabet)``: the int64 count blocks
    ``joint_entropies`` hands its forms, in order, recorded by a form that
    keeps a copy of each block and returns it."""

    def count(x, rows, alphabet):
        blocks = []

        def record(counts):
            blocks.append(counts.copy())
            return counts

        joint_entropies(x, rows, alphabet, record)
        assert all(b.dtype == np.int64 for b in blocks)
        return blocks

    return count
