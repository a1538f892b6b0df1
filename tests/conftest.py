import pytest

from igbs import accel


# the ids name the block the MI counts get: the module's, or a small one
@pytest.fixture(params=[None, 1000], ids=["MI_BLOCK", "small-blocks"])
def mi_block(request, monkeypatch):
    """The module's block size, and one small enough that 300-pixel rows
    go at most three to a block."""
    if request.param is not None:
        monkeypatch.setattr(accel, "CACHE_BLOCK", request.param)
