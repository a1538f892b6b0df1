"""The lookup of numpy's OpenBLAS thread count, which ``run_compare`` needs
before it forks. ``tests/test_pipeline.py`` skips every case when the lookup
finds nothing, so a lookup that broke would show there only as skips; here
it fails wherever an OpenBLAS is loaded."""

import pytest

from igbs import pipeline


def test_a_loaded_openblas_has_its_thread_count_found():
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            mapped = "openblas" in fh.read()
    except OSError:
        pytest.skip("no /proc/self/maps to tell whether an OpenBLAS is loaded")
    if not mapped:
        pytest.skip("no OpenBLAS is loaded: numpy uses another BLAS")
    blas = pipeline._openblas_threads()
    assert blas is not None
    get, put = blas
    threads = get()
    try:
        put(1)
        assert get() == 1
    finally:
        put(threads)
    assert get() == threads
