"""``run_compare``'s forked children: each method but the last finishes in a
child while the next method's bands are selected. Every case runs with two
CPUs (children) and with one (inline) and must end the same way: the same
output bytes, recorded failures, exceptions, exit codes and stderr lines.
No child may outlive ``run_compare``, and the BLAS thread count, one while
children run, comes back."""

import os
import signal
import threading

import pytest

from igbs import pipeline, raster
from igbs.cli import main
from igbs.errors import ConfigError, DataError, MethodError
from igbs.report import RunConfig
from igbs.synth import SynthSpec, generate_cube

BLAS = pipeline._openblas_threads() if hasattr(os, "fork") else None
pytestmark = pytest.mark.skipif(BLAS is None,
                                reason="no os.fork, or no OpenBLAS thread count to bound")


@pytest.fixture
def scene():
    spec = SynthSpec(rows=16, cols=16, bands=12, classes=3, informative_bands=(1, 5, 9),
                     noise_sigma=1.0, class_separation=6.0, seed=5)
    cube, gt, _ = generate_cube(spec)
    return cube, gt


@pytest.fixture(autouse=True)
def no_child_left():
    threads = BLAS[0]()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert BLAS[0]() == threads


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked, counted in the parent."""
    pids, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def set_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def tree(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def compare_both_ways(monkeypatch, tmp_path, run):
    """``run(out)`` with two CPUs, then with one: the two results."""
    results = []
    for cpus in (2, 1):
        set_cpus(monkeypatch, cpus)
        results.append(run(tmp_path / f"cpus{cpus}"))
    return results


def fail_in_run_method(monkeypatch, target, error):
    real = pipeline.run_method

    def failing(qcube, gt, method, *args):
        if method == target:
            raise error
        return real(qcube, gt, method, *args)

    monkeypatch.setattr(pipeline, "run_method", failing)


@pytest.mark.parametrize("classifier", ["svm", "1nn"])
def test_children_write_the_inline_bytes(scene, tmp_path, monkeypatch, forks, classifier):
    cube, gt = scene

    def run(out):
        config = RunConfig(k=4, seed=1, classifier=classifier, out=str(out))
        outcomes = pipeline.run_compare(config, cube=cube, gt=gt)
        assert [o.error for o in outcomes] == [None] * 5
        return tree(out)

    forked, inline = compare_both_ways(monkeypatch, tmp_path, run)
    assert len(forks) == 4  # five methods, the last in the main process; none on one CPU
    assert forked == inline


def test_a_second_thread_keeps_the_run_inline(scene, tmp_path, monkeypatch, forks):
    cube, gt = scene
    set_cpus(monkeypatch, 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        pipeline.run_compare(RunConfig(k=4, methods=("MIM", "IGBS"), out=str(tmp_path / "out")),
                             cube=cube, gt=gt)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []


def test_a_failed_fork_finishes_inline(scene, tmp_path, monkeypatch):
    cube, gt = scene

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    def run(out):
        outcomes = pipeline.run_compare(RunConfig(k=4, seed=1, out=str(out)), cube=cube, gt=gt)
        return [o.error for o in outcomes], tree(out)

    fds = set(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", no_fork)
    unforked, inline = compare_both_ways(monkeypatch, tmp_path, run)
    assert unforked == inline
    assert set(os.listdir("/proc/self/fd")) == fds  # no pipe left open


def test_one_blas_thread_while_children_run(scene, tmp_path, monkeypatch, forks):
    cube, gt = scene
    set_cpus(monkeypatch, 2)

    def count_threads(qcube, gt, method, *args):
        raise MethodError(f"{BLAS[0]()} BLAS threads")

    monkeypatch.setattr(pipeline, "run_method", count_threads)
    outcomes = pipeline.run_compare(RunConfig(k=4, methods=("MIM", "IGBS"),
                                              out=str(tmp_path / "out")), cube=cube, gt=gt)
    assert len(forks) == 1
    assert [o.error for o in outcomes] == ["1 BLAS threads"] * 2  # child, then main


def test_children_run_at_a_lower_priority(scene, tmp_path, monkeypatch, forks):
    cube, gt = scene
    set_cpus(monkeypatch, 2)
    before = os.getpriority(os.PRIO_PROCESS, 0)

    def record_priority(qcube, gt, method, *args):
        raise MethodError(str(os.getpriority(os.PRIO_PROCESS, 0)))

    monkeypatch.setattr(pipeline, "run_method", record_priority)
    outcomes = pipeline.run_compare(RunConfig(k=4, methods=("MIM", "IGBS"),
                                              out=str(tmp_path / "out")), cube=cube, gt=gt)
    assert len(forks) == 1
    child, main = (int(o.error) for o in outcomes)
    assert child > main == before
    assert os.getpriority(os.PRIO_PROCESS, 0) == before


@pytest.mark.parametrize("error", [DataError("rows disagree"), MethodError("no convergence")],
                         ids=["DataError", "MethodError"])
def test_child_failure_is_recorded_and_the_others_go_on(scene, tmp_path, monkeypatch, forks,
                                                        error):
    cube, gt = scene
    fail_in_run_method(monkeypatch, "MIFS", error)

    def run(out):
        outcomes = pipeline.run_compare(RunConfig(k=4, seed=1, out=str(out)), cube=cube, gt=gt)
        return [o.error for o in outcomes], tree(out)

    forked, inline = compare_both_ways(monkeypatch, tmp_path, run)
    assert len(forks) == 4
    assert forked == inline
    assert forked[0] == [None, str(error), None, None, None]


def cli_both_ways(monkeypatch, tmp_path, capsys, scene):
    cube, gt = scene
    base = str(tmp_path / "scene")
    raster.save_cube(cube, base)
    raster.save_gt(gt, base + ".gt.raw")

    def run(out):
        code = main(["compare", "--cube", base, "--gt", base + ".gt.raw", "--k", "4",
                     "--out", str(out)])
        assert not out.exists()
        return code, capsys.readouterr().err

    return compare_both_ways(monkeypatch, tmp_path, run)


@pytest.mark.parametrize(
    "error, code",
    [(ConfigError("k above the bands"), 2), (MemoryError("no room"), 3),
     (FileNotFoundError(2, "No such file or directory", "lost.raw"), 3)],
    ids=["ConfigError", "MemoryError", "OSError"],
)
def test_child_error_ends_the_run_at_its_method(scene, tmp_path, monkeypatch, capsys, forks,
                                                error, code):
    # MIFS's child raises; MRMR's selection, in the main process meanwhile,
    # raises too. MIFS comes first, so its error ends the run.
    fail_in_run_method(monkeypatch, "MIFS", error)
    real = pipeline.greedy_select

    def select(qcube, gt, method, *args, **kwargs):
        if method == "MRMR":
            raise ConfigError("MRMR selected")
        return real(qcube, gt, method, *args, **kwargs)

    monkeypatch.setattr(pipeline, "greedy_select", select)
    forked, inline = cli_both_ways(monkeypatch, tmp_path, capsys, scene)
    assert len(forks) == 2  # MIM and MIFS
    assert forked == inline
    assert forked[0] == code
    assert forked[1].count("\n") == 1 and str(error) in forked[1]


@pytest.mark.parametrize("error", [ConfigError("MIBF selected"), KeyboardInterrupt()],
                         ids=["ConfigError", "KeyboardInterrupt"])
def test_main_process_error_ends_the_run(scene, tmp_path, monkeypatch, forks, error):
    cube, gt = scene
    real = pipeline.greedy_select

    def select(qcube, gt, method, *args, **kwargs):
        if method == "MIBF":
            raise error
        return real(qcube, gt, method, *args, **kwargs)

    monkeypatch.setattr(pipeline, "greedy_select", select)
    for cpus in (2, 1):
        set_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        with pytest.raises(type(error)):
            pipeline.run_compare(RunConfig(k=4, out=str(out)), cube=cube, gt=gt)
        assert not out.exists()
    assert len(forks) == 3  # MIM, MIFS and MRMR


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not picklable")


@pytest.mark.parametrize("end", ["exit", "kill", "interrupt", "system-exit", "unpicklable"])
def test_child_without_a_result_is_finished_inline(scene, tmp_path, monkeypatch, forks, end):
    cube, gt = scene
    parent = os.getpid()
    real = pipeline.run_method

    def ending(*args):
        if os.getpid() != parent:
            if end == "exit":
                os._exit(7)
            if end == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise {"interrupt": KeyboardInterrupt, "system-exit": SystemExit,
                   "unpicklable": Unpicklable}[end]()
        return real(*args)

    monkeypatch.setattr(pipeline, "run_method", ending)

    def run(out):
        try:
            outcomes = pipeline.run_compare(RunConfig(k=4, seed=1, out=str(out)),
                                            cube=cube, gt=gt)
        finally:
            if os.getpid() != parent:  # a child returned into its caller
                (tmp_path / "escaped").touch()
                os._exit(0)
        return [o.error for o in outcomes], tree(out)

    forked, inline = compare_both_ways(monkeypatch, tmp_path, run)
    assert not (tmp_path / "escaped").exists()
    assert len(forks) == 4
    assert forked == inline
