import threading

import pytest

from mmsbkit import crsc, srsc
from mmsbkit import recovery
from mmsbkit._blas import one_blas_thread


def counts(getters):
    return [get() for get in getters]


def test_nested_blocks_keep_one_thread_until_the_outer_leaves(blas_threads):
    with one_blas_thread():
        with one_blas_thread():
            assert counts(blas_threads) == [1] * len(blas_threads)
        assert counts(blas_threads) == [1] * len(blas_threads)
    assert counts(blas_threads) == [2] * len(blas_threads)


def test_overlapping_blocks_in_two_threads_restore_once_both_leave(blas_threads):
    # the count is process-wide: the first block to leave must not put
    # back the count while the other block still runs
    entered, first_left, seen = threading.Event(), threading.Event(), []

    def other():
        with one_blas_thread():
            entered.set()
            first_left.wait(timeout=10)
            seen.append(counts(blas_threads))

    worker = threading.Thread(target=other)
    with one_blas_thread():
        worker.start()
        entered.wait(timeout=10)
    first_left.set()
    worker.join(timeout=10)
    assert seen == [[1] * len(blas_threads)]
    assert counts(blas_threads) == [2] * len(blas_threads)


def test_count_comes_back_when_the_block_raises(blas_threads):
    with pytest.raises(RuntimeError, match="inside"):
        with one_blas_thread():
            raise RuntimeError("inside")
    assert counts(blas_threads) == [2] * len(blas_threads)


@pytest.mark.parametrize("pipeline", [srsc, crsc])
def test_pipelines_run_on_one_thread(monkeypatch, blas_threads, small_graph, pipeline):
    seen = []
    solve = recovery.leading_eigenpairs

    def spy(*args):
        seen.append(counts(blas_threads))
        return solve(*args)

    monkeypatch.setattr(recovery, "leading_eigenpairs", spy)
    pipeline(small_graph, 3)
    assert seen == [[1] * len(blas_threads)]
    assert counts(blas_threads) == [2] * len(blas_threads)
