"""Row-chunk slabs: every conv and tconv output keeps its bits at any worker count.

`layers._WORKERS` is 1 whenever no BLAS thread variable is set, as in a plain
test run, and `layers._POOL` then has one thread. So these tests set both, a
pool of W - 1 threads beside the calling one, as the module sizes its own, and
set `_SLAB_FLOP` to 1 so that arrays this small split at all. The
(2, *, 11, 9) inputs with one-row chunks make 11 chunks, which neither 2 nor 3
slabs divide evenly.
"""

import importlib
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import microvolumetry as mv
import microvolumetry.cli  # noqa: F401  (traced by perfbench, so wrapped below)
import microvolumetry.layers as L
from microvolumetry.layers import ConvSpec

ROOT = Path(__file__).resolve().parents[1]
WORKERS = (1, 2, 3)
CHUNKS = {"one_row": 1, "four_rows": 4 * 2 * 5 * 9 * 9 * 8, "whole": None}
POOLS: dict[int, ThreadPoolExecutor] = {}


@pytest.fixture(scope="module", autouse=True)
def pools():
    POOLS.update({w: ThreadPoolExecutor(max(w - 1, 1), thread_name_prefix="test-slab") for w in WORKERS})
    yield
    for pool in POOLS.values():
        pool.shutdown()
    POOLS.clear()


def set_workers(monkeypatch, workers: int) -> None:
    monkeypatch.setattr(L, "_WORKERS", workers)
    monkeypatch.setattr(L, "_POOL", POOLS[workers])


@pytest.fixture
def split_small(monkeypatch):
    monkeypatch.setattr(L, "_SLAB_FLOP", 1)
    return monkeypatch


def at_each_count(monkeypatch, fn) -> list[list[np.ndarray]]:
    """Copies of the arrays fn() returns, once per worker count."""
    runs = []
    for workers in WORKERS:
        set_workers(monkeypatch, workers)
        runs.append([np.array(a, copy=True) for a in fn()])
    return runs


def assert_same_bits(runs):
    for run in runs[1:]:
        assert len(run) == len(runs[0])
        for got, want in zip(run, runs[0]):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def case(dtype, cin=5, cout=4, k=3, size=(11, 9), seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, cin) + size).astype(dtype)
    w = rng.standard_normal((cout, cin, k, k)).astype(dtype)
    b = rng.standard_normal(cout).astype(dtype)
    return x, w, b


class TestSameBitsAtAnyWorkerCount:
    @pytest.mark.parametrize("chunks", CHUNKS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("k,stride,p", [(3, 1, 1), (1, 1, 0), (5, 1, 2), (3, 2, 1), (3, 1, 0)])
    def test_forward_into_a_fresh_output(self, split_small, chunks, dtype, k, stride, p):
        if CHUNKS[chunks] is not None:
            split_small.setattr(L, "_COL_CHUNK_BYTES", CHUNKS[chunks])
        x, w, b = case(dtype, k=k)
        spec = ConvSpec(5, 4, kernel=k, stride=stride, padding=p)
        runs = at_each_count(split_small, lambda: [L.conv2d_forward(x, w, b, spec)])
        assert_same_bits(runs)
        assert np.abs(runs[0][0] - L.conv2d_forward_naive(x, w, b, spec)).max() < 1e-4

    @pytest.mark.parametrize("chunks", CHUNKS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forward_with_a_second_input(self, split_small, chunks, dtype):
        if CHUNKS[chunks] is not None:
            split_small.setattr(L, "_COL_CHUNK_BYTES", CHUNKS[chunks])
        x, w, b = case(dtype)
        spec = ConvSpec(5, 4)
        runs = at_each_count(split_small, lambda: [L.conv2d_forward(x[:, :3], w, b, spec, x2=x[:, 3:])])
        assert_same_bits(runs + [[L.conv2d_forward(x, w, b, spec)]])

    @pytest.mark.parametrize("slowed", [None, "calling_thread", "workers", "first_worker"])
    @pytest.mark.parametrize("chunks", CHUNKS)
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("two_inputs", [False, True], ids=["x", "x_and_x2"])
    def test_forward_into_its_input(self, split_small, slowed, chunks, k, two_inputs):
        # Slowing one side's GEMMs lets the other side finish first: a slab that stored a
        # chunk its neighbour's band has yet to read would then change the output. With
        # "first_worker", the first slab on the pool starts late, so at W = 3 the last
        # slab stores its rows before the middle one has copied any.
        if CHUNKS[chunks] is not None:
            split_small.setattr(L, "_COL_CHUNK_BYTES", CHUNKS[chunks])
        rng = np.random.default_rng(k + two_inputs)
        x, x2 = (rng.standard_normal((2, 3, 11, 9)).astype(np.float32) for _ in range(2))
        x2 = x2 if two_inputs else None
        cin = 6 if two_inputs else 3
        w = rng.standard_normal((3, cin, k, k)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        spec = ConvSpec(cin, 3, kernel=k)
        fresh = L.conv2d_forward(x, w, b, spec, x2=x2)
        if slowed == "first_worker":
            real_patches = L._patches

            def patches(*args):  # args[4] is ho and args[7] the slab's chunk starts
                starts, ho = args[7], args[4]
                if starts.start == -(-ho // starts.step) // L._WORKERS * starts.step > 0:
                    time.sleep(0.005)
                yield from real_patches(*args)

            split_small.setattr(L, "_patches", patches)
        elif slowed is not None:
            real = np.matmul

            def matmul(*args, **kwargs):
                if (threading.current_thread() is threading.main_thread()) == (slowed == "calling_thread"):
                    time.sleep(0.001)
                return real(*args, **kwargs)

            split_small.setattr(L.np, "matmul", matmul)

        def into_x():
            y = x.copy()
            assert L.conv2d_forward(y, w, b, spec, x2=x2, out=y) is y
            return [y]

        assert_same_bits(at_each_count(split_small, into_x) + [[fresh]])

    @pytest.mark.parametrize("chunks", CHUNKS)
    @pytest.mark.parametrize("k,stride,p", [(3, 1, -1), (5, 1, -2), (3, 2, -1)])
    def test_correlation_with_negative_padding(self, split_small, chunks, k, stride, p):
        # a negative padding crops x by -p on each side, as the d_input correlation does when p > k-1
        if CHUNKS[chunks] is not None:
            split_small.setattr(L, "_COL_CHUNK_BYTES", CHUNKS[chunks])
        x, w, _ = case(np.float64, k=k)
        ho, wo = (11 + 2 * p - k) // stride + 1, (9 + 2 * p - k) // stride + 1
        wmat = w.reshape(4, -1)
        runs = at_each_count(split_small, lambda: [L._correlate(x, wmat, k, stride, p, ho, wo)])
        cropped = np.ascontiguousarray(x[:, :, -p : 11 + p, -p : 9 + p])
        assert_same_bits(runs + [[L._correlate(cropped, wmat, k, stride, 0, ho, wo)]])

    @pytest.mark.parametrize("chunks", CHUNKS)
    @pytest.mark.parametrize("k,p", [(3, 1), (3, 3), (5, 4), (1, 0)], ids=["same", "crop1", "crop1_k5", "k1"])
    def test_backward(self, split_small, chunks, k, p):
        # p > k-1 makes the d_input correlation pad by k-1-p < 0, a crop
        if CHUNKS[chunks] is not None:
            split_small.setattr(L, "_COL_CHUNK_BYTES", CHUNKS[chunks])
        x, w, _ = case(np.float64, k=k)
        spec = ConvSpec(5, 4, kernel=k, padding=p)
        d = np.random.default_rng(3).standard_normal((2, 4) + spec.out_size(11, 9))
        runs = at_each_count(split_small, lambda: L.conv2d_backward(x, w, spec, d))
        assert_same_bits(runs)
        assert_same_bits([list(L.conv2d_backward(x[:, :2], w, spec, d, x2=x[:, 2:]))] + runs[:1])

    @pytest.mark.parametrize("rows", [1, 2, None])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_tconv_forward(self, split_small, rows, dtype):
        if rows is not None:
            split_small.setattr(L, "_COL_CHUNK_BYTES", rows * 2 * 4 * 2 * 2 * 9 * 8)
            assert L._chunk_rows(2, 4, 2, 9) == rows
        x, _, b = case(dtype, cin=3, cout=4)
        w = np.random.default_rng(4).standard_normal((3, 4, 2, 2)).astype(dtype)
        runs = at_each_count(split_small, lambda: [L.tconv2_forward(x, w, b)])
        assert_same_bits(runs)

    def test_one_chunk_runs_in_the_calling_thread(self, split_small):
        # the 4x4 bottleneck of a depth-4 network on 64x64 images: every conv is one chunk
        x, w, b = case(np.float64, cin=8, cout=8, size=(4, 4))
        tw = np.random.default_rng(5).standard_normal((8, 4, 2, 2))
        submitted = []
        for pool in POOLS.values():
            split_small.setattr(pool, "submit", lambda *args: submitted.append(args))
        d = np.ones((2, 8, 4, 4))
        runs = at_each_count(split_small, lambda: [L.conv2d_forward(x, w, b, ConvSpec(8, 8)),
                                                   *L.conv2d_backward(x, w, ConvSpec(8, 8), d),
                                                   L.tconv2_forward(x, tw, b[:4])])
        assert_same_bits(runs)
        assert submitted == []


def test_small_calls_stay_in_one_slab(monkeypatch):
    # a 64x64 training conv has 8 chunks but too few FLOPs for a second thread to pay off
    set_workers(monkeypatch, 2)
    submitted = []
    monkeypatch.setattr(L._POOL, "submit", lambda *args: submitted.append(args))
    x, w, b = case(np.float64, cin=16, cout=16, size=(64, 64))
    assert 2 * w.size * 2 * 64 * 64 < 2 * L._SLAB_FLOP
    L.conv2d_forward(x, w, b, ConvSpec(16, 16))
    assert submitted == []


class TestFailingSlab:
    @pytest.mark.parametrize("failing", ["calling_thread", "worker"])
    def test_the_call_raises_after_every_other_slab_has_ended(self, split_small, failing):
        # 11 one-row chunks in 3 slabs: rows 0-2 in the calling thread, 3-6 and 7-10 on the pool
        split_small.setattr(L, "_COL_CHUNK_BYTES", 1)
        set_workers(split_small, 3)
        real, finished, failed, lock = np.matmul, [], [], threading.Lock()

        def matmul(*args, **kwargs):
            in_caller = threading.current_thread() is threading.main_thread()
            with lock:
                fail = in_caller == (failing == "calling_thread") and not failed
                if fail:
                    failed.append(True)
            if fail:
                raise MemoryError("one slab")
            time.sleep(0.002)  # so a slab that outlived the call would be caught writing
            result = real(*args, **kwargs)
            finished.append(time.perf_counter())
            return result

        split_small.setattr(L.np, "matmul", matmul)
        x, w, b = case(np.float64)
        with pytest.raises(MemoryError, match="one slab"):
            L.conv2d_forward(x, w, b, ConvSpec(5, 4))
        raised = time.perf_counter()
        assert len(finished) == (8 if failing == "calling_thread" else 7)  # the failing slab stops at once
        assert max(finished) < raised
        time.sleep(0.02)
        assert len(finished) == (8 if failing == "calling_thread" else 7)


def test_workers_call_no_traced_function(split_small):
    # perfbench keeps one span stack for the calling thread, so every traced call must come from it
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from tracing import TRACED, Patches, patch_bindings
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    split_small.setattr(L, "_COL_CHUNK_BYTES", 1)
    set_workers(split_small, 2)
    threads, patches, submitted, submit = set(), Patches(), [], L._POOL.submit
    split_small.setattr(L._POOL, "submit", lambda *args: submitted.append(args) or submit(*args))

    def recording(fn):
        def wrapper(*args, **kwargs):
            threads.add(threading.current_thread())
            return fn(*args, **kwargs)
        return wrapper

    cfg = mv.UNetConfig(depth=2, base_channels=4, input_size=16)
    params = mv.build(cfg, 0)
    batch = np.random.default_rng(0).random((2, 1, 16, 16))
    masks = np.eye(3)[np.random.default_rng(1).integers(0, 3, (2, 16, 16))].transpose(0, 3, 1, 2)
    try:
        for module, name, _ in TRACED:
            original = getattr(importlib.import_module(f"microvolumetry.{module}"), name)
            patch_bindings(patches, original, recording(original))
        scores, cache = mv.forward(params, cfg, batch)
        _, d_scores = mv.categorical_cross_entropy(scores, masks)
        mv.backward(params, cfg, cache, d_scores)
    finally:
        patches.restore()
    assert submitted and threads == {threading.main_thread()}


@pytest.mark.parametrize("env, affinity, want", [
    ({}, None, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, None, "cpus"),
    ({"OMP_NUM_THREADS": "1"}, None, "cpus"),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
    ({"OPENBLAS_NUM_THREADS": "64"}, None, 1),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, None, "cpus"),
    ({"OPENBLAS_NUM_THREADS": "two"}, None, 1),
    ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "0"}, None, 1),
], ids=["unset", "openblas_1", "omp_1", "one_cpu", "more_blas_than_cpus", "openblas_0_omp_1", "not_a_number",
        "empty_and_0"])
def test_worker_count_is_the_cpus_over_the_blas_threads(env, affinity, want):
    # the first of the two variables that holds a positive count, as OpenBLAS reads them; else 1
    base = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = str(Path(L.__file__).parents[1])
    cpus = sorted(os.sched_getaffinity(0))
    proc = subprocess.run(
        [sys.executable, "-c", "import microvolumetry.layers as L; print(L._WORKERS)"],
        env=base | env, capture_output=True, text=True, timeout=120, check=True,
        preexec_fn=None if affinity is None else lambda: os.sched_setaffinity(0, cpus[:affinity]))
    assert int(proc.stdout) == (len(cpus) if want == "cpus" else want)
