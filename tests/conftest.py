"""Shared pytest fixtures and timing helpers for the test suite."""

from __future__ import annotations

import concurrent.futures
import os
import time

import numpy as np
import pytest

from repro.clustering import cluster
from repro.datasets import gas_like, susy_like
from repro.kernels import GaussianKernel


def wait_until(predicate, timeout: float = 10.0, interval: float = 0.01,
               message: str = "condition not met in time"):
    """Poll ``predicate`` until it is truthy or ``timeout`` elapses.

    The suite's replacement for fixed ``time.sleep(...)`` synchronization:
    it returns as soon as the condition holds (fast on quick machines) and
    only fails after a generous deadline (robust on slow / loaded CI), so
    timing-dependent tests neither flake nor waste wall-clock.

    Parameters
    ----------
    predicate:
        Zero-argument callable; its last return value is also returned.
    timeout:
        Seconds before giving up and asserting.
    interval:
        Seconds between polls.
    message:
        Assertion message on timeout.

    Returns
    -------
    The first truthy value the predicate produced.
    """
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= deadline:
            raise AssertionError(f"{message} (after {timeout:.1f}s)")
        time.sleep(interval)


def docs_recipe() -> str:
    """The "Reading an artifact without the library" code block of
    ``docs/serving.md``, as written; it reads ``model.npz`` in the working
    directory and leaves ``header``, ``arrays``, ``digest`` and
    ``predict`` in its namespace."""
    docs = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "docs", "serving.md")
    with open(docs, encoding="utf-8") as fh:
        section = fh.read().split(
            "## Reading an artifact without the library")[1]
    return section.split("```python\n")[1].split("```")[0]


def same_hmatrix_blocks(a, b) -> bool:
    """Two H matrices agree bit for bit, block by block."""
    if len(a.blocks) != len(b.blocks):
        return False
    for x, y in zip(a.blocks, b.blocks):
        if (x.block_id, x.row_slice, x.col_slice) != (
                y.block_id, y.row_slice, y.col_slice):
            return False
        if (x.dense is None) != (y.dense is None):
            return False
        if x.dense is not None:
            if not np.array_equal(x.dense, y.dense):
                return False
        elif not (np.array_equal(x.lowrank.U, y.lowrank.U)
                  and np.array_equal(x.lowrank.V, y.lowrank.V)):
            return False
    return True


def assert_same_arrays(obj_a, obj_b, names) -> None:
    """The named array attributes of two objects agree bit for bit."""
    for name in names:
        a, b = getattr(obj_a, name, None), getattr(obj_b, name, None)
        if a is None or b is None:
            assert a is None and b is None, name
            continue
        assert np.array_equal(np.asarray(a), np.asarray(b)), name


def cold_refactor(self, lam, timing=None):
    """Stand-in for ``ULVFactorization.refactor`` that shares nothing.

    Patched in by the tests that need the reference a refit from resident
    factors must equal bitwise: a cold factorization of the same matrix.
    """
    return type(self)(self.hss, timing=timing, lam=lam)


def assert_same_hss(hss_a, hss_b) -> None:
    """Two HSS matrices hold bitwise-equal generators on every node."""
    assert hss_a.n == hss_b.n
    for node_id in range(hss_a.tree.n_nodes):
        assert_same_arrays(hss_a.node_data[node_id], hss_b.node_data[node_id],
                           ("D", "U", "B12"))


@pytest.fixture
def pools_built(monkeypatch):
    """Count every ``ThreadPoolExecutor`` constructed while it is active."""
    built = []
    init = concurrent.futures.ThreadPoolExecutor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("thread_name_prefix", ""))
        init(self, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "__init__",
                        counting_init)
    return built


@pytest.fixture(scope="session")
def rng():
    """A session-wide deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_gas():
    """A small GAS-like dataset (n=256, d=128) with ±1 labels."""
    X, y = gas_like(256, seed=7)
    return X, y


@pytest.fixture(scope="session")
def small_susy():
    """A small SUSY-like dataset (n=256, d=8) with ±1 labels."""
    X, y = susy_like(256, seed=11)
    return X, y


@pytest.fixture(scope="session")
def clustered_kernel_matrix(small_susy):
    """A kernel matrix (permuted by 2MN clustering) plus its cluster tree."""
    X, _ = small_susy
    result = cluster(X, method="two_means", leaf_size=16, seed=3)
    kernel = GaussianKernel(h=1.0)
    K = kernel.matrix(result.X)
    K[np.diag_indices_from(K)] += 1.0  # ridge shift keeps it well conditioned
    return K, result
