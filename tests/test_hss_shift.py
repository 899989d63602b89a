"""One λ-free compression serves every ridge shift (Section 5.3).

Changing the ridge parameter lambda only changes the diagonal of the
compressed matrix, so the compression can be reused across lambda values —
the property the paper exploits during hyper-parameter tuning.  The shift
is applied by the ULV factorization, to copies of the leaf diagonals.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import cluster
from repro.config import HSSOptions
from repro.hss import ULVFactorization, build_hss_from_dense
from repro.kernels import GaussianKernel


@pytest.fixture(scope="module")
def base_problem():
    rng = np.random.default_rng(0)
    centers = rng.standard_normal((5, 4)) * 4.0
    X = centers[rng.integers(5, size=192)] + 0.4 * rng.standard_normal((192, 4))
    result = cluster(X, method="two_means", leaf_size=16, seed=0)
    K = GaussianKernel(h=1.0).matrix(result.X)
    hss = build_hss_from_dense(K + 1.0 * np.eye(192), result.tree,
                               HSSOptions(rel_tol=1e-8))
    return hss, K


class TestDiagonalShift:
    def test_solve_for_multiple_lambdas_reusing_compression(self, base_problem):
        hss, K = base_problem
        rng = np.random.default_rng(1)
        b = rng.standard_normal(192)
        # hss approximates K + 1.0 I; factoring it at (lam - 1.0) gives K + lam I.
        for lam in (0.5, 2.0, 8.0):
            x = ULVFactorization(hss, lam=lam - 1.0).solve(b)
            x_ref = np.linalg.solve(K + lam * np.eye(192), b)
            np.testing.assert_allclose(x, x_ref, atol=1e-5 * np.linalg.norm(x_ref))
