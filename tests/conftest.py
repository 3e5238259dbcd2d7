import numpy as np
import pytest

from spherehhd import build_A, build_B


def dense_block_system(n, m):
    """Dense [[A, B], [B, A]] for oracle comparisons (small n only)."""
    a = build_A(n, m).toarray()
    b = build_B(n, m).toarray()
    return np.block([[a, b], [b, a]])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
