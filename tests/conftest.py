import numpy as np
import pytest

from spherehhd import build_A, build_B


# degrees at the edges of the folded blocks of decompose and differentiate
# (32 lanes, lane m holding orders m and n - m): odd and even n, order n / 2
# alone in its lane, first blocks of one or two lanes (n = 2 ... 5), one
# full block (n = 64, 65), and a last block with one lane (66, 130) or nearly
# full (127)
FOLD_DEGREES = [2, 3, 4, 5, 63, 64, 65, 66, 127, 128, 129, 130]


def dense_block_system(n, m):
    """Dense [[A, B], [B, A]] for oracle comparisons (small n only)."""
    a = build_A(n, m).toarray()
    b = build_B(n, m).toarray()
    return np.block([[a, b], [b, a]])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
