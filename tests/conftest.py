import numpy as np
import pytest


# degrees at the edges of the folded blocks of decompose and differentiate
# (32 lanes, lane m holding orders m and n - m): odd and even n, order n / 2
# alone in its lane, first blocks of one or two lanes (n = 2 ... 5), one
# full block (n = 64, 65), and a last block with one lane (66, 130) or nearly
# full (127)
FOLD_DEGREES = [2, 3, 4, 5, 63, 64, 65, 66, 127, 128, 129, 130]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
