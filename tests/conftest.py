import numpy as np
import pytest

from submodal.similarity import EmbeddingMatrix, cosine_kernel


def rescaled_cosine(rng, n, d=6):
    """Random rescaled cosine kernel, the substrate every test builds on."""
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    s = 0.5 * (1.0 + x @ x.T)
    np.fill_diagonal(s, 1.0)
    return s


def cosine_block(a, b=None):
    """``cosine_kernel(a, b).data`` for plain arrays of row vectors."""
    eb = None if b is None else EmbeddingMatrix.from_array(b)
    return cosine_kernel(EmbeddingMatrix.from_array(a), eb).data


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
