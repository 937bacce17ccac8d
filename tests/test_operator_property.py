"""Properties of the Markov operator on small random clouds.

Coordinates are multiples of 1/1024 in [-64, 64], so scaling a cloud by any
power of two from 2^-700 to 2^700 is exact and keeps every coordinate a
normal float.  Clouds hold at most 40 points, so an example costs well under
a millisecond of linear algebra.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spectrend.operator import NumericalError, build_operator, eigendecompose

COORDS = st.integers(-2**16, 2**16).map(lambda v: v / 1024.0)
CLOUDS = st.tuples(st.integers(12, 40), st.integers(1, 3)).flatmap(
    lambda shape: arrays(float, shape, elements=COORDS))
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def operator_or_skip(pts, s, K):
    try:
        return build_operator(pts, s, K)
    except NumericalError:    # coincident or isolated points
        assume(False)


@SETTINGS
@given(pts=CLOUDS, s=st.integers(0, 2), K=st.integers(1, 6))
def test_markov_matrix_is_nonnegative_and_row_stochastic(pts, s, K):
    P = operator_or_skip(pts, s, K).P
    assert np.all(P >= 0.0)
    np.testing.assert_allclose(P.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@SETTINGS
@given(pts=CLOUDS, s=st.integers(0, 2), K=st.integers(1, 6), k=st.integers(-700, 700))
def test_power_of_two_scaling_changes_nothing(pts, s, K, k):
    op = operator_or_skip(pts, s, K)
    scaled = build_operator(np.ldexp(pts, k), s, K)
    np.testing.assert_array_equal(scaled.P, op.P)
    m = min(6, op.n)
    np.testing.assert_array_equal(eigendecompose(scaled, m).eigenvalues,
                                  eigendecompose(op, m).eigenvalues)
