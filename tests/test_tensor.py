import numpy as np
import pytest

from microvolumetry.errors import ShapeError
from microvolumetry.tensor import NUM_CLASSES, Shape4, argmax_channel


def test_shape4_of_accepts_4d():
    s = Shape4.of(np.zeros((2, 3, 4, 5)))
    assert s == (2, 3, 4, 5)
    assert s.channels == 3


@pytest.mark.parametrize("shape", [(4,), (2, 3), (1, 2, 3), (1, 2, 3, 4, 5)])
def test_shape4_rejects_wrong_rank(shape):
    with pytest.raises(ShapeError):
        Shape4.of(np.zeros(shape))


def test_shape4_rejects_zero_extent():
    with pytest.raises(ShapeError):
        Shape4(1, 0, 4, 4).validate()


def test_argmax_channel_picks_largest():
    scores = np.zeros((1, NUM_CLASSES, 2, 2))
    scores[0, 0, 0, 0] = 1.0
    scores[0, 1, 0, 1] = 1.0
    scores[0, 2, 1, 0] = 1.0
    scores[0, 2, 1, 1] = 1.0
    out = argmax_channel(scores)
    assert out.dtype == np.uint8
    assert out.shape == (1, 2, 2)
    assert (out == np.array([[0, 1], [2, 2]], dtype=np.uint8)).all()


def test_argmax_channel_ties_break_low():
    # exact three-way tie must resolve to class 0, two-way (1,2) tie to 1
    scores = np.zeros((1, NUM_CLASSES, 1, 2))
    scores[0, :, 0, 0] = 0.5
    scores[0, 1, 0, 1] = 0.7
    scores[0, 2, 0, 1] = 0.7
    out = argmax_channel(scores)
    assert out[0, 0, 0] == 0
    assert out[0, 0, 1] == 1


def test_argmax_channel_needs_three_channels():
    with pytest.raises(ShapeError):
        argmax_channel(np.zeros((1, 2, 4, 4)))
    with pytest.raises(ShapeError):
        argmax_channel(np.zeros((NUM_CLASSES, 4, 4)))
