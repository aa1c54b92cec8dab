"""Finite-difference verification of every backward pass.

Per-layer analytic gradients must match central differences (step 1e-6)
within 1e-4 relative error; the full depth-1 network at 8x8 within 1e-3
over five fixed seeds, and the depth-2 network, with a scaled denominator
floor, over two. See helpers.py for why parameters are nudged off the
zero-bias kink before the end-to-end comparison.
"""

import numpy as np
import pytest

from helpers import (
    FD_STEP,
    conv_gradient_error,
    e2e_gradient_error,
    e2e_loss,
    pool_gradient_error,
    relu_gradient_error,
    sigmoid_gradient_error,
    softmax_cce_gradient_error,
    tconv_gradient_error,
)
from microvolumetry.layers import gradient_check

SEEDS = range(5)
LAYER_TOL = 1e-4
E2E_TOL = 1e-3
E2E_REL_FLOOR = 1e-4


@pytest.mark.parametrize("seed", SEEDS)
def test_conv2d_same_padding(seed):
    assert conv_gradient_error(seed) < LAYER_TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_conv2d_no_padding(seed):
    assert conv_gradient_error(seed, padding=0) < LAYER_TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_tconv2(seed):
    assert tconv_gradient_error(seed) < LAYER_TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_maxpool2(seed):
    assert pool_gradient_error(seed) < LAYER_TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_relu(seed):
    assert relu_gradient_error(seed) < LAYER_TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_sigmoid(seed):
    assert sigmoid_gradient_error(seed) < LAYER_TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_softmax_cross_entropy(seed):
    assert softmax_cce_gradient_error(seed) < LAYER_TOL


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("head", ["sigmoid", "softmax"])
def test_end_to_end_depth1(head, seed):
    assert e2e_gradient_error(head, seed) < E2E_TOL


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("head", ["sigmoid", "softmax"])
def test_end_to_end_depth2_with_skips(head, seed):
    # Some gradients here are about 1e-8 (dec1.tconv), where central-difference
    # roundoff at step 1e-6 is comparable to the value itself; the default 1e-8
    # denominator floor reads that roundoff as a 3.7e-3 error. Flooring at
    # 1e-4 of the largest analytic gradient measures what matters instead.
    fn, arrays = e2e_loss(head, seed, depth=2)
    _, analytic = fn(arrays)
    floor = E2E_REL_FLOOR * max(np.abs(g).max() for g in analytic)
    assert gradient_check(fn, arrays, step=FD_STEP, floor=floor) < E2E_TOL
