import numpy as np
import pytest

from microvolumetry.errors import ShapeError
from microvolumetry.optim import adam_step, init_adam


def make_tree(seed, shapes=((3, 3), (3,))):
    rng = np.random.default_rng(seed)
    return {"layer": tuple(rng.standard_normal(s) for s in shapes)}


def reference_adam(arrays, grad_seq, lr, beta1, beta2, eps):
    """Straight transcription of the update rule over a flat array list."""
    p = [a.copy() for a in arrays]
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    for t, grads in enumerate(grad_seq, start=1):
        for i, g in enumerate(grads):
            m[i] = beta1 * m[i] + (1 - beta1) * g
            v[i] = beta2 * v[i] + (1 - beta2) * g**2
            m_hat = m[i] / (1 - beta1**t)
            v_hat = v[i] / (1 - beta2**t)
            p[i] = p[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


def test_first_step_moves_by_lr_times_sign():
    params = make_tree(0)
    before = {k: tuple(a.copy() for a in t) for k, t in params.items()}
    rng = np.random.default_rng(1)
    # gradients bounded away from zero so epsilon is negligible
    grads = {
        "layer": tuple(
            np.sign(rng.standard_normal(a.shape)) * rng.uniform(0.5, 2.0, a.shape)
            for a in params["layer"]
        )
    }
    state = init_adam(params, lr=1e-3)
    adam_step(params, grads, state)
    for p, q, g in zip(before["layer"], params["layer"], grads["layer"]):
        delta = q - p
        assert np.allclose(delta, -1e-3 * np.sign(g), atol=1e-3 * 1e-6)


def test_update_magnitude_ignores_gradient_scale():
    # the bias-corrected ratio m_hat/sqrt(v_hat) is scale-free on step one
    deltas = []
    for scale in (1.0, 1000.0):
        params = make_tree(2)
        before = params["layer"][0].copy()
        grads = {"layer": tuple(np.full(a.shape, 0.7 * scale) for a in params["layer"])}
        state = init_adam(params)
        adam_step(params, grads, state)
        deltas.append(params["layer"][0] - before)
    assert np.allclose(deltas[0], deltas[1], rtol=1e-5)


def test_matches_reference_over_several_steps():
    params = make_tree(3)
    mirror = [a.copy() for a in params["layer"]]
    rng = np.random.default_rng(4)
    grad_seq = [
        {"layer": tuple(rng.standard_normal(a.shape) for a in params["layer"])}
        for _ in range(5)
    ]
    state = init_adam(params, lr=0.01, beta1=0.8, beta2=0.95, epsilon=1e-6)
    for g in grad_seq:
        adam_step(params, g, state)
    expected = reference_adam(
        mirror, [g["layer"] for g in grad_seq], lr=0.01, beta1=0.8, beta2=0.95, eps=1e-6
    )
    for a, b in zip(params["layer"], expected):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-15)


def test_update_is_bit_identical_to_reference():
    # a large array, a Fortran-order one and a 0-d one
    rng = np.random.default_rng(8)
    params = {
        "a": (rng.standard_normal((1000, 100)), rng.standard_normal(5)),
        "b": (np.asfortranarray(rng.standard_normal((40, 30))),),
        "c": (np.array(0.5),),
    }
    mirror = [a.copy() for t in params.values() for a in t]
    grad_seq = [
        {k: tuple(rng.standard_normal(a.shape) for a in t) for k, t in params.items()}
        for _ in range(4)
    ]
    state = init_adam(params, lr=0.01, beta1=0.8, beta2=0.95, epsilon=1e-6)
    for g in grad_seq:
        adam_step(params, g, state)
    expected = reference_adam(
        mirror, [[a for t in g.values() for a in t] for g in grad_seq],
        lr=0.01, beta1=0.8, beta2=0.95, eps=1e-6,
    )
    for a, b in zip([a for t in params.values() for a in t], expected):
        assert np.array_equal(a, b)


def test_step_counter_and_in_place_update():
    params = make_tree(5)
    handles = [a for t in params.values() for a in t]
    grads = {"layer": tuple(np.ones_like(a) for a in params["layer"])}
    state = init_adam(params)
    out_params, out_state = adam_step(params, grads, state)
    assert out_state.t == 1 and out_state is state
    assert out_params is params
    assert all(a is b for a, b in zip(handles, [x for t in out_params.values() for x in t]))
    adam_step(params, grads, state)
    assert state.t == 2


def test_state_starts_at_zero():
    params = make_tree(6)
    state = init_adam(params, lr=0.5)
    assert state.t == 0 and state.lr == 0.5
    assert all((a == 0).all() for t in state.m.values() for a in t)
    assert all((a == 0).all() for t in state.v.values() for a in t)


def test_rejects_mismatched_trees():
    params = make_tree(7)
    state = init_adam(params)
    with pytest.raises(ShapeError):
        adam_step(params, {"other": params["layer"]}, state)
    bad = {"layer": (np.zeros((2, 2)), np.zeros(3))}
    with pytest.raises(ShapeError):
        adam_step(params, bad, state)
