"""Adam optimizer over the network's named parameter tree."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

ParamTree = dict[str, tuple[np.ndarray, ...]]


@dataclass
class AdamState:
    """First/second moment accumulators plus the step counter.

    Moments mirror the parameter tree and start at zero; t starts at 0 and
    advances by exactly one per adam_step.
    """

    m: ParamTree
    v: ParamTree
    t: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


def init_adam(params: ParamTree, **hyper: float) -> AdamState:
    """Zero moments for `params`; `hyper` may set lr, beta1, beta2 and epsilon, else AdamState's defaults."""
    zeros = lambda: {k: tuple(np.zeros_like(a) for a in t) for k, t in params.items()}
    return AdamState(m=zeros(), v=zeros(), **hyper)


def _check_tree(params: ParamTree, other: ParamTree, what: str) -> None:
    if list(params) != list(other):
        raise ShapeError(f"{what} names do not mirror the parameter tree")
    for k in params:
        if len(params[k]) != len(other[k]):
            raise ShapeError(f"{what}[{k}] has {len(other[k])} tensors, expected {len(params[k])}")
        for p, o in zip(params[k], other[k]):
            if p.shape != o.shape:
                raise ShapeError(f"{what}[{k}] shape {o.shape} != parameter shape {p.shape}")


def adam_step(params: ParamTree, grads: ParamTree, state: AdamState) -> tuple[ParamTree, AdamState]:
    """One Adam update, in place on params and state.

    t <- t+1; m <- b1 m + (1-b1) g; v <- b2 v + (1-b2) g^2;
    p <- p - lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps).
    """
    _check_tree(params, grads, "grads")
    _check_tree(params, state.m, "state.m")
    _check_tree(params, state.v, "state.v")
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    for name in params:
        for p, g, m, v in zip(params[name], grads[name], state.m[name], state.v[name]):
            m *= state.beta1
            m += (1.0 - state.beta1) * g
            v *= state.beta2
            v += (1.0 - state.beta2) * np.square(g)
            p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)
    return params, state
