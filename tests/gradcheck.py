"""Finite-difference gradient oracle shared by the training and acceptance tests."""

import numpy as np

from pseudoe.relmaps import Variant
from pseudoe.training import gradients, nll_loss

TRAINABLE = {
    Variant.BOTH: ("coords", "node_bias", "rel_u", "rel_r", "rel_h", "rel_c"),
    Variant.DT: ("coords", "node_bias", "rel_u", "rel_r", "rel_c"),
    Variant.MT: ("coords", "node_bias", "rel_h", "rel_c"),
}


def finite_difference_tape(params, batch, negs, h=1e-6):
    """Central differences of the loss over every trainable coordinate, as
    dense tables in the ModelParams layout, by table name."""
    tables = {}
    for name in TRAINABLE[params.variant]:
        arr = getattr(params, name)
        grad = tables[name] = np.zeros(arr.shape)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + h
            up = nll_loss(params, batch, negs)
            arr[idx] = orig - h
            down = nll_loss(params, batch, negs)
            arr[idx] = orig
            grad[idx] = (up - down) / (2 * h)
    return tables


def max_gradient_mismatch(params, batch, negs, h=1e-6):
    """Worst relative disagreement between analytic and finite-difference gradients.

    Relative to the larger of the two entries, floored at 1e-3 of the
    gradient's own scale so coordinates that are numerically zero are
    compared absolutely (central differences carry ~1e-9 roundoff noise).
    The analytic gradients are read through the tape's dense views.
    """
    analytic = gradients(params, batch, negs)
    fd = finite_difference_tape(params, batch, negs, h=h)
    worst = 0.0
    for name in TRAINABLE[params.variant]:
        a = getattr(analytic, name)
        f = fd[name]
        floor = 1e-3 * max(1.0, float(np.max(np.abs(f))))
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), floor)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst
