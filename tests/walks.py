"""Counting the tree walks of `ScalarExpression` passes."""

import numpy as np

from hessgeo.expressions import ScalarExpression


def count_walks(monkeypatch, names=("jet3",)):
    """Patches the named passes, `jet3` or `__call__`, to record each tree
    walk as (pass, shape of its points, order); the value-only `__call__` is
    of order 0.  Returns the list the records go to."""
    walks = []
    jet3, value = ScalarExpression.jet3, ScalarExpression.__call__

    def counted_jet3(expr, p, order=3):
        walks.append(("jet3", np.shape(p), order))
        return jet3(expr, p, order)

    def counted_value(expr, p):
        walks.append(("__call__", np.shape(p), 0))
        return value(expr, p)

    counted = {"jet3": counted_jet3, "__call__": counted_value}
    for name in names:
        monkeypatch.setattr(ScalarExpression, name, counted[name])
    return walks
