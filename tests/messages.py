"""Compare wire messages from outside the package.

The messages that carry a parameter vector (``PullResponse`` and ``Push``)
compare by identity, so the tests compare them here: every field, and a
vector by its dtype, shape and bytes, which also tells ``-0.0`` from
``0.0`` and matches a NaN to the same NaN.
"""

from dataclasses import fields

import numpy as np


def same_message(a, b) -> bool:
    """True when ``a`` and ``b`` are messages of one type whose fields all
    match, vectors by their bytes."""
    if type(a) is not type(b):
        return False
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            x, y = (x.dtype, x.shape, x.tobytes()), (y.dtype, y.shape, y.tobytes())
        if x != y:
            return False
    return True
