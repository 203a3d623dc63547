"""The digest that the golden tests pin numerical outputs with."""

import hashlib

import numpy as np


def digest(*parts) -> str:
    """First 16 hex digits of the sha256 of the parts, each as contiguous
    little-endian float64, so any change in any bit changes it."""
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part, dtype="<f8").tobytes())
    return h.hexdigest()[:16]
