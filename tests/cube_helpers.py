"""The state cube as an array of states, for tests that compare what the
package computes on the cube's open axes with the same quantities at points."""

import numpy as np


def state_cube(m: int, d: int) -> np.ndarray:
    """All m**d states of {0..m-1}^d as rows, in C order (coordinate 0
    slowest), the flattening order of a DiscreteJoint's table.

    The symbols have the narrowest unsigned dtype that holds m - 1 (uint8 up
    to m = 256), an eighth of an int64 cube; arithmetic on them must go
    through int64, as the base-m state codes do."""
    return np.indices((m,) * d, dtype=np.min_scalar_type(m - 1)).reshape(d, -1).T
