"""The braiding of a rack cocycle: the resource caps of its tensor powers.

The braiding c(x (x) y) = q_{x,y} (x|>y) (x) x of a 2-cocycle q on a rack
X acts on X^(x)d, of dimension k^d for k = |X|.  This module checks the
caps of a degree before anything of it is built: the dimension against
the cap of a run, the 64-bit entry keys and the int64 counts of at most
d! lifts (check_dimension, check_degree), which bound what
racktwist.exact assembles for a proven degree.  That c is a braiding at
all is decided by cocycle.check_rack_cocycle, which every hilbert run
calls first.
"""

from __future__ import annotations

from .cocycle import RackCocycle
from .errors import DimensionCapError

DEFAULT_DIM_CAP = 200_000


def _within(size: int, degree: int, bound: int) -> bool:
    """Whether size**degree <= bound, multiplied up to the bound and stopped there, so a huge degree costs nothing."""
    power = 1
    for _ in range(degree if size > 1 else min(degree, 1)):
        if power > bound:
            return False
        power *= size
    return power <= bound


def _dimension(size: int, degree: int) -> str:
    """size**degree written out if it fits in 64 bits, else as size^degree."""
    return str(size**degree) if degree * size.bit_length() <= 64 else f"{size}^{degree}"


def check_dimension(size: int, degree: int, dim_cap: int) -> None:
    """Raise DimensionCapError if degree `degree` over a rack of `size` elements exceeds dim_cap.

    It needs only the size, so a caller may check it before building the rack.
    """
    if not _within(size, degree, dim_cap):
        raise DimensionCapError(f"degree {degree} needs dimension {_dimension(size, degree)} > cap {dim_cap}")


def check_degree(q: RackCocycle, degree: int, dim_cap: int) -> None:
    """Raise DimensionCapError unless `exact.symmetrizer` can build this degree.

    The dimension k^degree must be within dim_cap (check_dimension), an
    entry's row, column and exponent must fit in a 64-bit key, and an
    entry, a count of at most degree! lifts, must fit in int64.  Each bound
    grows with the degree, so a degree that passes vouches for every
    smaller one.  k^degree is multiplied up no further than just past
    each bound, and degree! is never built.
    """
    check_dimension(q.rack.size, degree, dim_cap)
    # a key holds 2 bits(k^degree - 1) + bits(order - 1) <= 63 bits, that is k^degree <= 2^width
    width = (63 - (q.order - 1).bit_length()) // 2
    if width < 0 or not _within(q.rack.size, degree, 2**width):
        dim = _dimension(q.rack.size, degree)
        raise DimensionCapError(f"degree {degree} needs dimension {dim}, too large for 64-bit entry keys")
    # 20! < 2^63 <= 21!
    if degree > 20:
        raise DimensionCapError(f"degree {degree} has entries up to {degree}! >= 2^63, too large for int64")
