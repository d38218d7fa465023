"""The braiding of a rack cocycle: the default resource cap of a run.

The braiding c(x (x) y) = q_{x,y} (x|>y) (x) x of a 2-cocycle q on a rack
X acts on X^(x)d, of dimension k^d for k = |X|.  Each cap is decided where
the thing it bounds is built: the k^d blocks of a proven degree in
racktwist.exact (check_degree), the group of translations and each Phi_r
in racktwist.nichols, and the k x k table of x_n in the CLI.  That c is a
braiding at all is decided by cocycle.check_rack_cocycle, which every
hilbert run calls first.
"""

DEFAULT_DIM_CAP = 200_000
