"""Numeric primitives shared by every stage of the pipeline.

Dense linear algebra is delegated to numpy; this module pins down the
conventions the rest of the package relies on: max-shifted log-sum-exp,
pairwise squared distances, PSD-repairing Cholesky factorization, seeded
Gaussian sampling, and a stream-addressable random source so parallel
work never shares state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

RIDGE_ESCALATIONS = 8


def log_sum_exp(values, axis: int | None = None):
    """Stable log(sum(exp(values))) along an axis.

    Uses the max-shift identity so inputs with large magnitude never
    overflow. Slices that are entirely -inf reduce to -inf.

    Args:
        values: array-like of reals (may contain -inf).
        axis: reduction axis; None reduces over all entries.

    Returns:
        Scalar for axis=None, otherwise an array with the axis removed.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("log_sum_exp over an empty set is undefined")
    m = np.max(v, axis=axis, keepdims=True)
    # -inf slices would produce inf - inf = nan under the shift; pin them.
    shift = np.where(np.isfinite(m), m, 0.0)
    # one work array: exp in place over the shifted values
    e = np.subtract(v, shift)
    np.exp(e, out=e)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(e, axis=axis, keepdims=True)) + shift
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


def sum_in_order(a: np.ndarray) -> np.ndarray:
    """a[0] + a[1] + ... over the first axis, added in that order.

    Each entry of the sum depends on its own column alone, bit for bit.
    numpy's own reduction adds several columns side by side in order but a
    lone column pairwise, so its bits would follow the number of columns.
    """
    out = a[0].copy()
    for row in a[1:]:
        out += row
    return out


def cholesky_psd(m) -> np.ndarray:
    """Lower-triangular factor of m + delta*I for the smallest workable delta.

    delta runs through {0, base, 10*base, ...} with at most
    RIDGE_ESCALATIONS escalations, where base is max(1e-8 * trace(m)/dim,
    1e-12).

    Args:
        m: symmetric matrix (checked to 1e-8 relative).

    Returns:
        lower, with lower @ lower.T == m + delta*I.

    Raises:
        ValueError: if m is not square/symmetric.
        np.linalg.LinAlgError: if no delta in the schedule makes m PSD.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > 1e-8 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    d = a.shape[0]
    base = max(1e-8 * float(np.trace(a)) / d, 1e-12)
    deltas = [0.0] + [base * 10.0**j for j in range(RIDGE_ESCALATIONS)]
    for delta in deltas:
        try:
            return np.linalg.cholesky(a + delta * np.eye(d))
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError(
        f"matrix is not PSD-repairable after {RIDGE_ESCALATIONS} ridge escalations"
    )


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a (n, d) and b (m, d).

    Expands |a|^2 + |b|^2 - 2 a.b as one matrix product and clips the
    rounding negatives at 0. The product's last bits follow the BLAS
    thread count when m is not a multiple of 8: OpenBLAS at 1 and 2
    threads gave other bits at every such width tried, and the same bits
    at every multiple of 8 tried (4,096 to 100,000).
    """
    sq = np.sum(a**2, axis=1)[:, None] + np.sum(b**2, axis=1)[None, :] - 2.0 * a @ b.T
    np.maximum(sq, 0.0, out=sq)
    return sq


@dataclass
class SeededRng:
    """Deterministic random source addressed by (seed, stream_id).

    The same pair always replays the same draw sequence. Parallel or
    per-class work takes `child(k)` streams instead of sharing one
    generator; module-level numpy randomness is never touched.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    # children of stream s live in the block s*_CHILD_BLOCK + 1 ... so
    # distinct parents can never hand out the same stream id
    _CHILD_BLOCK = 1_000_003

    def __post_init__(self) -> None:
        if self.seed < 0 or self.stream_id < 0:
            raise ValueError("seed and stream_id must be nonnegative")
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((self.seed, self.stream_id)))
        )

    def child(self, k: int) -> "SeededRng":
        """Independent stream number k derived from this one."""
        if k < 0:
            raise ValueError("child index must be nonnegative")
        return SeededRng(self.seed, self.stream_id * self._CHILD_BLOCK + k + 1)

    def normal(self, shape=None, mean: float = 0.0, std: float = 1.0):
        return self._gen.normal(mean, std, size=shape)

    def uniform(self, shape=None, low: float = 0.0, high: float = 1.0):
        return self._gen.uniform(low, high, size=shape)

    def integers(self, low: int, high: int, shape=None):
        return self._gen.integers(low, high, size=shape)

    def dirichlet(self, alpha) -> np.ndarray:
        return self._gen.dirichlet(np.asarray(alpha, dtype=float))

    def multinomial(self, n: int, pvals) -> np.ndarray:
        return self._gen.multinomial(n, np.asarray(pvals, dtype=float))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)


@dataclass
class GaussianParams:
    """Mean/covariance pair with its lower Cholesky factor cached."""

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        if self.mean.ndim != 1:
            raise ValueError("mean must be a vector")
        d = self.mean.shape[0]
        if self.cov.shape != (d, d):
            raise ValueError(f"covariance shape {self.cov.shape} does not match dim {d}")
        scale = max(1.0, float(np.max(np.abs(self.cov))))
        if float(np.max(np.abs(self.cov - self.cov.T))) > 1e-10 * scale:
            raise ValueError("covariance is not symmetric within tolerance")
        if self.chol is None:
            self.chol = cholesky_psd(self.cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def gaussian_sample(g: GaussianParams, n: int, rng: SeededRng) -> np.ndarray:
    """n draws from N(g.mean, g.cov) as an (n, dim) array."""
    z = rng.normal((n, g.dim))
    return g.mean + z @ g.chol.T


def random_rotation(dim: int, angle_deg: float, rng: SeededRng) -> np.ndarray:
    """Rotation by angle_deg in a uniformly random 2-D coordinate plane.

    Returns an orthogonal (dim, dim) matrix with determinant +1; it is the
    identity outside the chosen plane.
    """
    if dim < 2:
        raise ValueError("rotations need dim >= 2")
    i, j = np.sort(rng.choice(dim, 2, replace=False))
    theta = np.deg2rad(angle_deg)
    rot = np.eye(dim)
    rot[i, i] = rot[j, j] = np.cos(theta)
    rot[i, j] = -np.sin(theta)
    rot[j, i] = np.sin(theta)
    return rot
