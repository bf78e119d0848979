"""Seeded generator for planted quasi-clique instances and the seed
derivation of the recovery grids.

All randomness flows through numpy's Philox counter-based bit generator so
that a given seed reproduces the same instance on every platform. Symmetric
matrices are built by sampling the upper triangle (diagonal included, row-major
order) and mirroring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SupportSet

__all__ = [
    "InstanceParams",
    "PlantedInstance",
    "gen_planted",
    "derive_seed",
]

_SEED_MAX = 2**64


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def derive_seed(base_seed: int, *indices: int) -> int:
    """Mix a base seed with trial indices into a fresh 64-bit seed.

    splitmix64 applied to each component in turn; bijective per step, so
    nearby (base, i, j, t) tuples land on well-separated seeds.
    """
    state = base_seed % _SEED_MAX
    for part in indices:
        state = (state + 0x9E3779B97F4A7C15 + (part % _SEED_MAX)) % _SEED_MAX
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % _SEED_MAX
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % _SEED_MAX
        state = z ^ (z >> 31)
    return state


@dataclass(frozen=True)
class InstanceParams:
    """Parameters of a planted instance: graph size n, planted block size n_c,
    in-block edge density gamma, background noise density rho, PRNG seed."""

    n: int
    n_c: int
    gamma: float
    rho: float
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if not (0 < self.n_c <= self.n):
            raise ValueError(f"n_c must satisfy 0 < n_c <= n, got n_c={self.n_c}, n={self.n}")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")
        if not (0.0 <= self.rho < 1.0):
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if not (0 <= self.seed < _SEED_MAX):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True, eq=False)
class PlantedInstance:
    """A planted instance: observed adjacency A split as A = B0 + C0, where B0
    is the sampled in-block adjacency and C0 the background noise.

    B0 is A on the planted vertex-pair block {0..n_c-1}^2 and C0 is A off
    it; noise_support is the realized nonzeros of C0. block_pattern is the
    full 0/1 indicator of the block, the rank-1 matrix the convex program
    recovers in the success regime.

    Only A is stored, read-only; B0, C0 and noise_support are derived from A
    and params.n_c on each access, each read building fresh arrays. Nothing
    is cached, so a held instance stays 8 n^2 bytes however often it is read.
    """

    params: InstanceParams
    A: np.ndarray

    def __post_init__(self):
        n = self.params.n
        if not isinstance(self.A, np.ndarray) or self.A.dtype != np.float64 or self.A.shape != (n, n):
            raise ValueError(f"A must be a float (n, n) array for n={n}, got shape {np.shape(self.A)}")
        if not np.isfinite(self.A).all():
            raise ValueError("A contains non-finite entries")
        self.A.flags.writeable = False

    @classmethod
    def from_adjacency(cls, params: InstanceParams, A) -> "PlantedInstance":
        """The instance of an observed adjacency: nonzeros of A inside
        {0..n_c-1}^2 belong to B0, the rest to C0. A is copied, so that
        freezing it leaves the caller's array writable and a later write
        to the caller's array leaves the instance unchanged."""
        return cls(params, np.array(A, dtype=float, order="C"))

    def _block(self) -> np.ndarray:
        n, n_c = self.params.n, self.params.n_c
        block = np.zeros((n, n), dtype=bool)
        block[:n_c, :n_c] = True
        return block

    @property
    def B0(self) -> np.ndarray:
        return np.where(self._block(), self.A, 0.0)

    @property
    def C0(self) -> np.ndarray:
        # for a finite A, the bytes of A - B0, -0.0 included
        return np.where(self._block(), 0.0, self.A)

    @property
    def noise_support(self) -> SupportSet:
        return SupportSet(self.params.n, (self.A != 0) & ~self._block())

    @property
    def block_pattern(self) -> np.ndarray:
        return self._block().astype(float)


def gen_planted(params: InstanceParams) -> PlantedInstance:
    """Sample a planted quasi-clique instance.

    Each upper-triangle entry (diagonal included) inside the block
    {0..n_c-1}^2 is set to one with probability gamma, each entry outside
    with probability rho, then mirrored to make A symmetric.
    """
    n, n_c = params.n, params.n_c
    rng = _rng(params.seed)
    iu, ju = np.triu_indices(n)
    probs = np.where((iu < n_c) & (ju < n_c), params.gamma, params.rho)
    draws = rng.random(iu.size) < probs
    A = np.zeros((n, n))
    A[iu[draws], ju[draws]] = 1.0
    A = np.maximum(A, A.T)
    return PlantedInstance.from_adjacency(params, A)

