"""Monte Carlo of the one-dimensional hard-sphere blockade.

Photons enter a uniform 1-D cloud one at a time and become lossless
polaritons at i.i.d. uniform positions.  A newcomer is scattered if it sits
within one blockade radius of any *surviving* polariton; polaritons that
were themselves scattered do not block anyone.  Tallying survivor counts
over many trials per input Fock state yields the columns of a transfer
matrix for the medium.

Reproducibility contract
------------------------
Trials are partitioned into fixed chunks of ``CHUNK_TRIALS``; chunk c of
Fock state n draws from a generator seeded with SeedSequence(seed,
spawn_key=(n, c)).  Results depend only on (seed, trials) - never on
thread count or scheduling order - because per-chunk histograms are
integers and their sum is exact.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .fock import DEFAULT_N_MAX
from .transfer import TransferMatrix

#: Trials per RNG chunk; part of the reproducibility contract (changing it
#: changes the sampled numbers, though not their distribution).
CHUNK_TRIALS = 10_000


def _check_lengths(r_b: float, cloud_length: float) -> None:
    # Written so that NaN fails both checks.
    if not 0 < cloud_length < math.inf:
        raise ValidationError(f"cloud length must be finite and > 0, got {cloud_length}")
    if not 0 <= r_b < math.inf:
        raise ValidationError(f"blockade radius must be finite and >= 0, got {r_b}")


@dataclass(frozen=True)
class BlockadeConfig:
    """Geometry and sampling parameters of the blockade Monte Carlo.

    Lengths are in micrometers.  The cloud is uniform over
    ``cloud_length`` (its FWHM); ``blockade_radius`` is the hard-sphere
    exclusion distance.
    """

    cloud_length: float = 15.0
    blockade_radius: float = 10.5
    trials_per_fock: int = 100_000
    rng_seed: int = 12345
    n_max: int = DEFAULT_N_MAX

    def __post_init__(self):
        _check_lengths(self.blockade_radius, self.cloud_length)
        if self.trials_per_fock < 1:
            raise ValidationError("trials_per_fock must be >= 1")
        if self.n_max < 1:
            raise ValidationError("n_max must be >= 1")


@dataclass(frozen=True)
class SurvivalDistribution:
    """Estimated P(k polaritons survive | n photons entered), k = 0..n."""

    input_n: int
    probs: np.ndarray
    trials: int

    @property
    def standard_errors(self) -> np.ndarray:
        """Binomial standard error of each entry."""
        return np.sqrt(self.probs * (1.0 - self.probs) / self.trials)


def exact_pair_survival(r_b: float, cloud_length: float) -> float:
    """Probability that two uniform points in [0, L] are more than r_b
    apart: (1 - r_b/L)^2 for r_b <= L, else 0.  Analytic oracle for the
    n = 2 Monte Carlo column."""
    _check_lengths(r_b, cloud_length)
    if r_b >= cloud_length:
        return 0.0
    return (1.0 - r_b / cloud_length) ** 2


def _chunk_sizes(trials: int) -> list[int]:
    sizes = [CHUNK_TRIALS] * (trials // CHUNK_TRIALS)
    if trials % CHUNK_TRIALS:
        sizes.append(trials % CHUNK_TRIALS)
    return sizes


def _max_survivors(n: int, cloud_length: float, r_b: float) -> int:
    # Upper bound on mutually unblocked polaritons; keeps the survivor
    # buffer narrow so the per-arrival distance check stays O(trials).
    if r_b <= 0.0:
        return n
    return min(n, int(cloud_length // r_b) + 1)


def _simulate_chunk(n: int, size: int, seed: int, chunk_index: int,
                    cloud_length: float, r_b: float) -> np.ndarray:
    """Histogram of survivor counts over one chunk of trials."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(n, chunk_index))
    )
    if r_b <= 0.0:
        # Nothing ever blocks; every polariton survives.
        hist = np.zeros(n + 1, dtype=np.int64)
        hist[n] = size
        return hist
    slots = _max_survivors(n, cloud_length, r_b)
    surviving = np.full((size, slots), np.inf)
    count = np.zeros(size, dtype=np.int64)
    for arrival in range(n):
        x = rng.uniform(0.0, cloud_length, size)
        if arrival == 0:
            surviving[:, 0] = x
            count[:] = 1
            continue
        blocked = np.any(np.abs(surviving - x[:, None]) <= r_b, axis=1)
        idx = np.nonzero(~blocked)[0]
        surviving[idx, count[idx]] = x[idx]
        count[idx] += 1
    return np.bincount(count, minlength=n + 1)


def simulate_fock(cfg: BlockadeConfig, n: int, threads: int = 1) -> SurvivalDistribution:
    """Survivor-count distribution for an n-photon input.

    n = 0 and n = 1 are exact without sampling (nothing can be blocked);
    larger n runs ``cfg.trials_per_fock`` trials, deterministic for a
    fixed seed regardless of ``threads``.
    """
    if not 0 <= n <= cfg.n_max:
        raise ValidationError(f"input Fock number {n} outside 0..{cfg.n_max}")
    if n == 0:
        return SurvivalDistribution(0, np.array([1.0]), cfg.trials_per_fock)
    if n == 1:
        return SurvivalDistribution(1, np.array([0.0, 1.0]), cfg.trials_per_fock)
    (hist,) = _histograms(cfg, [n], threads)
    return SurvivalDistribution(n, hist / cfg.trials_per_fock, cfg.trials_per_fock)


def _histograms(cfg: BlockadeConfig, ns, threads: int) -> list[np.ndarray]:
    """Summed int64 survivor histogram of each input Fock state in ``ns``.

    The (fock state, chunk) pairs form one flat task list, so a few large-n
    columns cannot serialize the pool (used only when ``threads`` > 1).
    Integer sums are exact: the thread count cannot change the result."""
    sizes = _chunk_sizes(cfg.trials_per_fock)
    tasks = [
        (n, size, cfg.rng_seed, c, cfg.cloud_length, cfg.blockade_radius)
        for n in ns
        for c, size in enumerate(sizes)
    ]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            hists = list(pool.map(lambda t: _simulate_chunk(*t), tasks))
    else:
        hists = [_simulate_chunk(*t) for t in tasks]
    per_n = len(sizes)
    return [np.sum(hists[i : i + per_n], axis=0) for i in range(0, len(hists), per_n)]


def blockade_matrix(cfg: BlockadeConfig, threads: int = 1) -> TransferMatrix:
    """Transfer matrix of the partially blockaded medium.

    Column n is the survivor distribution for an n-photon input, padded to
    n_max + 1; columns 0 and 1 are exact.  With r_b = 0 this is the
    identity; with r_b >= cloud length it reproduces the perfect filter.
    """
    dim = cfg.n_max + 1
    m = np.zeros((dim, dim))
    m[0, 0] = 1.0
    m[1, 1] = 1.0
    ns = range(2, dim)
    for n, hist in zip(ns, _histograms(cfg, ns, threads)):
        m[: n + 1, n] = hist / cfg.trials_per_fock
    return TransferMatrix(m)


def slow_light_matrix(cfg: BlockadeConfig, medium_scale: float,
                      threads: int = 1) -> TransferMatrix:
    """Blockade matrix of the effective slow-light (no storage) medium.

    Propagation without storage sees a weaker nonlinearity; the effective
    model stretches the medium by ``medium_scale`` (>= 1) so that less of
    the pulse is inside one blockade radius at a time.
    """
    if medium_scale < 1.0:
        raise ValidationError(f"medium scale must be >= 1, got {medium_scale}")
    scaled = replace(cfg, cloud_length=cfg.cloud_length * medium_scale)
    return blockade_matrix(scaled, threads=threads)
