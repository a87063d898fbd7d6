"""Monte Carlo of the one-dimensional hard-sphere blockade.

Photons enter a uniform 1-D cloud one at a time and become lossless
polaritons at i.i.d. uniform positions.  A newcomer is scattered if it sits
within one blockade radius of any *surviving* polariton; polaritons that
were themselves scattered do not block anyone.

An arrival never changes the polaritons that survived before it, so the
survivor count after the first n arrivals of a trial is a sample of the
n-photon column (random sequential adsorption on an interval).  Each trial
draws n_max arrivals once and its counts fill every column of the medium's
transfer matrix: columns share trials, each with the distribution of an
independent n-photon run.

Reproducibility contract
------------------------
Trials are partitioned into fixed chunks of ``CHUNK_TRIALS``; chunk c draws
its arrivals, one position per trial and arrival in arrival order, from a
generator seeded with SeedSequence(seed, spawn_key=(c,)).  Results depend
only on (seed, trials) - never on thread count or scheduling order -
because per-chunk histograms are integers and their sum is exact.  Column
n does not depend on n_max either: it sees the same draws however many
arrivals follow.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError, _check_count
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
        _check_count("trials_per_fock", self.trials_per_fock, 1)
        _check_count("rng_seed", self.rng_seed, 0)
        _check_count("n_max", self.n_max, 1)


@dataclass(frozen=True)
class SurvivalDistribution:
    """Estimated P(k polaritons survive | n photons entered), k = 0..n."""

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
    # Upper bound on mutually unblocked polaritons (r_b > 0); keeps the
    # survivor buffer narrow so the per-arrival distance check stays O(trials).
    # Capped before the conversion: a tiny r_b makes the quotient inf.
    return int(min(n, cloud_length // r_b + 1))


def _simulate_chunk(n_max: int, size: int, seed: int, chunk: int,
                    cloud_length: float, r_b: float) -> np.ndarray:
    """Survivor histogram of one chunk of trials, n_max arrivals each:
    entry (k, n) counts the trials with k survivors after n arrivals."""
    hist = np.zeros((n_max + 1, n_max + 1), dtype=np.int64)
    if r_b <= 0.0:
        # Nothing ever blocks; every polariton survives.
        np.fill_diagonal(hist, size)
        return hist
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,)))
    surviving = np.full((size, _max_survivors(n_max, cloud_length, r_b)), np.inf)
    # One distance buffer for all arrivals: a fresh (size, width) temporary
    # per arrival is big enough to go back to the OS each time and fault
    # its pages in again.
    gap = np.empty_like(surviving)
    count = np.zeros(size, dtype=np.int64)
    hist[0, 0] = size
    for n in range(1, n_max + 1):
        x = rng.uniform(0.0, cloud_length, size)
        np.abs(np.subtract(surviving, x[:, None], out=gap), out=gap)
        blocked = np.any(gap <= r_b, axis=1)
        idx = np.nonzero(~blocked)[0]
        surviving[idx, count[idx]] = x[idx]
        count[idx] += 1
        hist[:, n] = np.bincount(count, minlength=n_max + 1)
    return hist


def simulate_fock(cfg: BlockadeConfig, n: int) -> SurvivalDistribution:
    """Survivor-count distribution for an n-photon input.

    The same trials as :func:`blockade_matrix`, stopped after n arrivals,
    so this is column n of that matrix bit for bit; deterministic for a
    fixed seed.
    """
    _check_count("n", n, 0)
    if n > cfg.n_max:
        raise ValidationError(f"input Fock number {n} outside 0..{cfg.n_max}")
    hist = _histograms(cfg, n, threads=1)[: n + 1, n]
    return SurvivalDistribution(hist / cfg.trials_per_fock, cfg.trials_per_fock)


def _histograms(cfg: BlockadeConfig, n_max: int, threads: int) -> np.ndarray:
    """Survivor histogram of ``cfg.trials_per_fock`` trials of ``n_max``
    arrivals, summed over the chunks (on a pool when ``threads`` > 1).
    Integer sums are exact: the thread count cannot change the result."""
    _check_count("threads", threads, 1)
    tasks = [
        (n_max, size, cfg.rng_seed, c, cfg.cloud_length, cfg.blockade_radius)
        for c, size in enumerate(_chunk_sizes(cfg.trials_per_fock))
    ]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            hists = list(pool.map(lambda t: _simulate_chunk(*t), tasks))
    else:
        hists = [_simulate_chunk(*t) for t in tasks]
    return np.sum(hists, axis=0)


def blockade_matrix(cfg: BlockadeConfig, threads: int = 1) -> TransferMatrix:
    """Transfer matrix of the partially blockaded medium.

    Column n is the survivor distribution after n arrivals, all columns
    read from the same ``cfg.trials_per_fock`` trials; columns 0 and 1 come
    out exact.  With r_b = 0 this is the identity; with r_b >= cloud length
    it reproduces the perfect filter.
    """
    return TransferMatrix(_histograms(cfg, cfg.n_max, threads) / cfg.trials_per_fock)


def slow_light_matrix(cfg: BlockadeConfig, medium_scale: float,
                      threads: int = 1) -> TransferMatrix:
    """Blockade matrix of the effective slow-light (no storage) medium.

    Propagation without storage sees a weaker nonlinearity; the effective
    model stretches the medium by ``medium_scale`` (>= 1) so that less of
    the pulse is inside one blockade radius at a time.
    """
    if not 1.0 <= medium_scale < math.inf:
        raise ValidationError(f"medium scale must be finite and >= 1, got {medium_scale}")
    scaled = replace(cfg, cloud_length=cfg.cloud_length * medium_scale)
    return blockade_matrix(scaled, threads=threads)
