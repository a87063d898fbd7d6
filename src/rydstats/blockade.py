"""The one-dimensional hard-sphere blockade: exact matrix and Monte Carlo.

Photons enter a uniform 1-D cloud one at a time and become lossless
polaritons at i.i.d. uniform positions.  A newcomer is scattered if it sits
within one blockade radius of any *surviving* polariton; polaritons that
were themselves scattered do not block anyone.  This is random sequential
adsorption on an interval (Renyi 1958; Evans, Rev. Mod. Phys. 65, 1281).

:func:`exact_matrix` computes the survivor distributions by the gap
recursion, for clouds up to ``EXACT_MAX_RADII`` blockade radii long.
:func:`blockade_matrix` samples them.  An arrival never changes the
polaritons that survived before it, so the survivor count after the first
n arrivals of a trial is a sample of the n-photon column.  Each trial
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
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError, _check_count, _check_n_max
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
    """Geometry of the blockaded medium and sampling parameters of its
    Monte Carlo.

    Lengths are in micrometers.  The cloud is uniform over
    ``cloud_length`` (its FWHM); ``blockade_radius`` is the hard-sphere
    exclusion distance.  ``trials_per_fock`` and ``rng_seed`` are read only
    by :func:`blockade_matrix`; the pipeline's medium is exact for clouds up
    to ``EXACT_MAX_RADII`` blockade radii (the default and the slow-light
    geometries) and samples only longer ones.
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
        _check_n_max(self.n_max)


def exact_pair_survival(r_b: float, cloud_length: float) -> float:
    """Probability that two uniform points in [0, L] are more than r_b
    apart: (1 - r_b/L)^2 for r_b <= L, else 0.  Analytic oracle for the
    n = 2 Monte Carlo column."""
    _check_lengths(r_b, cloud_length)
    if r_b >= cloud_length:
        return 0.0
    return (1.0 - r_b / cloud_length) ** 2


#: Longest cloud, in blockade radii, that :func:`exact_matrix` computes.
#: Up to 2 radii the columns have a closed form; each radius beyond that
#: nests one more level of quadrature, and the work grows with the node
#: count to the power of the depth.  At 4 radii the recursion is two
#: levels deep.
EXACT_MAX_RADII = 4.0

#: Values per batch of quadrature nodes (series length times nodes); bounds
#: the recursion's memory at any truncation.
_BATCH_VALUES = 1 << 16


def _exact_covers(cloud_length: float, r_b: float) -> bool:
    return r_b == 0.0 or cloud_length <= EXACT_MAX_RADII * r_b


def _leaf_probs(g: np.ndarray, n: int) -> np.ndarray:
    """P(k | m) for k = 1, 2 (last axis) and m = 0..n on each segment of at
    most 2 blockade radii in ``g``; the k = 2 axis exists only if some
    segment is longer than 1 radius.

    Up to 1 radius the first arrival blocks the whole segment: the perfect
    filter.  Up to 2, P(1 | m) = 2 rho - 1 + 2 (1 - rho^m) / m for m >= 2,
    with rho = 1/g, and P(2 | m) = 1 - P(1 | m).  The first survivor, at x,
    leaves free only the stretch beyond one of its ends, of length f(x); a
    second survivor blocks what is left.  The chance (1 - f/g)^(m-1) that
    every later arrival misses that stretch, averaged over x, is the formula.
    """
    wide = g > 1.0
    out = np.zeros((g.size, n + 1, 2 if wide.any() else 1))
    out[:, 1:, 0] = 1.0
    if wide.any():
        rho = 1.0 / g[wide, None]
        m = np.arange(2, n + 1)
        p1 = 2.0 * rho - 1.0 + 2.0 * (1.0 - rho**m) / m
        out[wide, 2:, 0] = p1
        out[wide, 2:, 1] = 1.0 - p1
    return out


# The gap recursion.  Lengths are in blockade radii, and F_g(m)[k] is the
# chance of k survivors after m arrivals on a free segment of length g.
# The first arrival survives at x ~ U[0, g] and blocks (x - 1, x + 1).  The
# gaps a = max(0, x - 1) and b = max(0, g - x - 1) are free segments again,
# neither can block the other, and the other m - 1 arrivals split
# multinomially over a, b and the blocked length c = g - a - b.  In the
# scaled exponential generating series H_g(m) = (s g)^m / m! F_g(m) the
# multinomial becomes a convolution in m:
#     m H_g(m) = s [k -> k + 1] integral_0^g (H_a * H_b * E_c)(m - 1) dx,
# with E_c(r) = (s c)^r / r! and * convolving in m (and in k for H).  Every
# term is positive, so nothing cancels.  Between the breaks x in {1, 2, ..}
# and {g - 1, g - 2, ..} the integrand is a polynomial of degree m - 1 in
# x, which Gauss-Legendre integrates exactly with ceil(m / 2) nodes.  It is
# symmetric under x -> g - x, so only [0, g / 2] is integrated.
#
# A series array has shape (segments, n + 1, K): entry [., m, k - 1] is
# H(m)[k] for k = 1..K.  The k = 0 entry is 1 at m = 0 and 0 after, since
# some arrival always survives, so it is left implicit.


def _exp_series(z: np.ndarray, n: int) -> np.ndarray:
    """z^m / m! for m = 0..n along a new last axis, by a running product."""
    out = np.ones(z.shape + (n + 1,))
    out[..., 1:] = np.cumprod(z[..., None] / np.arange(1, n + 1), axis=-1)
    return out


def _convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_i x[:, m - i] y[:, i, :] for x of shape (N, n + 1) and y of shape
    (N, n + 1, W): the lower-triangular Toeplitz matrix of x, a strided view
    with [m, u] = x[m + u - n], times y reversed in m."""
    count, length = x.shape
    padded = np.concatenate([np.zeros((count, length - 1)), x], axis=1)
    return sliding_window_view(padded, length, axis=1) @ y[:, ::-1]


def _series(g: np.ndarray, n: int, s: float, nodes: int, leaf_max: float) -> np.ndarray:
    """Series of every segment in ``g``: up to ``leaf_max`` radii the
    closed form of :func:`_leaf_probs` times (s g)^m / m!, the recursion
    beyond."""
    leaf = g <= leaf_max
    shallow = _leaf_probs(g[leaf], n) * _exp_series(s * g[leaf], n)[:, :, None]
    if leaf.all():
        return shallow
    deep = _recurse(g[~leaf], n, s, nodes, leaf_max)
    out = np.zeros((g.size, n + 1, deep.shape[2]))
    out[~leaf] = deep
    out[leaf, :, : shallow.shape[2]] = shallow
    return out


def _recurse(gaps: np.ndarray, n: int, s: float, nodes: int, leaf_max: float) -> np.ndarray:
    """Series of segments longer than ``leaf_max`` radii, integrated over
    the first survivor's position with ``nodes`` nodes per piece."""
    from numpy.polynomial.legendre import leggauss  # only the recursion needs it

    t, w = leggauss(nodes)
    t = (t + 1.0) / 2.0
    x, weight, owner = [], [], []
    for i, length in enumerate(gaps):
        half = length / 2.0
        ends = range(1, math.ceil(length))
        breaks = [*ends, *(length - j for j in ends)]
        edges = np.unique([0.0, half, *(v for v in breaks if 0.0 < v < half)])
        width = np.diff(edges)[:, None]
        x.append((edges[:-1, None] + width * t).ravel())
        # (width / 2) w on [0, g / 2], doubled for the mirror half
        weight.append((width * w).ravel())
        owner.append(np.full(x[-1].size, i))
    x, weight, owner = np.concatenate(x), np.concatenate(weight), np.concatenate(owner)
    total = None
    batch = max(1, _BATCH_VALUES // (n + 1))
    for lo in range(0, x.size, batch):
        part = slice(lo, lo + batch)
        g = gaps[owner[part]]
        a = np.maximum(0.0, x[part] - 1.0)
        b = np.maximum(0.0, g - x[part] - 1.0)
        # x <= g / 2 gives a <= b, so left is never wider than right
        left, right = (_series(gap, n, s, nodes, leaf_max) for gap in (a, b))
        ka, kb = left.shape[2], right.shape[2]
        # survivors of both gaps together: none, either gap's alone, or both
        both = np.zeros((a.size, n + 1, ka + kb + 1))
        both[:, 0, 0] = 1.0
        both[:, :, 1 : ka + 1] += left
        both[:, :, 1 : kb + 1] += right
        for k in range(ka):
            both[:, :, k + 2 : k + 2 + kb] += _convolve(left[:, :, k], right)
        integrand = _convolve(_exp_series(s * (g - a - b), n), both)
        if total is None:
            total = np.zeros((gaps.size, n + 1, ka + kb + 1))
        elif total.shape[2] < ka + kb + 1:
            total = np.pad(total, ((0, 0), (0, 0), (0, ka + kb + 1 - total.shape[2])))
        # the nodes of one gap are contiguous: sum each run, then add it in
        starts = np.flatnonzero(np.diff(owner[part], prepend=-1))
        total[owner[part][starts], :, : ka + kb + 1] += np.add.reduceat(
            weight[part, None, None] * integrand, starts, axis=0)
    out = np.zeros_like(total)
    out[:, 1:] = (s / np.arange(1, n + 1))[:, None] * total[:, :-1]
    return out


def _quadrature_nodes(n_max: int) -> int:
    """Gauss-Legendre nodes per piece.  ceil(n_max / 2) are exact; the
    integrands are smooth enough that 2 sqrt(n_max) + 4 already meet the
    closed form to rounding (1e-14) at truncations up to 200."""
    return min(math.ceil(n_max / 2), math.ceil(2.0 * math.sqrt(n_max)) + 4)


def _survivors(radii: float, n_max: int, nodes: int | None = None,
               leaf_max: float = 2.0) -> np.ndarray:
    """The transfer matrix P(k | n) of a cloud of ``radii`` blockade radii,
    k, n = 0..n_max.  ``nodes`` (per piece) and ``leaf_max`` (the longest
    segment taken from a closed form) exist for the tests."""
    if radii <= leaf_max:
        table = _leaf_probs(np.array([radii]), n_max)[0]
    else:
        if nodes is None:
            nodes = _quadrature_nodes(n_max)
        # The scale keeps (s g)^m / m! within double range up to n_max ~
        # 1300.  A power of two scales every length exactly, so the lengths
        # of the three parts still add up to the whole: an error d in that
        # sum would grow to m d in column m.
        s = 2.0 ** round(math.log2(n_max / (math.e * radii)))
        series = _recurse(np.array([radii]), n_max, s, nodes, leaf_max)[0]
        n = np.arange(n_max + 1)
        unscale = np.cumprod(np.concatenate([[1.0], n[1:] / (s * radii)]))  # m! / (s L)^m
        table = series * unscale[:, None]
    rows = min(table.shape[1], n_max)  # the rest are zero: k <= n
    probs = np.zeros((n_max + 1, n_max + 1))
    probs[0, 0] = 1.0
    probs[1 : rows + 1] = table[:, :rows].T
    return probs


def exact_matrix(cloud_length: float, r_b: float, n_max: int) -> TransferMatrix:
    """Exact transfer matrix of the partially blockaded medium, for clouds
    up to ``EXACT_MAX_RADII`` blockade radii long.

    r_b = 0 gives the identity.  Up to 2 r_b the columns are the closed
    form of :func:`_leaf_probs`, the perfect filter up to r_b; longer clouds
    go through the gap recursion (see the comment above ``_exp_series``).
    Nothing is sampled.
    """
    _check_lengths(r_b, cloud_length)
    _check_n_max(n_max)
    if r_b == 0.0:
        return TransferMatrix(np.eye(n_max + 1))
    if not _exact_covers(cloud_length, r_b):
        raise ValidationError(
            f"the exact matrix covers clouds up to {EXACT_MAX_RADII:g} blockade radii, "
            f"got {cloud_length / r_b:g}")
    return TransferMatrix(_survivors(cloud_length / r_b, n_max))


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
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,)))
    width = _max_survivors(n_max, cloud_length, r_b)
    # Survivor slot j of every trial is row j, so each check runs along the
    # contiguous trial axis; a trial's unused slots hold inf, which blocks
    # nothing.  One distance buffer serves all arrivals: a fresh temporary
    # per arrival is big enough to go back to the OS each time and fault
    # its pages in again.
    surviving = np.full((width, size), np.inf)
    gap = np.empty_like(surviving)
    count = np.zeros(size, dtype=np.int64)
    top = 0  # the largest count so far: rows from here on are all inf
    hist[0, 0] = size
    for n in range(1, n_max + 1):
        x = rng.uniform(0.0, cloud_length, size)
        near = gap[:top]
        np.abs(np.subtract(surviving[:top], x, out=near), out=near)
        blocked = np.any(near <= r_b, axis=0)
        idx = np.flatnonzero(~blocked)
        before = count[idx]
        surviving[before, idx] = x[idx]
        count[idx] = before + 1
        # each survivor moves its trial from row `before` to `before + 1`
        gained = np.bincount(before, minlength=width)
        hist[:, n] = hist[:, n - 1]
        hist[:width, n] -= gained
        hist[1 : width + 1, n] += gained
        if top < width and gained[top]:  # some trial now holds top + 1
            top += 1
    return hist


def _histograms(cfg: BlockadeConfig, threads: int) -> np.ndarray:
    """Survivor histogram of ``cfg.trials_per_fock`` trials of
    ``cfg.n_max`` arrivals, summed over the chunks (on a pool when two
    chunks can run at once) into one running total.  Integer sums are
    exact: the thread count cannot change the result."""
    tasks = [
        (cfg.n_max, size, cfg.rng_seed, c, cfg.cloud_length, cfg.blockade_radius)
        for c, size in enumerate(_chunk_sizes(cfg.trials_per_fock))
    ]
    total = np.zeros((cfg.n_max + 1, cfg.n_max + 1), dtype=np.int64)
    if min(threads, len(tasks)) > 1:
        # imported here, where it runs: with the logging that it loads it
        # would add milliseconds to the start-up of every command
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            for hist in pool.map(lambda t: _simulate_chunk(*t), tasks):
                total += hist
    else:
        for t in tasks:
            total += _simulate_chunk(*t)
    return total


def blockade_matrix(cfg: BlockadeConfig, threads: int = 1) -> TransferMatrix:
    """Transfer matrix of the partially blockaded medium.

    Column n is the survivor distribution after n arrivals, all columns
    read from the same ``cfg.trials_per_fock`` trials; columns 0 and 1 come
    out exact.  With r_b = 0 this is the identity; with r_b >= cloud length
    it reproduces the perfect filter.
    """
    _check_count("threads", threads, 1)
    if cfg.blockade_radius == 0.0:  # nothing ever blocks
        return TransferMatrix(np.eye(cfg.n_max + 1))
    return TransferMatrix(_histograms(cfg, threads) / cfg.trials_per_fock)


# Not package API: kept only for the benchmark's probes, which call it by name.
def simulate_fock(cfg: BlockadeConfig, n: int) -> np.ndarray:
    """Survivor-count distribution P(k | n), k = 0..n, for an n-photon input.

    Column n of :func:`blockade_matrix` run to n arrivals; column n does
    not depend on n_max, so this equals the column of ``cfg``'s matrix bit
    for bit.  Deterministic for a fixed seed.
    """
    _check_count("n", n, 0)
    if n > cfg.n_max:
        raise ValidationError(f"input Fock number {n} outside 0..{cfg.n_max}")
    return blockade_matrix(replace(cfg, n_max=max(n, 1))).matrix[: n + 1, n]


def _stretched(cfg: BlockadeConfig, medium_scale: float) -> BlockadeConfig:
    """``cfg`` with its cloud stretched by ``medium_scale`` (finite, >= 1):
    the effective slow-light medium."""
    if not 1.0 <= medium_scale < math.inf:
        raise ValidationError(f"medium scale must be finite and >= 1, got {medium_scale}")
    return replace(cfg, cloud_length=cfg.cloud_length * medium_scale)


# Not package API: kept only for the benchmark's probes, which call it by name.
def slow_light_matrix(cfg: BlockadeConfig, medium_scale: float,
                      threads: int = 1) -> TransferMatrix:
    """Blockade matrix of the effective slow-light (no storage) medium.

    Propagation without storage sees a weaker nonlinearity; the effective
    model stretches the medium by ``medium_scale`` (>= 1) so that less of
    the pulse is inside one blockade radius at a time.
    """
    return blockade_matrix(_stretched(cfg, medium_scale), threads=threads)
