"""Column-stochastic transfer matrices acting on Fock distributions.

Any element that maps an input photon-number distribution to an output one
(beam splitter, transmission loss, filter, blockaded medium) is represented
by a matrix M with M[k, l] = P(l input photons -> k output photons).
Columns sum to one so that probability is conserved; lossy elements are
upper triangular.  Every map here runs forward: a state is moved back
towards the source by rescaling its source parameter (see ``pipeline``),
never by inverting a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._table import write_table
from .errors import ValidationError, _check_n_max
from .fock import DEFAULT_N_MAX, FockDistribution

#: Tolerance on column sums of a transfer matrix.
COLUMN_SUM_TOLERANCE = 1e-12


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """A (n_max+1) x (n_max+1) map between photon-number distributions.

    Entries are >= 0 and column sums equal 1 within
    ``COLUMN_SUM_TOLERANCE``; construction checks both.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValidationError("transfer matrix must be square and non-empty")
        if not np.all(np.isfinite(m)):
            raise ValidationError("transfer matrix contains non-finite entries")
        if m.min() < -COLUMN_SUM_TOLERANCE:
            raise ValidationError(
                f"transfer matrix has negative entry {m.min():.3e}"
            )
        m = np.clip(m, 0.0, None)
        colsums = m.sum(axis=0)
        bad = np.abs(colsums - 1.0) > COLUMN_SUM_TOLERANCE
        if np.any(bad):
            worst = colsums[bad][np.argmax(np.abs(colsums[bad] - 1.0))]
            raise ValidationError(
                f"column sums must be 1 within {COLUMN_SUM_TOLERANCE:.0e}; "
                f"worst offender sums to {worst!r}"
            )
        m.flags.writeable = False  # m is clip's new array, not the caller's
        object.__setattr__(self, "matrix", m)

    @property
    def n_max(self) -> int:
        return self.matrix.shape[0] - 1

    def apply(self, d: FockDistribution) -> FockDistribution:
        """Propagate a distribution through this element: p'_k = M_kl p_l."""
        if d.n_max != self.n_max:
            raise ValidationError(
                f"dimension mismatch: matrix n_max={self.n_max}, "
                f"distribution n_max={d.n_max}"
            )
        return FockDistribution(self.matrix @ d.probs)

    def compose(self, inner: "TransferMatrix") -> "TransferMatrix":
        """The element equivalent to ``inner`` followed by this one (self @ inner)."""
        if inner.n_max != self.n_max:
            raise ValidationError(
                f"dimension mismatch: {self.n_max} vs {inner.n_max}"
            )
        return TransferMatrix(self.matrix @ inner.matrix)

    def to_csv(self, path) -> None:
        r"""Dump as CSV, row-major, header ``k\l,0,1,...`` (for debugging
        and golden tests)."""
        header = ["k\\l", *(str(l) for l in range(self.matrix.shape[1]))]
        write_table(path, header, ((k, *row) for k, row in enumerate(self.matrix)))


def loss_matrix(t: float, n_max: int = DEFAULT_N_MAX) -> TransferMatrix:
    """Linear loss (beam splitter) with transmission ``t``.

    Each of l input photons survives independently with probability t, so
    column l is the binomial pmf B(l, t): M_kl = C(l, k) t^k (1-t)^(l-k).
    Columns follow Pascal's rule, the last photon lost or kept, so t = 0
    and t = 1 come out exact.
    """
    if not 0.0 <= t <= 1.0:
        raise ValidationError(f"transmission must lie in [0, 1], got {t}")
    _check_n_max(n_max, 0)
    m = np.zeros((n_max + 1, n_max + 1))
    m[0, 0] = 1.0
    for l in range(1, n_max + 1):
        m[:, l] = (1.0 - t) * m[:, l - 1]
        m[1:, l] += t * m[:-1, l - 1]
    return TransferMatrix(m)


def perfect_filter_matrix(n_max: int = DEFAULT_N_MAX) -> TransferMatrix:
    """Ideal single-photon filter: vacuum stays vacuum, every l >= 1
    input component is mapped onto the one-photon component."""
    _check_n_max(n_max)
    m = np.zeros((n_max + 1, n_max + 1))
    m[0, 0] = 1.0
    m[1, 1:] = 1.0
    return TransferMatrix(m)
