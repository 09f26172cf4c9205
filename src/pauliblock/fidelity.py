"""Protected-subspace fidelity of an N-fermion process.

Given the overlap matrix ``A[j, i] = <psi_j(T) | phi_i>`` between the N
evolved single-particle states and the ``N_p`` lowest eigenstates of the
final trap, the process fidelity is

    F = sum over all N_p-subsets U of rows |det A[U, :]|^2 ,

the total probability that a measurement finds the protected subspace
intact.  :func:`gram_fidelity_values` evaluates ``det(A^dagger A)``,
equal to the sum of squared minors by the Cauchy-Binet identity, at
polynomial cost, for row selections of one master matrix: the Gram
matrix of a set of rows is the sum of its rows' per-level products
(:func:`level_products`), which the projected thermal average
(:func:`~pauliblock.thermal.projected_fidelity`) weighs by level.
:func:`fidelity_fast` applies it to all rows of one matrix.  The literal
subset/permutation sum, exponential in the particle number, is kept with
the tests as their reference.

Appending a row to A (one more buffer particle) adds only nonnegative
terms to the subset sum, so F is monotone in the buffer count; each row or
column phase cancels inside |det|^2.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalConsistencyError

COLUMN_NORM_TOL = 1e-8
RANGE_TOL = 1e-10


class OverlapMatrix:
    """N x N_p matrix of overlaps between evolved states and targets.

    Rows correspond to the evolved states of the N occupied levels,
    columns to the N_p protected target states.  Since both families are
    orthonormal, every column norm and every singular value must stay at
    or below one.
    """

    def __init__(self, entries):
        entries = np.atleast_2d(np.asarray(entries, dtype=np.complex128))
        self.entries = entries
        self.n_total, self.n_protected = entries.shape
        if self.n_protected > self.n_total:
            raise ConfigError(
                f"more protected targets ({self.n_protected}) than evolved "
                f"states ({self.n_total})"
            )
        self._validate()

    @property
    def n_buffer(self):
        return self.n_total - self.n_protected

    def _validate(self):
        if self.entries.size == 0:
            return
        # A NaN would pass the norm check and stall the SVD.
        finite = np.isfinite(self.entries)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise NumericalConsistencyError(
                f"overlap A[{row}, {col}] = {self.entries[row, col]} is not finite"
            )
        col_norms = np.linalg.norm(self.entries, axis=0)
        if (col_norms > 1.0 + COLUMN_NORM_TOL).any():
            worst = int(np.argmax(col_norms))
            raise NumericalConsistencyError(
                f"column {worst} norm {col_norms[worst]:.12f} exceeds 1"
            )
        svals = np.linalg.svd(self.entries, compute_uv=False)
        if (svals > 1.0 + COLUMN_NORM_TOL).any():
            raise NumericalConsistencyError(
                f"largest singular value {svals.max():.12f} exceeds 1"
            )


@dataclass(frozen=True)
class FidelityResult:
    value: float
    n_total: int
    n_protected: int
    n_buffer: int

    def __post_init__(self):
        check_range(self.value, "fidelity")


def check_range(values, what):
    """``values``, a number or an array, clamped to [0, 1].  Before the
    clamp, the first value that is NaN or leaves [0, 1] by more than
    ``RANGE_TOL`` raises :class:`NumericalConsistencyError`, named ``what``
    (and its index, in an array)."""
    values = np.asarray(values, dtype=float)
    outside = ~((-RANGE_TOL <= values) & (values <= 1.0 + RANGE_TOL))
    if outside.any():
        worst = int(np.argmax(outside))
        at = f" {worst}" if values.ndim else ""
        raise NumericalConsistencyError(
            f"{what}{at} = {values.flat[worst]} outside [-{RANGE_TOL}, 1 + {RANGE_TOL}]"
        )
    return np.clip(values, 0.0, 1.0)


def fidelity_fast(a):
    """Fidelity as det(A^dagger A), by :func:`gram_fidelity_values` on all
    rows of ``a``, range-checked there (:func:`check_range`)."""
    values = gram_fidelity_values(a.entries, np.arange(a.n_total)[None, :])
    return FidelityResult(float(values[0]), a.n_total, a.n_protected, a.n_buffer)


def level_products(master):
    """The per-level products conj(A[m, i]) A[m, j] of the master overlap
    matrix ``master`` (shape (M, N_p)), of shape (M, N_p, N_p): the Gram
    matrix of a weighted set of levels is their weighted sum."""
    return master.conj()[:, :, None] * master[:, None, :]


def gram_fidelity_values(master, row_sets):
    """det(A^dagger A) for row selections of one master overlap matrix.

    ``row_sets`` is an integer array of shape (n_sets, N) of 0-based row
    indices into ``master`` (shape (M, N_p)), of any integer dtype.  Each
    Gram matrix is the sum over its rows of the :func:`level_products`,
    added slot by slot in row order, so no (n_sets, N, N_p) block is ever
    gathered, and one determinant is taken of each, for every N_p (1 at
    N_p = 0).  The determinants are range-checked and clamped
    (:func:`check_range`): the first set whose determinant is NaN or
    leaves [0, 1] by more than ``RANGE_TOL`` raises, named by its index in
    ``row_sets``.
    """
    row_sets = np.asarray(row_sets)
    products = level_products(master)
    grams = np.zeros((len(row_sets), *products.shape[1:]), products.dtype)
    for rows in row_sets.T:
        grams += products[rows]
    # A NaN raises in check_range, not as a warning of the LU.
    with np.errstate(invalid="ignore"):
        dets = np.linalg.det(grams).real
    return check_range(dets, "det(A^dagger A) of row set")
