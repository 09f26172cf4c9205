"""Protected-subspace fidelity of an N-fermion process.

Given the overlap matrix ``A[j, i] = <psi_j(T) | phi_i>`` between the N
evolved single-particle states and the ``N_p`` lowest eigenstates of the
final trap, the process fidelity is

    F = sum over all N_p-subsets U of rows |det A[U, :]|^2 ,

the total probability that a measurement finds the protected subspace
intact.  :func:`gram_fidelity_values` evaluates ``det(A^dagger A)``,
equal to the sum of squared minors by the Cauchy-Binet identity, at
polynomial cost, for many row selections of one master matrix at once:
the ground configuration of every curve, and the enumerated
configurations of a thermal ensemble that the tests hold the projected
thermal average (:func:`~pauliblock.thermal.projected_fidelity`) against.
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
# Row sets :func:`gram_fidelity_values` evaluates at once: large enough
# that numpy's per-call overhead is small, small enough that a block's
# temporaries (under 1 MB for N_p = 2) stay below a large thermal
# ensemble's own arrays.
_GRAM_BLOCK = 8192


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


def gram_fidelity_values(master, row_sets):
    """det(A^dagger A) for many row selections of one master overlap matrix.

    ``row_sets`` is an integer array of shape (n_sets, N) of 0-based row
    indices into ``master`` (shape (M, N_p)), of any integer dtype: a
    thermal ensemble's compact ``uint8`` indices are never widened as a
    block, only one slot's column of one block at a time.  Vectorized over
    the sets, ``_GRAM_BLOCK`` of them at a time, so the temporaries stay
    the same size however many sets there are, for the thousands of
    occupation configurations of an enumerated ensemble.  Each Gram matrix
    is the sum over its rows of the per-level products conj(A[m, i])
    A[m, j], added slot by slot, so no (n_sets, N, N_p) block is ever
    gathered, and each set's arithmetic does not depend on the blocking.
    The determinants are range-checked and clamped (:func:`check_range`):
    the first set whose determinant is NaN or leaves [0, 1] by more than
    ``RANGE_TOL`` raises, named by its index in ``row_sets``.
    """
    row_sets = np.asarray(row_sets)
    n_p = master.shape[1]
    if n_p == 0:
        return np.ones(len(row_sets))
    if n_p <= 2:
        # The real diagonal and, for N_p = 2, the one off-diagonal entry.
        products = [master[:, i].real ** 2 + master[:, i].imag ** 2 for i in range(n_p)]
        if n_p == 2:
            products.append(master[:, 0].conj() * master[:, 1])
    else:
        products = [master.conj()[:, :, None] * master[:, None, :]]
    dets = np.empty(len(row_sets))
    for start in range(0, len(row_sets), _GRAM_BLOCK):
        block = row_sets[start : start + _GRAM_BLOCK]
        # One slot's indices are widened once and gathered from by every
        # product.
        rows = block[:, 0].astype(np.intp)
        grams = [per_level[rows] for per_level in products]
        for slot in range(1, block.shape[1]):
            rows = block[:, slot].astype(np.intp)
            for gram, per_level in zip(grams, products):
                gram += per_level[rows]
        if n_p == 1:
            values = grams[0]
        elif n_p == 2:
            g00, g11, g01 = grams
            values = g00 * g11 - (g01.real**2 + g01.imag**2)
        else:
            values = np.linalg.det(grams[0]).real
        dets[start : start + len(block)] = values
    return check_range(dets, "det(A^dagger A) of row set")

