"""Protected-subspace fidelity of an N-fermion process.

Given the overlap matrix ``A[j, i] = <psi_j(T) | phi_i>`` between the N
evolved single-particle states and the ``N_p`` lowest eigenstates of the
final trap, the process fidelity is

    F = sum over all N_p-subsets U of rows |det A[U, :]|^2 ,

the total probability that a measurement finds the protected subspace
intact.  One routine evaluates it at every temperature, and one
independent reference checks it:

* :func:`gram_fidelity_values` - ``det(A^dagger A)``, equal to the sum of
  squared minors by the Cauchy-Binet identity, polynomial cost, for many
  row selections of one master matrix at once (a thermal ensemble's
  configurations; at zero temperature the one ground configuration).
  :func:`fidelity_fast` applies it to all rows of one matrix;
* :func:`fidelity_oracle` - the literal subset/permutation sum, exponential
  in the particle number, kept as an independent check.

Appending a row to A (one more buffer particle) adds only nonnegative
terms to the subset sum, so F is monotone in the buffer count; each row or
column phase cancels inside |det|^2.
"""

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalConsistencyError, TooLargeError

# Combinatorial guard for the brute-force route.
ORACLE_MAX_N = 12
ORACLE_MAX_NP = 6

COLUMN_NORM_TOL = 1e-8
RANGE_TOL = 1e-10


class Method(enum.Enum):
    ORACLE = "oracle"
    GRAM_DETERMINANT = "gram"


class OverlapMatrix:
    """N x N_p matrix of overlaps between evolved states and targets.

    Rows correspond to the evolved states of the N occupied levels,
    columns to the N_p protected target states.  Since both families are
    orthonormal, every column norm and every singular value must stay at
    or below one.
    """

    def __init__(self, entries, validate=True):
        entries = np.atleast_2d(np.asarray(entries, dtype=np.complex128))
        self.entries = entries
        self.n_total, self.n_protected = entries.shape
        if self.n_protected > self.n_total:
            raise ConfigError(
                f"more protected targets ({self.n_protected}) than evolved "
                f"states ({self.n_total})"
            )
        if validate:
            self._validate()

    @property
    def n_buffer(self):
        return self.n_total - self.n_protected

    def _validate(self):
        if self.entries.size == 0:
            return
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

    def dropping_rows_after(self, n_rows):
        """Sub-matrix keeping the first ``n_rows`` rows (fewer buffers)."""
        if not self.n_protected <= n_rows <= self.n_total:
            raise ConfigError(f"cannot keep {n_rows} rows")
        return OverlapMatrix(self.entries[:n_rows], validate=False)


@dataclass(frozen=True)
class FidelityResult:
    value: float
    method: Method
    n_total: int
    n_protected: int
    n_buffer: int

    def __post_init__(self):
        if not -RANGE_TOL <= self.value <= 1.0 + RANGE_TOL:
            raise NumericalConsistencyError(
                f"fidelity {self.value} outside [0, 1]"
            )


def _result(value, method, a):
    value = min(max(float(value), 0.0), 1.0)
    return FidelityResult(value, method, a.n_total, a.n_protected, a.n_buffer)


def _permutations_with_signs(n):
    perms = []
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if perm[i] > perm[j]
        )
        perms.append((perm, -1.0 if inversions % 2 else 1.0))
    return perms


def oracle_fits(n_total, n_protected):
    """Whether N = ``n_total`` and N_p = ``n_protected`` pass the
    combinatorial guard of :func:`fidelity_oracle`."""
    return n_total <= ORACLE_MAX_N and n_protected <= ORACLE_MAX_NP


def fidelity_oracle(a):
    """Brute-force subset/permutation evaluation of the fidelity.

    Guarded to N <= 12 and N_p <= 6; larger problems must use
    :func:`fidelity_fast`, which this function exists to validate.
    """
    n, n_p = a.n_total, a.n_protected
    if not oracle_fits(n, n_p):
        raise TooLargeError(
            f"oracle guard exceeded (N={n} > {ORACLE_MAX_N} or "
            f"N_p={n_p} > {ORACLE_MAX_NP}); use fidelity_fast"
        )
    if n_p == 0:
        return _result(1.0, Method.ORACLE, a)
    entries = a.entries
    perms = _permutations_with_signs(n_p)
    total = 0.0
    for subset in itertools.combinations(range(n), n_p):
        minor = 0.0 + 0.0j
        for perm, sign in perms:
            term = sign
            for col, row in enumerate(perm):
                term *= entries[subset[row], col]
            minor += term
        total += abs(minor) ** 2
    return _result(total, Method.ORACLE, a)


def fidelity_fast(a):
    """Fidelity as det(A^dagger A), by :func:`gram_fidelity_values` on all
    rows of ``a``; raises :class:`NumericalConsistencyError` if the
    determinant leaves [0, 1] by more than 1e-10 before clamping."""
    values = gram_fidelity_values(a.entries, np.arange(a.n_total)[None, :])
    return _result(values[0], Method.GRAM_DETERMINANT, a)


def gram_fidelity_values(master, row_sets):
    """det(A^dagger A) for many row selections of one master overlap matrix.

    ``row_sets`` is an integer array of shape (n_sets, N) of 0-based row
    indices into ``master`` (shape (M, N_p)), of any integer dtype: a
    thermal ensemble's compact ``uint8`` indices are never widened as a
    block, only one slot's column at a time.  Vectorized over the sets;
    used by the thermal average where thousands of occupation
    configurations share the same evolved states.  Each Gram matrix is the
    sum over its rows of the per-level products conj(A[m, i]) A[m, j],
    added slot by slot, so no (n_sets, N, N_p) block is ever gathered.
    Raises :class:`NumericalConsistencyError` if a determinant leaves
    [0, 1] by more than 1e-10 before clamping.
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
    # One slot's indices are widened once and gathered from by every product.
    rows = row_sets[:, 0].astype(np.intp)
    grams = [per_level[rows] for per_level in products]
    for slot in range(1, row_sets.shape[1]):
        rows = row_sets[:, slot].astype(np.intp)
        for gram, per_level in zip(grams, products):
            gram += per_level[rows]
    if n_p == 1:
        dets = grams[0]
    elif n_p == 2:
        g00, g11, g01 = grams
        dets = g00 * g11 - (g01.real**2 + g01.imag**2)
    else:
        dets = np.linalg.det(grams[0]).real
    outside = (dets < -RANGE_TOL) | (dets > 1.0 + RANGE_TOL)
    if outside.any():
        worst = int(np.argmax(outside))
        raise NumericalConsistencyError(
            f"det(A^dagger A) = {dets[worst]} for row set {worst} outside "
            "[-1e-10, 1+1e-10]"
        )
    return np.clip(dets, 0.0, 1.0)


def verify_against_oracle(a, value, tol=1e-10):
    """Assert a fast fidelity ``value`` of ``a`` matches the brute-force sum
    (guard permitting); return the oracle's result."""
    oracle = fidelity_oracle(a)
    if abs(oracle.value - value) >= tol:
        raise NumericalConsistencyError(
            f"gram determinant {value} and brute-force sum "
            f"{oracle.value} disagree by {abs(oracle.value - value):.2e}"
        )
    return oracle
