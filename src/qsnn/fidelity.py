"""Subspace-restricted average gate fidelity and its Monte-Carlo oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DenseOperator, _is_index, check_type
from .errors import (
    DimensionMismatchError,
    InvalidParamsError,
    NonOrthonormalSubspaceError,
)

ORTHONORMALITY_TOL = 1e-10


@dataclass(frozen=True)
class FidelityReport:
    """Average fidelity, leakage, and per-state overlaps for one realization."""

    f_avg: float
    leakage: float
    per_state: tuple[float, ...]
    subspace_dim: int

    def __post_init__(self):
        eps = 1e-9
        for name, v in (("f_avg", self.f_avg), ("leakage", self.leakage),
                        *(("per-state overlap", p) for p in self.per_state)):
            if not -eps <= v <= 1 + eps:
                raise InvalidParamsError(f"{name} {v} outside [0, 1]")


def _subspace_matrix(subspace: Sequence, dim: int) -> np.ndarray:
    basis = np.array([np.asarray(v, dtype=complex).reshape(-1) for v in subspace]).T
    if basis.shape[0] != dim:
        raise DimensionMismatchError(
            f"subspace vectors have length {basis.shape[0]}, operators dim {dim}"
        )
    gram = basis.conj().T @ basis
    if np.max(np.abs(gram - np.eye(basis.shape[1]))) > ORTHONORMALITY_TOL:
        raise NonOrthonormalSubspaceError(
            "subspace basis is not orthonormal within 1e-10"
        )
    return basis


def _restricted(u_actual, u_ideal, subspace) -> tuple[np.ndarray, np.ndarray]:
    """The checked subspace basis B and M = B†·u_ideal†·u_actual·B."""
    check_type(DenseOperator, u_actual, u_ideal)
    if u_actual.dim != u_ideal.dim:
        raise DimensionMismatchError("operators must share dimension")
    basis = _subspace_matrix(subspace, u_actual.dim)
    return basis, basis.conj().T @ (u_ideal.matrix.conj().T @ u_actual.matrix) @ basis


def _f_avg(m: np.ndarray) -> float:
    """(Tr MM† + |Tr M|²)/(d(d+1)) of a restricted d×d gate M, unclipped (Pedersen et al. 2007)."""
    return float(np.vdot(m, m).real + abs(m.trace()) ** 2) / (len(m) * (len(m) + 1))


def average_fidelity(
    u_actual: DenseOperator,
    u_ideal: DenseOperator,
    subspace: Sequence,
) -> FidelityReport:
    """Average gate fidelity over Haar-random states of the subspace.

    With M = P·u_ideal†·u_actual·P restricted to the d-dim subspace,
    f_avg = _f_avg(M), clipped to [0, 1]; leakage = 1 − Tr(M̃M̃†)/d with
    M̃ = P·u_actual·P.  Leakage out of the subspace is fully accounted for
    by the fidelity metric itself.
    """
    basis, m = _restricted(u_actual, u_ideal, subspace)
    d = basis.shape[1]
    m_tilde = basis.conj().T @ u_actual.matrix @ basis
    leakage = 1.0 - float(np.trace(m_tilde @ m_tilde.conj().T).real) / d
    per_state = tuple(abs(m[i, i]) for i in range(d))
    return FidelityReport(
        f_avg=min(max(_f_avg(m), 0.0), 1.0),
        leakage=min(max(leakage, 0.0), 1.0),
        per_state=per_state,
        subspace_dim=d,
    )


def mc_average_fidelity(
    u_actual: DenseOperator,
    u_ideal: DenseOperator,
    subspace: Sequence,
    n_samples: int = 2000,
    seed: int | None = None,
) -> tuple[float, float]:
    """Monte-Carlo estimate (mean, standard error) of average_fidelity.

    Haar sampling on the subspace: normalized standard complex Gaussian
    coefficients over the basis states.
    """
    if not (_is_index(n_samples) and n_samples >= 2):
        raise InvalidParamsError(f"n_samples must be an integer of at least 2, got {n_samples!r}")
    basis, m = _restricted(u_actual, u_ideal, subspace)
    d = basis.shape[1]
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(n_samples, d)) + 1j * rng.normal(size=(n_samples, d))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    overlaps = np.einsum("si,ij,sj->s", coeffs.conj(), m, coeffs)
    values = np.abs(overlaps) ** 2
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(n_samples))
    return mean, stderr
