"""Dense state-vector algebra and time-dependent propagation.

Conventions, fixed once for the whole package:

* qubit 0 is the most significant index bit,
* ``|0> = |down>`` is the ground state, so ``<down|sigma_z|down> = -1``
  (the Pauli-Z matrix is ``diag(-1, +1)`` in index order),
* hbar = 1; all energies are expressed in units of the relevant drive
  amplitude.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    DuplicateTargetError,
    InvalidParamsError,
    NormDriftError,
    OutOfBoundsError,
)

NORM_TOL = 1e-9
UNITARITY_TOL = 1e-8
DEGENERATE_PROB = 1e-14
# The largest register one array of complex amplitudes can hold: 2^n · 16
# bytes must stay below numpy's largest array, 2^63 bytes.
MAX_REGISTER = 58
# Bytes of physical memory: from_bits refuses a register that would not fit.
HOST_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
PAULI = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)

# Each drive form as pieces (scale, wave, axis): a drive a, w adds
# scale * a * wave(w t) * axis on its target, or scale * a * axis with no wave.
_AFFINE = {
    "cosine_x": ((1.0, np.cos, "X"),),
    "rotating_plus": ((0.5, np.cos, "X"), (0.5, np.sin, "Y")),
    "rotating_minus": ((0.5, np.cos, "X"), (-0.5, np.sin, "Y")),
    "static_z": ((1.0, None, "Z"),),
}
DRIVE_FORMS = tuple(_AFFINE)

BELL_LABELS = ("Phi+", "Phi-", "Psi+", "Psi-")

_SQ2 = 1.0 / math.sqrt(2.0)
# Index order on two qubits: 00, 01, 10, 11 with 0 = down.
BELL_VECTORS = {
    "Phi+": np.array([_SQ2, 0.0, 0.0, _SQ2], dtype=complex),
    "Phi-": np.array([-_SQ2, 0.0, 0.0, _SQ2], dtype=complex),
    "Psi+": np.array([0.0, _SQ2, _SQ2, 0.0], dtype=complex),
    "Psi-": np.array([0.0, _SQ2, -_SQ2, 0.0], dtype=complex),
}


def _is_index(x) -> bool:  # an int or numpy integer, not a bool
    return type(x) is int or isinstance(x, np.integer)


def _shown(value) -> str:
    """repr(value) for an error message, or its type if repr refuses (an int over 4,300 digits)."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _check_register(num_qubits) -> None:
    if not (_is_index(num_qubits) and 1 <= num_qubits <= MAX_REGISTER):
        raise InvalidParamsError(
            f"num_qubits must be an integer from 1 to {MAX_REGISTER}, got {num_qubits!r}")


def _as_complex(values, what: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParamsError(f"{what} must be complex numbers") from None


def _check_qubit(qubit: int, num_qubits: int) -> None:
    if not _is_index(qubit):
        raise InvalidParamsError(f"qubit index {qubit!r} is not an integer")
    if not 0 <= qubit < num_qubits:
        raise OutOfBoundsError(f"qubit {qubit} outside register of {num_qubits}")


def _normalized(states: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The one norm check: each state along the last axis, times 1/norm, once its
    norm is 1 within NORM_TOL (norm² = re·re + im·im, as in np.linalg.norm), into
    `out` (states itself, for an array that no caller owns) or a new array."""
    re, im = states.real, states.imag
    if states.ndim == 1:  # numpy scalars: as fast as np.linalg.norm
        norms = np.sqrt(re.dot(re) + im.dot(im))
        drift = abs(norms - 1.0)
    else:  # the same dot products, one per state
        dots = np.einsum("...i,...i", re, re) + np.einsum("...i,...i", im, im)
        norms = np.sqrt(dots)[..., None]
        drift = np.abs(norms - 1.0).max()
    if not drift <= NORM_TOL:  # also true for a NaN norm
        raise NormDriftError(f"state norm drifts from 1 by {drift} > {NORM_TOL}")
    return np.multiply(states, 1.0 / norms, out=out)


class StateVector:
    """Normalized complex amplitudes over an n-qubit register."""

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes: Sequence[complex]):
        _check_register(num_qubits)
        amp = _as_complex(amplitudes, "amplitudes").reshape(-1)
        if amp.size != 2**num_qubits:
            raise DimensionMismatchError(
                f"expected {2**num_qubits} amplitudes, got {amp.size}"
            )
        self.num_qubits = num_qubits
        self.amplitudes = _normalized(amp)

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "StateVector":
        """Computational basis state; bits[0] is qubit 0 (most significant)."""
        if not (isinstance(bits, (Sequence, np.ndarray))
                and all(_is_index(b) and 0 <= b <= 1 for b in bits)):
            raise InvalidParamsError(f"bits must be a sequence of 0s and 1s, got {bits!r}")
        n = len(bits)
        _check_register(n)
        if 16 * 2**n > HOST_MEMORY:  # before np.zeros, which overcommit lets succeed
            raise InvalidParamsError(f"{n} qubits need {16 * 2**n} bytes, more than this host has")
        index = 0
        for b in bits:
            index = (index << 1) | int(b)
        amp = np.zeros(2**n, dtype=complex)
        amp[index] = 1.0
        return cls(n, amp)

    @classmethod
    def all_down(cls, num_qubits: int) -> "StateVector":
        _check_register(num_qubits)
        return cls.from_bits([0] * num_qubits)

    def tensor(self, other: "StateVector") -> "StateVector":
        check_type(StateVector, other)
        return StateVector(
            self.num_qubits + other.num_qubits,
            np.kron(self.amplitudes, other.amplitudes),
        )

    def overlap(self, other: "StateVector") -> complex:
        check_type(StateVector, other)
        if self.num_qubits != other.num_qubits:
            raise DimensionMismatchError("register sizes differ")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def __repr__(self) -> str:  # pragma: no cover
        return f"StateVector(num_qubits={self.num_qubits})"


def bell_state(label: str) -> StateVector:
    """One of the four Bell states on a 2-qubit register."""
    if not isinstance(label, str) or label not in BELL_VECTORS:
        raise InvalidParamsError(f"unknown Bell label {label!r}; use one of {BELL_LABELS}")
    return StateVector(2, BELL_VECTORS[label])


def check_isometry(matrix: np.ndarray, tol: float = UNITARITY_TOL) -> None:
    """Raise NormDriftError unless M†M = I within tol in every entry."""
    gram = matrix.conj().T @ matrix
    gram.reshape(-1)[::len(gram) + 1] -= 1.0  # the diagonal; a view, as gram is a new array
    drift = np.abs(gram).max()
    if not drift < tol:  # also true for a NaN drift
        raise NormDriftError(f"operator failed the unitarity check: "
                             f"max |M†M - I| = {drift:.3g}")


class DenseOperator:
    """A dense dim x dim complex operator."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = _as_complex(matrix, "operator entries")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError("operator must be square")
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "DenseOperator":
        if not (_is_index(dim) and dim >= 1 and 16 * int(dim) ** 2 <= HOST_MEMORY):
            raise InvalidParamsError(f"dim {_shown(dim)} is not a positive int within memory")
        return cls(np.eye(dim, dtype=complex))

    def assert_unitary(self) -> None:
        check_isometry(self.matrix)

    def __repr__(self) -> str:  # pragma: no cover
        return f"DenseOperator(dim={self.dim})"


@dataclass(frozen=True)
class StaticTerm:
    """coefficient * product of single-qubit Paulis, time independent."""

    coefficient: float
    factors: tuple[tuple[int, str], ...]

    def __post_init__(self):
        if not is_finite_real(self.coefficient):
            raise InvalidParamsError(f"coefficient {self.coefficient!r} is not finite")
        check_type(tuple, self.factors)
        if not all(type(f) is tuple and len(f) == 2 for f in self.factors):
            raise InvalidParamsError(f"factors {_shown(self.factors)} are not (qubit, axis) pairs")
        qubits = [q for q, _ in self.factors]
        if not all(map(_is_index, qubits)):
            raise InvalidParamsError(f"qubits {qubits!r} are not all integers")
        if len(set(qubits)) != len(qubits):
            raise DuplicateTargetError("repeated qubit in a static term")
        for _, axis in self.factors:
            if type(axis) is not str or axis not in PAULI:
                raise InvalidParamsError(f"unknown axis {_shown(axis)}")


@dataclass(frozen=True)
class DriveTerm:
    """A single-qubit drive; the instantaneous operator is Hermitian for all t."""

    amplitude: float
    angular_frequency: float
    target_qubit: int
    form: str

    def __post_init__(self):
        if self.form not in DRIVE_FORMS:
            raise InvalidParamsError(f"unknown drive form {self.form!r}")
        if not (is_finite_real(self.amplitude)
                and is_finite_real(self.angular_frequency)):
            raise InvalidParamsError("drive parameters must be finite real numbers")


@dataclass(frozen=True)
class TimeDependentHamiltonian:
    """Static multi-qubit Pauli terms plus single-qubit drive terms."""

    num_qubits: int
    static_terms: tuple[StaticTerm, ...] = ()
    drive_terms: tuple[DriveTerm, ...] = ()

    def __post_init__(self):
        _check_register(self.num_qubits)
        check_type(tuple, self.static_terms, self.drive_terms)
        check_type(StaticTerm, *self.static_terms)
        check_type(DriveTerm, *self.drive_terms)
        for term in self.static_terms:
            for q, _ in term.factors:
                _check_qubit(q, self.num_qubits)
        for drv in self.drive_terms:
            _check_qubit(drv.target_qubit, self.num_qubits)

    def support(self) -> tuple[int, ...]:
        """Qubits the Hamiltonian acts on non-trivially, sorted."""
        qubits = {q for term in self.static_terms for q, _ in term.factors}
        qubits.update(drv.target_qubit for drv in self.drive_terms)
        return tuple(sorted(qubits)) if qubits else (0,)

    def _local_pieces(self):
        """Support, static local matrix and the drives in affine form: on the
        support H(t) = static + sum_k a_k f_k(w_k t) M_k, one piece (a_k, w_k,
        f_k, M_k) per wave of _AFFINE, M_k a cached Pauli string.  A piece
        with no wave or w_k = 0 is constant and joins the static matrix."""
        support = self.support()
        static = np.zeros((2 ** len(support),) * 2, dtype=complex)
        for term in self.static_terms:
            static += term.coefficient * _term_string(term.factors, support)
        drives = []
        for drv in self.drive_terms:
            a, w, q = drv.amplitude, drv.angular_frequency, drv.target_qubit
            for scale, wave, axis in _AFFINE[drv.form]:
                string = _term_string(((q, axis),), support)
                if wave is None or w == 0:
                    static += scale * a * (1.0 if wave is None else wave(0.0)) * string
                else:
                    drives.append((scale * a, w, wave, string))
        return support, static, drives

    def matrix(self, t: float) -> np.ndarray:
        """Dense 2^n x 2^n matrix of H(t)."""
        support, static, drives = self._local_pieces()
        return embed_matrix(_h_at(static, drives, t), support, self.num_qubits)


def read_only(array: np.ndarray) -> np.ndarray:
    """`array`, marked read-only so that a shared copy cannot be changed."""
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=128)
def _pauli_string(axes: tuple[str, ...]) -> np.ndarray:
    """Kronecker product of one "I", "X", "Y" or "Z" per qubit (read-only)."""
    ops = [np.eye(2, dtype=complex) if a == "I" else PAULI[a] for a in axes]
    return read_only(np.array(functools.reduce(np.kron, ops)))


@functools.lru_cache(maxsize=128)
def _term_string(factors, support: tuple[int, ...]) -> np.ndarray:
    """The Pauli string of a term's (qubit, axis) factors on `support`."""
    axes = dict(factors)
    return _pauli_string(tuple(axes.get(q, "I") for q in support))


@functools.lru_cache(maxsize=32)
def _sector_basis(terms: tuple[str, ...]) -> np.ndarray:
    """A read-only basis W in which Σ c_k·terms[k] is block-diagonal, for Pauli strings
    such as "XXI" (qubit 0 first): W diagonalises Σ 2^i·S_i over the strings S_i ≠ I
    that commute with every term and S_j before them (an even number of sites hold two
    different axes), so each joint eigenspace has its own eigenvalue and adjacent columns."""
    chosen, q = [], len(terms[0])
    for s in map("".join, itertools.product("IXYZ", repeat=q)):
        if s.strip("I") and all(sum(a != b != "I" != a for a, b in zip(s, t)) % 2 == 0
                                for t in terms + tuple(chosen)):
            chosen.append(s)
    h = sum((2.0**i * _pauli_string(tuple(s)) for i, s in enumerate(chosen)), np.zeros((2**q,) * 2))
    return read_only(np.linalg.eigh(h if h.imag.any() else h.real)[1])


@functools.lru_cache(maxsize=32)
def _pair_basis(factors, support: tuple[int, ...], linked: bytes):
    """(Q, lift), or None, for every H whose terms have these (qubit, axis) factors on `support`
    and whose nonzero entries are those of `linked` (boolean bytes): Q is real orthogonal, its
    column pairs (0, 1), (2, 3), … span 2×2 blocks of H, and lift maps the blocks B_b, (j, k, b)
    in C order, to Q·(⊕B_b)·Qᵀ.  A two-state component of the pattern keeps its computational
    states, so that no roundoff mixes it with another (the excitation neuron's Φ± inputs stay
    exact); a larger one takes the columns of _sector_basis on it."""
    terms = tuple("".join(dict(f).get(q, "I") for q in support) for f in factors)
    d = 2 ** len(support)
    reach = np.eye(d, dtype=bool) | np.frombuffer(linked, bool).reshape(d, d)
    for _ in support:  # paths of up to 2^q steps: reach[i, j] when i, j share a component
        reach = reach @ reach
    w, columns = _sector_basis(terms), []
    for on in map(np.array, sorted({tuple(row) for row in reach}, reverse=True)):
        columns.append(np.eye(d)[:, on] if on.sum() == 2 else
                       np.where(on[:, None], w, 0.0)[:, (abs(w[on]) ** 2).sum(0) > 0.5])
    q = np.column_stack(columns)
    if q.shape != (d, d) or q.dtype != float or np.abs(q.T @ q - np.eye(d)).max() > 1e-12:
        return None
    apart = np.kron(np.eye(d // 2), np.ones((2, 2))) == 0  # entries outside the 2×2 blocks
    if max(np.abs(q.T @ (_pauli_string(tuple(t)) * reach) @ q)[apart].max(initial=0.0)
           for t in terms) > 1e-12:
        return None
    pairs = q.reshape(d, -1, 2)
    return read_only(q), read_only(np.einsum("xbj,ybk->xyjkb", pairs, pairs).reshape(d * d, -1))


class _PairStack:
    """U(t_i) = Q·(⊕_b U_b(t_i))·Qᵀ for the (Q, lift) of _pair_basis, held as the 2×2 blocks
    U_b(t_i) = blocks[:, :, b, i]: an index gives dense rows, and `stack @ states` the
    (len(times), d, c) stack of U(t_i)·states, formed without the dense stack."""

    __slots__ = ("basis", "lift", "blocks")

    def __init__(self, basis: np.ndarray, lift: np.ndarray, blocks: np.ndarray):
        self.basis, self.lift, self.blocks = basis, lift, blocks

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.blocks.shape[-1],) + self.basis.shape

    def __getitem__(self, rows) -> np.ndarray:
        rows = self.blocks[..., rows]
        dense = (self.lift @ rows.reshape(len(self.lift.T), -1)).reshape(
            self.basis.shape + rows.shape[3:])
        return dense if rows.ndim == 3 else dense.transpose(2, 0, 1)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self[:]

    def __matmul__(self, states: np.ndarray) -> np.ndarray:
        x = (self.basis.T @ states).reshape(-1, 2, states.shape[-1])
        y = np.einsum("jkbt,bkc->bjct", self.blocks, x).reshape(len(self.basis), -1)
        return (self.basis @ y).reshape(len(self.basis), -1, self.shape[0]).transpose(2, 0, 1)


def _h_at(static: np.ndarray, drives, t) -> np.ndarray:
    """Local H(t), or a stack of them for an array of times, from the pieces."""
    h = static
    for amplitude, frequency, wave, string in drives:
        h = h + (amplitude * wave(frequency * np.asarray(t)))[..., None, None] * string
    return h


def _qubit_order(targets: Sequence[int], num_qubits: int) -> list[int]:
    """The register's qubits with `targets` first, checked, then the rest."""
    if type(targets) not in (tuple, list):
        raise InvalidParamsError(f"targets must be a tuple or list, got {targets!r}")
    for q in targets:
        _check_qubit(q, num_qubits)
    if len(set(targets)) != len(targets):
        raise DuplicateTargetError("targets must be distinct")
    return list(targets) + [q for q in range(num_qubits) if q not in targets]


def split_targets(states: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """The amplitudes as a (2^k, rest) matrix with `targets` leading.

    `states` holds 2^n amplitudes along its first axis: one state, shape
    (2^n,), or a block of columns, shape (2^n, c).  Row i of the result is
    the target bit string i, the first target most significant; the
    columns run over the other qubits, then over the columns of `states`.
    """
    num_qubits = len(states).bit_length() - 1
    if len(states) != 2**num_qubits:
        raise DimensionMismatchError(f"{len(states)} amplitudes fill no register")
    order = _qubit_order(targets, num_qubits)
    tensor = states.reshape((2,) * num_qubits + states.shape[1:])
    axes = order + list(range(num_qubits, tensor.ndim))
    return tensor.transpose(axes).reshape(2 ** len(targets), -1)


def merge_targets(
    block: np.ndarray, targets: Sequence[int], shape: tuple[int, ...]
) -> np.ndarray:
    """Inverse of split_targets for states of `shape`.

    `block` has shape (..., 2^k, rest); leading axes, such as one per
    operator of a stack, are kept in front of `shape`.
    """
    num_qubits = shape[0].bit_length() - 1
    lead = block.shape[:-2]
    order = _qubit_order(targets, num_qubits)
    tensor = block.reshape(lead + (2,) * num_qubits + shape[1:])
    # Axis len(lead) + i of `tensor` is qubit order[i]; put qubit q at q.
    positions = sorted(range(num_qubits), key=order.__getitem__)
    axes = list(range(len(lead)))
    axes += [len(lead) + i for i in positions]
    axes += range(len(lead) + num_qubits, tensor.ndim)
    return tensor.transpose(axes).reshape(lead + shape)


def apply_local(
    op: np.ndarray, targets: Sequence[int], states: np.ndarray
) -> np.ndarray:
    """Apply `op` on `targets` (in that order), identity on the other qubits.

    `op` is one 2^k x 2^k operator or a stack of them, shape (m, 2^k, 2^k);
    `states` is one state or a block of columns, as in split_targets.  The
    result has the shape of `states`, after the stack axis if there is one.
    """
    block = split_targets(states, targets)
    if op.shape[-2:] != (len(block), len(block)):
        raise DimensionMismatchError("operator size does not match target count")
    # A stack on the one block is one (m d, d) x (d, c) product, not m products.
    product = (op.reshape(-1, len(block)) if isinstance(op, np.ndarray) else op) @ block
    return merge_targets(product.reshape(op.shape[:-1] + block.shape[1:]),
                         targets, states.shape)


def embed_matrix(op: np.ndarray, targets: Sequence[int], num_qubits: int) -> np.ndarray:
    """Embed an operator on `targets` (in that order) into the full register."""
    _check_register(num_qubits)
    return apply_local(op, targets, np.eye(2**num_qubits, dtype=complex))


def _integrate(static: np.ndarray, drives, t_eval: np.ndarray, tol: float):
    """Adaptive DOP853 solution of dU/dt = -i H(t) U, U(0) = I, at t_eval > 0."""
    from scipy.integrate import solve_ivp  # here, so that `import qsnn` loads no scipy

    dim = static.shape[0]

    def rhs(t, y):
        return (-1j * _h_at(static, drives, t) @ y.reshape(dim, dim)).reshape(-1)

    # Integrate a couple of decades below the requested accuracy so that
    # accumulated norm drift stays within the 1e-9 budget.
    rtol = max(tol * 1e-2, 1e-13)
    atol = max(tol * 1e-4, 1e-14)
    sol = solve_ivp(
        rhs,
        (0.0, float(t_eval[-1])),
        np.eye(dim, dtype=complex).reshape(-1),
        method="DOP853",
        rtol=rtol,
        atol=atol,
        t_eval=t_eval,
    )
    if not sol.success:  # pragma: no cover
        raise NormDriftError(f"integrator failed: {sol.message}")
    return np.moveaxis(sol.y.reshape(dim, dim, -1), -1, 0)


def _eigh_propagators(h: np.ndarray, times: np.ndarray, out: np.ndarray) -> None:
    """exp(-itH) = (V e^{-itE}) V† for each t into out, from one eigendecomposition H = V E V†
    of h.real by the real symmetric solver (V† = V^T) when H has no imaginary entry, else of H."""
    energies, vectors = np.linalg.eigh(h.real if h.dtype.kind == "c" and not h.imag.any() else h)
    phases = np.exp(-1j * (times[:, None] * energies))
    np.matmul(vectors * phases[:, None, :], vectors.conj().T, out=out)


# Gauss-Legendre nodes in a step, steps per stacked exponential, C of the step rule.
_GAUSS_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * (math.sqrt(15.0) / 10.0)
_MAGNUS_CHUNK = 128
_MAGNUS_ERROR = 2e-4
# Weights of I, A, ..., A^4 in the Paterson-Stockmeyer blocks of the Taylor sum.
_TAYLOR_PS = np.array([[(i < 4 or m == 8) / math.factorial(m + i) for i in range(5)]
                       for m in (8, 4, 0)])


def _magnus_basis(static, string) -> np.ndarray:
    """The 14 fixed matrices of _magnus_exponentials, shape (14, d*d)."""
    commutator = lambda a, b: a @ b - b @ a  # noqa: E731
    k = commutator(static, string)
    ys = (string, k, commutator(static, k), commutator(string, k))
    pairs = [commutator(p, q) for p in (k, static, string) for q in ys]
    return np.reshape([static, string] + pairs, (14, -1))


# A 2×2 block's Pauli coefficients (c0, cx, cy, cz) from its entries (a00, a01, a10, a11), the
# inverse, and [u·σ, v·σ] = 2i(u × v)·σ on the outer product of two coefficient vectors.
_PAULI_OF = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, -1j, 1j, 0], [-1, 0, 0, 1]]) / 2
_ENTRIES_OF = np.array([[1, 0, 0, -1], [0, 1, 1j, 0], [0, 1, -1j, 0], [1, 0, 0, 1]])
_COMMUTATOR = 1j * np.array([[(i - j) * (j - k) * (k - i) for j in range(3) for k in range(3)]
                             for i in range(3)])


def _pair_magnus_basis(static, string) -> np.ndarray:
    """_magnus_basis for stacks of 2×2 blocks, shape (2, 2, blocks), as the Pauli coefficients
    of each block, shape (14, 4 * blocks), one level of commutators at a time."""
    coefficients = _PAULI_OF @ np.stack([static, string]).reshape(2, 4, -1)
    hm = coefficients[:, 1:].transpose(1, 0, 2)  # the vectors of H_s and M, (3, 2, blocks)
    commutators = lambda u, v: (  # noqa: E731
        _COMMUTATOR @ (u[:, None] * v[None]).reshape(9, -1)).reshape(3, -1, hm.shape[-1])
    k = commutators(hm[:, :1], hm[:, 1:])
    ys = np.concatenate([hm[:, 1:], k, commutators(hm, k)], 1)  # M, K, L1, L2
    basis = np.zeros((14, 4, hm.shape[-1]), dtype=complex)
    basis[:2], basis[2:, 1:] = coefficients, commutators(
        np.concatenate([k, hm], 1)[:, :, None], ys[:, None]).transpose(1, 0, 2)
    return basis.reshape(14, -1)


def _magnus_exponentials(static, drive, left: np.ndarray, width: np.ndarray, basis):
    """(cut, exp(Omega) of the steps left[cut], width[cut]) for each
    _MAGNUS_CHUNK steps [left, left + width] of dU/dt = -iH(t)U, for
    H(t) = H_s + a f(wt) M: the order-6 commutator Magnus exponent on three
    Gauss-Legendre nodes (Blanes, Casas & Ros, BIT 40, 434 (2000)), a sum of 14
    fixed matrices (the basis): with s = -i width, K = [H_s, M], L1 = [H_s, K],
    L2 = [M, K], Omega = s H_s + s (b1 + b3/12) M + [X, Y]/240, X = s^2 b2 K
    - 20 s H_s - s (20 b1 + b3) M, Y = s b2 M - (s^2 b3/30) K - (s^3 b2/60)(L1 + b1 L2)."""
    amplitude, frequency, wave, string = drive
    f1, f2, f3 = amplitude * wave(frequency * (left + _GAUSS_NODES[:, None] * width))
    s = -1j * width
    b1, b2, b3 = f2, math.sqrt(15.0) / 3.0 * (f3 - f1), 10.0 / 3.0 * (f3 - 2.0 * f2 + f1)
    s2 = s * s
    x = np.array([s2 * b2, -20.0 * s, -s * (20.0 * b1 + b3)])
    y = np.array([b2, s * b3 / -30.0, s2 * b2 / -60.0, s2 * b1 * b2 / -60.0]) * (s / 240.0)
    weights = np.empty((len(s), 14), dtype=complex)
    weights[:, 0], weights[:, 1] = s, s * (b1 + b3 / 12.0)
    weights[:, 2:] = (x[:, None] * y).reshape(12, -1).T
    # Bounded temporaries: _MAGNUS_CHUNK d×d steps, or 16 times as many stacks of 2×2 blocks.
    expm, chunk = (_expm_taylor, 1) if static.ndim == 2 else (_expm_pairs, 16)
    chunk *= _MAGNUS_CHUNK
    for lo in range(0, len(s), chunk):
        cut = slice(lo, lo + chunk)
        yield cut, expm((weights[cut] @ basis).reshape((-1,) + static.shape))


def _expm_taylor(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of a stack by batched matmuls: scaled by 2^-j so that
    each |A|_1 < 1/4, the degree-12 Taylor sum by Paterson-Stockmeyer (5 matmuls;
    truncation <= sum_{k>12} 4^-k/k! < 2.4e-18), then squared j times."""
    bound = (np.ones(a.shape[-1]) @ np.abs(a)).max(initial=0.0)  # the largest |A|_1
    squarings = max(math.frexp(4.0 * bound)[1], 0)
    powers = np.empty((5,) + a.shape, dtype=complex)  # I, A, A^2, A^3, A^4
    powers[0], powers[1] = np.eye(a.shape[-1]), a * 0.5**squarings
    for i in (2, 3, 4):
        np.matmul(powers[i - 1], powers[1], out=powers[i])
    blocks = (_TAYLOR_PS @ powers.view(float).reshape(5, -1)).view(complex)
    result, *blocks = blocks.reshape((3,) + a.shape)
    for block in blocks:
        result = powers[4] @ result + block
    for _ in range(squarings):
        result = result @ result
    return result


_EYE_PAIRS = np.eye(2)[:, :, None, None]
_mul_pairs = functools.partial(np.einsum, "ij...,jk...->ik...")  # 2×2 products, entries first


def _expm_pairs(a: np.ndarray) -> np.ndarray:
    """exp of each anti-Hermitian 2×2 matrix -i(θ·I + w·σ), given by its Pauli coefficients in
    a (steps, 4, ...) stack, as entries in a (2, 2, ..., steps) one, in closed form:
    e^{-iθ}·(cos r·I - i·sin r·w·σ/r) with r = |w|."""
    c = a.reshape(len(a), 4, -1).transpose(1, 2, 0)
    r = np.sqrt((c[1:].imag ** 2).sum(0))
    e = np.empty(c.shape, dtype=complex)
    e[0], e[1:] = np.cos(r), np.divide(np.sin(r), r, out=np.ones_like(r), where=r != 0) * c[1:]
    return (_ENTRIES_OF @ (np.exp(c[0]) * e).reshape(4, -1)).reshape((2, 2) + r.shape)


def _floquet(static, drives, times: np.ndarray, tol: float, out: np.ndarray, lift=None):
    """U(t) = U(t mod T) U(T)^floor(t/T) into out, for a drive of period T.

    Only [0, min(S, t_max)] is propagated (Shirley, Phys. Rev. 138, B979,
    1965): a running product of equal Magnus steps of at most T/n, then one
    shorter step from the node below to each phase t mod T (phases merged
    where they differ by roundoff), _MAGNUS_CHUNK exponentials at a time.
    A real H has H(T - t) = H(t) = H(t)^T: S = T/2, U(T) = V^T V for V = U(T/2),
    and U(p) = conj(U(T - p)) U(T) for p > T/2.  A complex H (one Y) spans S = T.
    With a the drive amplitude, |H| <= |H_s| + a and P periods spanned (to roundoff),
    n = max(|H| T, (P C a T (2 pi + |H| T)^5 / tol)^(1/6)), C = _MAGNUS_ERROR:
    one period errs by about C a T (2 pi + |H| T)^5 / n^6, and C is ten times
    the largest constant measured, so that U errs by about tol / 10 (README).

    Given the lift of _pair_basis (H real), the same steps run on H's 2×2 blocks, and out,
    shape (2, 2, blocks, len(times)), receives U(t)'s: each exponential in closed form, each
    product one elementwise einsum, the chain a log-depth prefix product, and U(T)^k for every
    turn k from the same squares of U(T).
    """
    (drive,) = drives
    period = 2.0 * math.pi / abs(drive[1])
    real = not (static.imag.any() or drive[3].imag.any())  # H(T - t) = H(t) = H(t)^T
    roundoff = 16 * times[-1] * np.finfo(float).eps
    turns, phase = np.divmod(times, period)
    full = phase > period - roundoff  # t mod T within roundoff of T: next turn
    turns[full], phase[full] = turns[full] + 1, 0.0
    folded = real & (phase > period / 2.0 + roundoff)  # U(p) = conj(U(T - p)) U(T)
    phase[folded] = period - phase[folded]
    grid = np.sort(phase)
    gaps = grid[1:] - grid[:-1] > roundoff  # a run of phases within roundoff keeps its largest
    index = np.concatenate(([0], np.cumsum(gaps)))[np.searchsorted(grid, phase)]
    grid = grid[np.concatenate((gaps, [True]))]
    span = min(period / 2.0 if real else period, times[-1])
    norm = (abs(drive[0]) + np.abs(np.linalg.eigvalsh(static)).max()) * period
    spanned = math.ceil((times[-1] - roundoff) / period)  # P of the step rule
    steps = max(norm, (spanned * _MAGNUS_ERROR * abs(drive[0]) * period
                       * (2.0 * math.pi + norm) ** 5 / tol) ** (1 / 6))
    nodes = np.linspace(0.0, span, max(math.ceil(span * steps / period), 1) + 1)
    below = np.searchsorted(nodes, grid, side="right") - 1
    short = np.flatnonzero(grid - nodes[below] > roundoff)
    left = nodes[below[short]]  # phases off the chain's nodes: one shorter step each
    if lift is not None:  # stacks of 2×2 blocks, entries first: (2, 2, blocks, steps)
        static, string = (np.stack([static, drive[3]]).reshape(2, -1) @ lift).reshape(2, 2, 2, -1)
        drive, chained = (*drive[:3], string), len(nodes) - 1
        steps = np.empty(static.shape + (1 + chained + short.size,), dtype=complex)
        steps[..., 0] = _EYE_PAIRS[..., 0]  # then the chain's steps and the short ones
        for cut, running in _magnus_exponentials(
                static, drive, np.concatenate((nodes[:-1], left)),
                np.concatenate((np.diff(nodes), grid[short] - left)),
                _pair_magnus_basis(static, string)):
            steps[..., 1:][..., cut] = running
        chain, width = steps[..., :chained + 1], 1
        while width <= chained:  # chain[..., i] = step i-1 ... step 0
            chain[..., width:] = _mul_pairs(chain[..., width:], chain[..., :-width])
            width *= 2
        within = chain[..., below]
        if short.size:
            within[..., short] = _mul_pairs(steps[..., chained + 1:], within[..., short])
        u, whole = within[..., index], _mul_pairs(chain[..., -1].swapaxes(0, 1), chain[..., -1])
        if folded.any():
            u[..., folded] = _mul_pairs(u[..., folded].conj(), whole[..., None])
        values = turns[np.concatenate(([True], turns[1:] != turns[:-1]))]  # turns increase
        squares = [whole[..., None]]
        while len(squares) < int(values[-1]).bit_length():  # U(T)^(2^j) for each bit j of a turn
            squares.append(_mul_pairs(squares[-1], squares[-1]))
        odd = values // 2.0 ** np.arange(len(squares))[:, None] % 2 == 1
        power = functools.reduce(_mul_pairs, map(np.where, odd, squares, [_EYE_PAIRS] * len(odd)))
        _mul_pairs(u, power[..., np.searchsorted(values, turns)], out=out)
        return
    basis = _magnus_basis(static, drive[3])
    chain = np.tile(np.eye(len(static), dtype=complex), (len(nodes), 1, 1))
    for cut, running in _magnus_exponentials(static, drive, nodes[:-1], np.diff(nodes), basis):
        for i, step in enumerate(running, cut.start):
            np.matmul(step, chain[i], out=chain[i + 1])
    within = chain[below]
    if short.size:
        for cut, running in _magnus_exponentials(static, drive, left, grid[short] - left, basis):
            within[short[cut]] = running @ within[short[cut]]
    whole = chain[-1].T @ chain[-1] if real else chain[-1]  # U(T) wherever it is used
    out[:] = within[index]
    out[folded] = out[folded].conj() @ whole
    values, starts = np.unique(turns, return_index=True)  # times increase: slices
    for turn, lo, hi in zip(values, starts, [*starts[1:], len(turns)]):
        block = out[lo:hi].reshape(-1, len(static))  # a view: one 2-D product
        block[:] = block @ np.linalg.matrix_power(whole, int(turn))


def _local_propagators(
    hamiltonian: TimeDependentHamiltonian,
    times,
    tol: float,
    method: str = "auto",
    num_qubits: int | None = None,
):
    """Support of H and its local propagators U(t_i), shape (len(times), d, d).

    This is the one propagation engine and the one place its inputs are
    checked.  Under method "auto" the method follows from H:

    * no time-dependent drive (a drive at w = 0 is static): one
      eigendecomposition, for one time or many;
    * one rotating drive whose target number operator N commutes with the
      static part: the exact rotating frame,
      U(t) = exp(-/+ i w t N) exp(-i t (H_s + A/2 X -/+ w N));
    * one cosine drive: Floquet, with order-6 Magnus steps over
      one period (_floquet); when H is real and _pair_basis splits it into
      2×2 blocks (the excitation neuron), on those blocks, and the stack is
      a _PairStack rather than an array;
    * anything else: the adaptive integrator over [0, t_max].

    method "ode" forces the integrator.  num_qubits, when given, is the
    register size of the state the propagators will act on.
    """
    check_type(TimeDependentHamiltonian, hamiltonian)
    try:
        times = np.atleast_1d(np.asarray(times, dtype=float))
    except (TypeError, ValueError, OverflowError):
        raise InvalidParamsError("times must be real numbers") from None
    # Strictly increasing from >= 0 to < inf also rules out NaN anywhere.
    if times.ndim != 1 or not (
        times.size and 0 <= times[0] and times[-1] < math.inf
        and (times[1:] > times[:-1]).all()
    ):
        raise InvalidParamsError(
            "times must be finite, non-negative and strictly increasing")
    if not (is_finite_real(tol) and tol > 0):
        raise InvalidParamsError(f"tol must be finite and positive, got {tol!r}")
    if method not in ("auto", "ode"):
        raise InvalidParamsError(f"unknown method {method!r}")
    if num_qubits is not None and num_qubits != hamiltonian.num_qubits:
        raise DimensionMismatchError("state and Hamiltonian register sizes differ")
    support, static, drives = hamiltonian._local_pieces()
    start = int(times[0] == 0)
    t = times[start:]
    dynamic = [drv for drv in hamiltonian.drive_terms if drv.form != "static_z"]
    drv = dynamic[0] if len(dynamic) == 1 else None
    rotating = drv is not None and drv.form.startswith("rotating")
    if rotating:
        z = _term_string(((drv.target_qubit, "Z"),), support).diagonal()
        number = (1.0 + z.real) / 2.0  # N = |up><up| on the target
        rotating = not np.any(static[number[:, None] != number[None, :]])
    periodic = drv is not None and drv.form == "cosine_x"
    pairs = None
    if method == "auto" and periodic and drives and t.size and not (
            static.imag.any() or drives[0][3].imag.any()):
        pairs = _pair_basis(tuple(term.factors for term in hamiltonian.static_terms) + tuple(
            ((d.target_qubit, a),) for d in hamiltonian.drive_terms for *_, a in _AFFINE[d.form]),
            support, ((static != 0) | (drives[0][3] != 0)).tobytes())
    if pairs is not None:
        blocks = np.empty((2, 2, len(static) // 2, times.size), dtype=complex)
        blocks[..., :start] = _EYE_PAIRS
        _floquet(static, drives, t, tol, blocks[..., start:], pairs[1])
        return support, _PairStack(*pairs, blocks)
    out = np.empty((times.size,) + static.shape, dtype=complex)
    if start:
        out[0] = np.eye(len(static))
    rest = out[start:]
    if t.size == 0:
        return support, out
    if method == "auto" and not drives:
        _eigh_propagators(static, t, rest)
    elif method == "auto" and rotating:
        w = drv.angular_frequency * (1.0 if drv.form == "rotating_plus" else -1.0)
        _eigh_propagators(_h_at(static, drives, 0.0) - w * np.diag(number), t, rest)
        rest *= np.exp(-1j * w * np.outer(t, number))[:, :, None]
    elif method == "auto" and periodic:
        _floquet(static, drives, t, tol, rest)
    else:
        rest[:] = _integrate(static, drives, t, tol)
    return support, out


def evolve(
    state: StateVector,
    hamiltonian: TimeDependentHamiltonian,
    duration: float,
    tol: float = 1e-9,
    method: str = "auto",
) -> StateVector:
    """Solve the Schrodinger equation from t = 0 to t = duration.

    method "auto" picks an exact method from the form of H where one
    exists and the adaptive integrator otherwise; "ode" forces the
    integrator (useful for convergence studies).
    """
    check_type(StateVector, state)
    support, local = _local_propagators(
        hamiltonian, duration, tol, method, state.num_qubits
    )
    amplitudes = apply_local(local[0], support, state.amplitudes)
    return StateVector(state.num_qubits, amplitudes)


def evolve_sampled(
    states: Sequence[StateVector],
    hamiltonian: TimeDependentHamiltonian,
    times: Sequence[float],
    tol: float = 1e-9,
    final: list | None = None,
) -> np.ndarray:
    """Each state's amplitudes at `times` from t=0, (len(states), len(times), 2^n): one array,
    filled row by row from one stack and normalized in place, the only array of that size a
    call makes; a list `final` receives the stack's last row (on H's support), checked unitary."""
    check_type(StateVector, *states)
    registers = {state.num_qubits for state in states}
    if len(registers) != 1:
        raise DimensionMismatchError(f"states on {len(registers)} registers, not one")
    support, local = _local_propagators(hamiltonian, times, tol, "auto", *registers)
    evolved = np.empty((len(states), local.shape[0], 2 ** registers.pop()), dtype=complex)
    for state, row in zip(states, evolved):
        row[:] = apply_local(local, support, state.amplitudes)
    if final is not None:  # a read-only copy, so that the stack is freed
        final.append(read_only(local[-1].copy()))
        check_isometry(final[-1])
    return _normalized(evolved, out=evolved)


def propagator(
    hamiltonian: TimeDependentHamiltonian,
    duration: float,
    tol: float = 1e-9,
    method: str = "auto",
) -> DenseOperator:
    """Time-ordered propagator over the full register (methods as in evolve)."""
    support, local = _local_propagators(hamiltonian, duration, tol, method)
    n = hamiltonian.num_qubits
    u = local[0] if support == tuple(range(n)) else embed_matrix(local[0], support, n)
    full = DenseOperator(u)
    full.assert_unitary()
    return full


def piecewise_constant_evolve(
    state: StateVector,
    hamiltonian: TimeDependentHamiltonian,
    duration: float,
    step: float,
) -> StateVector:
    """Independent oracle: midpoint-sampled piecewise-constant exponentials."""
    check_type(StateVector, state)
    op = piecewise_constant_propagator(hamiltonian, duration, step)
    if op.dim != state.amplitudes.size:
        raise DimensionMismatchError("operator/state dimensions differ")
    return StateVector(state.num_qubits, op.matrix @ state.amplitudes)


# Steps per stacked expm call of the piecewise-constant oracle.
_PIECEWISE_CHUNK = 4096


def piecewise_constant_propagator(
    hamiltonian: TimeDependentHamiltonian,
    duration: float,
    step: float,
) -> DenseOperator:
    """Oracle propagator: expm of H sampled at each step midpoint, multiplied in
    time order; the exponentials are taken _PIECEWISE_CHUNK steps per call."""
    from scipy.linalg import expm  # here, so that `import qsnn` loads no scipy

    check_type(TimeDependentHamiltonian, hamiltonian)
    if not (is_finite_real(duration) and duration >= 0):
        raise InvalidParamsError(f"duration must be finite and >= 0, got {duration!r}")
    if not (is_finite_real(step) and step > 0):
        raise InvalidParamsError(f"step must be finite and positive, got {step!r}")
    if not math.isfinite(duration / step):
        raise InvalidParamsError(f"duration/step = {duration}/{step} is no finite step count")
    support, static, drives = hamiltonian._local_pieces()
    steps = max(1, int(math.ceil(duration / step)))
    dt = duration / steps
    u = np.eye(len(static), dtype=complex)
    for lo in range(0, steps, _PIECEWISE_CHUNK):
        t = (np.arange(lo, min(lo + _PIECEWISE_CHUNK, steps)) + 0.5) * dt  # midpoints
        h = np.broadcast_to(_h_at(static, drives, t), t.shape + static.shape)
        for exponential in expm(-1j * dt * h):
            u = exponential @ u
    return DenseOperator(embed_matrix(u, support, hamiltonian.num_qubits))


def is_finite_real(x) -> bool:
    """An int or float (not a bool) that is finite as a float."""
    if type(x) is bool or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


def check_type(kind: type, *values) -> None:
    """Raise InvalidParamsError unless every value is an instance of `kind`."""
    for value in values:
        if not isinstance(value, kind):
            raise InvalidParamsError(f"expected a {kind.__name__}, got {value!r}")


# The single-qubit gates: name -> (number of angles, 2x2 matrix of the
# angles), in the index basis (|down>, |up>).  A gate is (name, *angles).
GATES = {
    "hadamard": (0, lambda: HADAMARD),
    "not_x": (0, lambda: PAULI_X),
    "phase": (1, lambda phi: np.diag([1.0, np.exp(1j * phi)])),
    "z_rotation": (1, lambda theta: np.diag(np.exp([-0.5j * theta, 0.5j * theta]))),
}


def check_gate(gate) -> None:
    """Reject anything but a known gate with its finite real angles."""
    name = gate[0] if type(gate) is tuple and gate else None
    known = type(name) is str and name in GATES
    if not known or len(gate) != GATES[name][0] + 1:
        arities = {name: arity for name, (arity, _) in GATES.items()}
        raise InvalidParamsError(
            f"invalid gate {gate!r}; gates and their number of angles: {arities}"
        )
    if not all(map(is_finite_real, gate[1:])):
        raise InvalidParamsError(f"gate {gate!r} needs a finite real angle")


def gate_matrix(gate) -> np.ndarray:
    """The 2x2 matrix of a gate, after check_gate."""
    check_gate(gate)
    return GATES[gate[0]][1](*gate[1:])


def apply_gate(state: StateVector, gate, target: int) -> StateVector:
    """Apply a single-qubit gate (name, *angles) on `target`."""
    check_type(StateVector, state)
    amplitudes = apply_local(gate_matrix(gate), (target,), state.amplitudes)
    return StateVector(state.num_qubits, amplitudes)


def expectation(state: StateVector, axis: str, qubit: int) -> float:
    """<psi| sigma^axis_qubit |psi>."""
    check_type(StateVector, state)
    if type(axis) is not str or axis not in PAULI:
        raise InvalidParamsError(f"unknown axis {_shown(axis)}")
    block = split_targets(state.amplitudes, (qubit,))
    return float(np.real(np.sum(block.conj() * (PAULI[axis] @ block))))


class MeasureResult(NamedTuple):
    p_down: float
    p_up: float


def measure(state: StateVector, qubit: int) -> MeasureResult:
    """Outcome probabilities of a computational-basis measurement of one
    qubit; network.back_action describes the state after an outcome."""
    check_type(StateVector, state)
    _check_qubit(qubit, state.num_qubits)
    # Axis 1 of this view is the measured qubit (qubit 0 most significant).
    view = state.amplitudes.reshape(2**qubit, 2, -1)
    return MeasureResult(*(float(np.vdot(view[:, b], view[:, b]).real) for b in (0, 1)))
