"""System definitions and admissibility checks for partially damped transport.

A system couples a symmetric velocity matrix A with a damping matrix B
acting only on the trailing block of components.  Admissibility is:
symmetry, distinct nonzero propagation speeds, a coercive damped block, and
the coupling condition (no transport eigenvector hides inside the damping
kernel).  The coupling condition is computed by two independent routes,
eigenvector screening and a reachability-style rank test, which must agree.
Eigendecompositions come from numpy's symmetric eigensolver (``eigh``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYMMETRY_RTOL = 1e-12
EIGEN_GAP_RTOL = 1e-9
ZERO_SPEED_RTOL = 1e-9
COUPLING_KERNEL_RTOL = 1e-10
RANK_PIVOT_RTOL = 1e-10
SIGN_CONVENTION_EPS = 1e-12


def _as_matrix(m, name: str) -> np.ndarray:
    arr = np.array(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name}: expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: entries must be finite")
    return arr


def _is_symmetric(a: np.ndarray) -> bool:
    scale = max(1.0, float(np.abs(a).max()))
    return bool(np.abs(a - a.T).max() <= SYMMETRY_RTOL * scale)


@dataclass(frozen=True)
class HyperbolicSystem:
    """Velocity matrix plus a damping block on the last ``n - n1`` components.

    ``a`` is the n-by-n velocity matrix, ``n1`` counts the leading undamped
    components, and ``dd`` is the damping acting on the rest.  ``dd`` need
    not be symmetric; its coercivity is measured through the symmetric part.
    """

    a: np.ndarray
    n1: int
    dd: np.ndarray

    def __post_init__(self) -> None:
        a = _as_matrix(self.a, "system.a")
        dd = _as_matrix(self.dd, "system.dd")
        n = a.shape[0]
        n1 = int(self.n1)
        if not 0 <= n1 < n:
            raise ValueError(f"system.n1: need 0 <= n1 < {n}, got {n1}")
        if dd.shape[0] != n - n1:
            raise ValueError(
                f"system.dd: expected shape ({n - n1}, {n - n1}), got {dd.shape}"
            )
        a.flags.writeable = False
        dd.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "dd", dd)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def b(self) -> np.ndarray:
        """The damping padded to n-by-n: zero outside the trailing block."""
        m = np.zeros((self.n, self.n))
        m[self.n1:, self.n1:] = self.dd
        return m

    @property
    def coercivity(self) -> float:
        """Smallest eigenvalue of the symmetric part of ``dd``.  May be
        nonpositive; admissibility demands > 0."""
        return float(np.linalg.eigvalsh(0.5 * (self.dd + self.dd.T))[0])


@dataclass(frozen=True)
class EigenStructure:
    """Ascending speeds, the orthogonal change of basis, and the count of
    leftward movers."""

    lambdas: np.ndarray
    p: int
    basis: np.ndarray

    def __post_init__(self) -> None:
        lam = np.array(self.lambdas, dtype=float).reshape(-1)
        basis = _as_matrix(self.basis, "eigs.basis")
        if basis.shape[0] != lam.size:
            raise ValueError("eigs: basis size must match number of speeds")
        lam.flags.writeable = False
        basis.flags.writeable = False
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "p", int(self.p))

    @property
    def n(self) -> int:
        return self.lambdas.size

    @classmethod
    def from_speeds(cls, speeds) -> "EigenStructure":
        """Diagonal-system structure for a plain list of speeds (identity
        basis).  Convenient for the residence-time calculus, which only
        reads the speeds."""
        lam = np.sort(np.array(speeds, dtype=float).reshape(-1))
        return cls(lambdas=lam, p=int(np.sum(lam < 0.0)), basis=np.eye(lam.size))


def diagonalize(a) -> EigenStructure:
    """Eigen-decompose a symmetric velocity matrix.

    Speeds come back ascending; each basis column is normalised so its
    first entry above 1e-12 in magnitude is positive, making the
    decomposition deterministic.
    """
    a = _as_matrix(a, "velocity matrix")
    if not _is_symmetric(a):
        raise ValueError("velocity matrix must be symmetric")
    lams, vecs = np.linalg.eigh(a)  # ascending
    lead = np.argmax(np.abs(vecs) > SIGN_CONVENTION_EPS, axis=0)
    vecs[:, vecs[lead, np.arange(lams.size)] < 0.0] *= -1.0
    return EigenStructure(lambdas=lams, p=int(np.sum(lams < 0.0)), basis=vecs)


def _as_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = _as_matrix(a, "velocity matrix")
    b = _as_matrix(b, "damping matrix")
    if b.shape != a.shape:
        raise ValueError(f"damping matrix: expected shape {a.shape}, got {b.shape}")
    return a, b


def coupling_check_eigvec(a, b, eigs: EigenStructure | None = None) -> bool:
    """Coupling via eigenvector screening: every transport eigenvector must
    be moved by the damping matrix ``b``."""
    a, b = _as_pair(a, b)
    if eigs is None:
        eigs = diagonalize(a)
    tol = COUPLING_KERNEL_RTOL * max(1.0, float(np.linalg.norm(b)))
    for k in range(eigs.n):
        if np.linalg.norm(b @ eigs.basis[:, k]) <= tol:
            return False
    return True


def coupling_check_rank(a, b) -> bool:
    """Coupling via the stacked reachability block [B; BA; ...; BA^(n-1)]:
    holds iff that stack has full column rank."""
    a, b = _as_pair(a, b)
    n = a.shape[0]
    blocks = []
    cur = b.copy()
    for _ in range(n):
        blocks.append(cur)
        cur = cur @ a
    stack = np.vstack(blocks)
    return _rank(stack) == n


def _rank(m: np.ndarray) -> int:
    """Row-elimination rank with pivots measured against the matrix scale."""
    work = m.astype(float).copy()
    rows, cols = work.shape
    scale = float(np.abs(work).max())
    if scale == 0.0:
        return 0
    tol = RANK_PIVOT_RTOL * scale
    rank = 0
    for col in range(cols):
        if rank >= rows:
            break
        pivot_row = rank + int(np.argmax(np.abs(work[rank:, col])))
        pivot = work[pivot_row, col]
        if abs(pivot) <= tol:
            continue
        work[[rank, pivot_row]] = work[[pivot_row, rank]]
        work[rank] /= pivot
        below = work[rank + 1:, col].copy()
        work[rank + 1:] -= np.outer(below, work[rank])
        rank += 1
    return rank


def source_matrix(sys: HyperbolicSystem, eigs: EigenStructure | None = None) -> np.ndarray:
    """Damping expressed in the transport eigenbasis: basis^T @ B @ basis.

    This is the zero-order term the decoupled formulation evolves under;
    its trace equals the trace of the damped block.
    """
    if eigs is None:
        eigs = diagonalize(sys.a)
    return eigs.basis.T @ sys.b @ eigs.basis


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the admissibility checks, one entry per condition."""

    checks: tuple[CheckResult, ...]
    eigs: EigenStructure | None
    coercivity: float

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def validate_system(sys: HyperbolicSystem) -> ValidationReport:
    """Run the full admissibility battery.

    Checks, in order: velocity symmetry, distinct speeds, no standing
    component, coercive damping, and the coupling condition by both routes.
    Eigen-dependent checks are reported unevaluated when symmetry fails.
    """
    checks: list[CheckResult] = []
    a = sys.a

    symmetric = _is_symmetric(a)
    checks.append(
        CheckResult(
            "velocity_symmetric",
            symmetric,
            "max |a - a^T| within 1e-12 of scale" if symmetric else "velocity matrix is not symmetric",
        )
    )

    coercivity = sys.coercivity
    coercive = coercivity > 0.0
    checks.append(
        CheckResult(
            "damping_coercive",
            coercive,
            f"damped-block coercivity {coercivity:.6g}",
        )
    )

    eigs: EigenStructure | None = None
    if symmetric:
        eigs = diagonalize(a)
        lam = eigs.lambdas
        scale = max(1.0, float(np.abs(lam).max()))
        gaps = np.diff(lam)
        distinct = bool(gaps.size == 0 or gaps.min() > EIGEN_GAP_RTOL * scale)
        checks.append(
            CheckResult(
                "speeds_distinct",
                distinct,
                f"min speed gap {gaps.min():.6g}" if gaps.size else "single speed",
            )
        )
        nonzero = bool(np.abs(lam).min() > ZERO_SPEED_RTOL * scale)
        checks.append(
            CheckResult(
                "speeds_nonzero",
                nonzero,
                f"min |speed| {np.abs(lam).min():.6g}",
            )
        )
        b = sys.b
        via_eigvec = coupling_check_eigvec(a, b, eigs)
        via_rank = coupling_check_rank(a, b)
        checks.append(
            CheckResult(
                "coupling_eigvec",
                via_eigvec,
                "no transport eigenvector in the damping kernel"
                if via_eigvec
                else "a transport eigenvector lies in the damping kernel",
            )
        )
        checks.append(
            CheckResult(
                "coupling_rank",
                via_rank,
                "reachability stack has full rank"
                if via_rank
                else "reachability stack is rank deficient",
            )
        )
    else:
        for name in ("speeds_distinct", "speeds_nonzero", "coupling_eigvec", "coupling_rank"):
            checks.append(CheckResult(name, False, "not evaluated: velocity matrix not symmetric"))

    return ValidationReport(checks=tuple(checks), eigs=eigs, coercivity=coercivity)
