"""System definitions and admissibility checks for partially damped transport.

A system couples a symmetric velocity matrix A with a damping matrix B
acting only on the trailing block of components.  Admissibility is:
symmetry, distinct nonzero propagation speeds, a coercive damped block, and
the coupling condition (no transport eigenvector hides inside the damping
kernel).  The coupling condition is computed by two independent routes,
eigenvector screening and a reachability-style rank test, which must agree;
both take the system, and screening reads its cached eigenstructure.
Every tolerance is relative to the largest entry or speed, so no verdict
depends on the units of ``a`` or of the damping.
Eigendecompositions come from numpy's symmetric eigensolver (``eigh``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

SYMMETRY_RTOL = 1e-12
EIGEN_GAP_RTOL = 1e-9
ZERO_SPEED_RTOL = 1e-9
COUPLING_KERNEL_RTOL = 1e-10
RANK_RTOL = 1e-10
SIGN_CONVENTION_EPS = 1e-12


def _as_matrix(m, name: str) -> np.ndarray:
    try:
        arr = np.array(m, dtype=float)
    except (TypeError, ValueError):
        # name the first row that is not a list or not as long as row 0
        rows = m if isinstance(m, (list, tuple)) else ()
        for i, row in enumerate(rows):
            if not isinstance(row, (list, tuple, np.ndarray)):
                raise ValueError(f"{name}[{i}]: expected a list of numbers") from None
            if len(row) != len(rows[0]):
                got = f"expected length {len(rows[0])} as in row 0, got {len(row)}"
                raise ValueError(f"{name}[{i}]: {got}") from None
        raise ValueError(f"{name}: expected a matrix of numbers") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name}: expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: entries must be finite")
    return arr


def _unit_scaled(m: np.ndarray) -> np.ndarray:
    """``m`` divided by its largest entry magnitude, so that a relative
    tolerance reads the same in any units; a zero matrix stays zero."""
    scale = float(np.abs(m).max())
    return m / scale if scale > 0.0 else m


def _is_symmetric(a: np.ndarray) -> bool:
    a = _unit_scaled(a)
    return bool(np.abs(a - a.T).max() <= SYMMETRY_RTOL)


@dataclass(frozen=True)
class HyperbolicSystem:
    """Velocity matrix plus a damping block on the last ``n - n1`` components.

    ``a`` is the n-by-n velocity matrix, ``n1`` counts the leading undamped
    components, and ``dd`` is the damping acting on the rest.  ``dd`` need
    not be symmetric; its coercivity is measured through the symmetric part.
    A rejected value raises ``ValueError`` naming the field (``n1: ...``);
    the scenario loader puts the field's path in front.
    """

    a: np.ndarray
    n1: int
    dd: np.ndarray

    def __post_init__(self) -> None:
        a = _as_matrix(self.a, "a")
        dd = _as_matrix(self.dd, "dd")
        n = a.shape[0]
        n1 = int(self.n1)
        if not 0 <= n1 < n:
            raise ValueError(f"n1: need 0 <= n1 < {n}, got {n1}")
        if dd.shape[0] != n - n1:
            raise ValueError(
                f"dd: expected shape ({n - n1}, {n - n1}), got {dd.shape}"
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

    @functools.cached_property
    def eigs(self) -> "EigenStructure":
        """``diagonalize(a)``, computed on first read; ``a`` is read-only,
        so it cannot go stale.  An asymmetric ``a`` raises ``ValueError``."""
        return diagonalize(self.a)


@dataclass(frozen=True)
class EigenStructure:
    """Ascending speeds and the orthogonal change of basis."""

    lambdas: np.ndarray
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

    @property
    def n(self) -> int:
        return self.lambdas.size

    @property
    def p(self) -> int:
        """The count of leftward movers."""
        return int(np.sum(self.lambdas < 0.0))


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
    return EigenStructure(lambdas=lams, basis=vecs)


def coupling_check_eigvec(sys: HyperbolicSystem) -> bool:
    """Coupling via eigenvector screening: every transport eigenvector,
    a column of ``sys.eigs.basis``, must be moved by the damping ``sys.b``
    by more than ``COUPLING_KERNEL_RTOL`` times its Frobenius norm."""
    b = _unit_scaled(sys.b)
    tol = COUPLING_KERNEL_RTOL * float(np.linalg.norm(b))
    return all(np.linalg.norm(b @ v) > tol for v in sys.eigs.basis.T)


def coupling_check_rank(sys: HyperbolicSystem) -> bool:
    """Coupling via the stacked reachability block [B; BA; ...; BA^(n-1)]:
    holds iff that stack has full column rank.  Singular values up to
    ``RANK_RTOL`` times the largest entry count as zero."""
    a, b = _unit_scaled(sys.a), _unit_scaled(sys.b)
    blocks = [b]
    for _ in range(sys.n - 1):
        blocks.append(blocks[-1] @ a)
    stack = np.vstack(blocks)
    tol = RANK_RTOL * float(np.abs(stack).max())
    return int(np.linalg.matrix_rank(stack, tol=tol)) == sys.n


def source_matrix(sys: HyperbolicSystem, eigs: EigenStructure | None = None) -> np.ndarray:
    """Damping expressed in the transport eigenbasis: basis^T @ B @ basis,
    with ``sys.eigs`` unless another ``eigs`` is given.

    This is the zero-order term the decoupled formulation evolves under;
    its trace equals the trace of the damped block.
    """
    basis = (sys.eigs if eigs is None else eigs).basis
    return basis.T @ sys.b @ basis


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
    symmetric = _is_symmetric(sys.a)
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
        eigs = sys.eigs
        lam = eigs.lambdas
        scale = float(np.abs(lam).max())
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
        via_eigvec = coupling_check_eigvec(sys)
        via_rank = coupling_check_rank(sys)
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
