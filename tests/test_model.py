"""System construction, diagonalisation (checked through its residual,
orthogonality and sign convention, which hold whatever the eigensolver),
coercivity, and the two coupling-condition routes."""

import numpy as np
import pytest
from helpers import damped_wave_system, random_valid_system, three_speed_system

from locdamp.model import (
    HyperbolicSystem,
    diagonalize,
    coupling_check_eigvec,
    coupling_check_rank,
    source_matrix,
    validate_system,
)


class TestConstruction:
    def test_shape_checks(self):
        with pytest.raises(ValueError, match="square"):
            HyperbolicSystem(a=np.zeros((2, 3)), n1=1, dd=np.eye(1))
        with pytest.raises(ValueError, match="n1"):
            HyperbolicSystem(a=np.eye(2), n1=2, dd=np.eye(1))
        with pytest.raises(ValueError, match="n1"):
            HyperbolicSystem(a=np.eye(2), n1=-1, dd=np.eye(1))
        with pytest.raises(ValueError, match="dd"):
            HyperbolicSystem(a=np.eye(3), n1=1, dd=np.eye(1))

    def test_finite_entries_required(self):
        with pytest.raises(ValueError, match="finite"):
            HyperbolicSystem(a=np.array([[np.nan, 0.0], [0.0, 1.0]]), n1=1, dd=np.eye(1))

    def test_arrays_frozen(self):
        sys = damped_wave_system()
        with pytest.raises(ValueError):
            sys.a[0, 0] = 5.0

    def test_eigs_read_once_from_a(self, monkeypatch):
        calls = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(1) or real(m))
        sys = three_speed_system()
        first = sys.eigs
        assert sys.eigs is first and len(calls) == 1
        ref = diagonalize(sys.a)
        assert np.array_equal(first.lambdas, ref.lambdas)
        assert np.array_equal(first.basis, ref.basis)

    def test_eigs_of_asymmetric_a_refused(self):
        sys = HyperbolicSystem(a=[[0.0, 1.0], [0.0, 0.0]], n1=1, dd=np.eye(1))
        with pytest.raises(ValueError, match="symmetric"):
            sys.eigs
        assert not validate_system(sys).ok

    def test_full_damping_layout(self):
        sys = damped_wave_system()
        b = sys.b
        assert b.shape == (2, 2)
        assert b[0, 0] == 0.0 and b[0, 1] == 0.0 and b[1, 0] == 0.0
        assert b[1, 1] == 1.0


class TestDiagonalize:
    def test_antidiagonal_pair(self):
        eigs = diagonalize([[0.0, 1.0], [1.0, 0.0]])
        assert eigs.lambdas == pytest.approx([-1.0, 1.0], abs=1e-13)
        assert eigs.p == 1
        s = 1.0 / np.sqrt(2.0)
        assert eigs.basis[:, 0] == pytest.approx([s, -s], abs=1e-13)
        assert eigs.basis[:, 1] == pytest.approx([s, s], abs=1e-13)

    def test_constant_offdiagonal(self):
        eigs = diagonalize([[1.0, 2.0], [2.0, 1.0]])
        assert eigs.lambdas == pytest.approx([-1.0, 3.0], abs=1e-13)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            diagonalize([[0.0, 1.0], [0.0, 0.0]])

    def test_matches_numpy_eigensolver(self):
        rng = np.random.default_rng(41)
        cases = []
        for n in [*(int(k) for k in rng.integers(2, 7, size=25)), 17, 40]:
            m = rng.standard_normal((n, n))
            cases.append(0.5 * (m + m.T))
        # two speeds 1e-8 apart, in a random orthogonal basis
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        cases.append(q @ np.diag([-2.0, 1.0, 1.0 + 1e-8, 3.0]) @ q.T)
        for a in cases:
            n = a.shape[0]
            eigs = diagonalize(a)
            assert np.all(np.diff(eigs.lambdas) > 0.0)
            scale = max(1.0, np.abs(eigs.lambdas).max())
            assert eigs.lambdas == pytest.approx(
                np.linalg.eigvalsh(a), abs=1e-10 * scale
            )
            q = eigs.basis
            assert np.abs(q.T @ q - np.eye(n)).max() < 1e-12
            assert np.abs(a @ q - q * eigs.lambdas).max() < 1e-9 * scale
            assert eigs.p == int(np.sum(eigs.lambdas < 0))

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            m = rng.standard_normal((n, n))
            a = 0.5 * (m + m.T)
            basis = diagonalize(a).basis
            for k in range(n):
                col = basis[:, k]
                lead = np.flatnonzero(np.abs(col) > 1e-12)
                assert col[lead[0]] > 0.0

    def test_diagonal_matrix_gives_its_speeds_sorted(self):
        eigs = diagonalize(np.diag([3.0, -1.0, 2.0]))
        assert np.array_equal(eigs.lambdas, [-1.0, 2.0, 3.0])
        assert eigs.p == 1
        assert np.array_equal(eigs.basis, np.eye(3)[:, [1, 2, 0]])


class TestCoercivity:
    def test_unit_block(self):
        assert damped_wave_system().coercivity == pytest.approx(1.0, abs=1e-13)

    def test_nonsymmetric_block_uses_symmetric_part(self):
        sys = HyperbolicSystem(
            a=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) + np.diag([0.1, 0.2, 0.3]),
            n1=1,
            dd=np.array([[2.0, 1.0], [0.0, 3.0]]),
        )
        assert sys.coercivity == pytest.approx(2.5 - np.sqrt(0.5), rel=1e-12)

    def test_negative_block_reported(self):
        sys = HyperbolicSystem(a=np.diag([1.0, 2.0]), n1=1, dd=[[-1.0]])
        assert sys.coercivity == pytest.approx(-1.0, abs=1e-13)


class TestCouplingCondition:
    def test_zero_damping_fails(self):
        damping = np.zeros((2, 2))
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert not coupling_check_eigvec(a, damping)
        assert not coupling_check_rank(a, damping)

    def test_decoupled_diagonal_fails(self):
        damping = np.diag([0.0, 1.0])
        a = np.diag([1.0, 2.0])
        assert not coupling_check_eigvec(a, damping)
        assert not coupling_check_rank(a, damping)

    def test_full_damping_passes(self):
        damping = np.eye(2)
        a = np.diag([1.0, 2.0])
        assert coupling_check_eigvec(a, damping)
        assert coupling_check_rank(a, damping)

    def test_damped_wave_passes(self):
        sys = damped_wave_system()
        assert coupling_check_eigvec(sys.a, sys.b)
        assert coupling_check_rank(sys.a, sys.b)

    @pytest.mark.parametrize("check", [coupling_check_eigvec, coupling_check_rank])
    @pytest.mark.parametrize(
        "b, message",
        [
            (np.zeros((2, 3)), "square"),
            (np.array([[np.inf, 0.0], [0.0, 1.0]]), "finite"),
            (np.eye(3), "shape"),
        ],
        ids=["non-square", "non-finite", "wrong-shape"],
    )
    def test_bad_damping_rejected(self, check, b, message):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match=message):
            check(a, b)

    def test_routes_agree_on_random_corpus(self):
        rng = np.random.default_rng(47)
        for i in range(60):
            uncoupled = i % 2 == 1
            sys = random_valid_system(rng, uncoupled=uncoupled)
            damping = sys.b
            via_vec = coupling_check_eigvec(sys.a, damping)
            via_rank = coupling_check_rank(sys.a, damping)
            assert via_vec == via_rank
            if uncoupled:
                assert not via_vec


class TestSourceMatrix:
    def test_damped_wave_value(self):
        m = source_matrix(damped_wave_system())
        assert m == pytest.approx(np.array([[0.5, -0.5], [-0.5, 0.5]]), abs=1e-13)

    def test_sign_flip_conjugation(self):
        # flipping the second basis vector turns the off-diagonal positive
        m = source_matrix(damped_wave_system())
        ds = np.diag([1.0, -1.0])
        assert ds @ m @ ds == pytest.approx(
            np.array([[0.5, 0.5], [0.5, 0.5]]), abs=1e-13
        )

    def test_trace_and_spectrum_preserved(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            sys = random_valid_system(rng)
            b = sys.b
            m = source_matrix(sys)
            assert np.trace(m) == pytest.approx(np.trace(b), rel=1e-10, abs=1e-10)
            if np.abs(b - b.T).max() < 1e-12:
                assert np.linalg.eigvalsh(m) == pytest.approx(
                    np.linalg.eigvalsh(b), abs=1e-9
                )

    def test_three_speed_diagonal_entries(self):
        # damping of each characteristic equals its projection onto the
        # damped components: 5/9, 5/9, 8/9 for the reference basis
        m = source_matrix(three_speed_system())
        assert np.diag(m) == pytest.approx([5.0 / 9, 5.0 / 9, 8.0 / 9], abs=1e-12)


class TestValidation:
    def test_damped_wave_all_pass(self):
        rep = validate_system(damped_wave_system())
        assert rep.ok
        assert len(rep.checks) == 6
        assert all(c.passed for c in rep.checks)
        assert rep.coercivity == pytest.approx(1.0)
        assert rep.eigs is not None

    def test_repeated_speed_rejected(self):
        rep = validate_system(HyperbolicSystem(a=np.eye(2), n1=1, dd=np.eye(1)))
        assert not rep.ok
        failed = {c.name for c in rep.checks if not c.passed}
        # the coupling checks also fail here: every vector is an eigenvector
        # of the identity, including those in the damping kernel
        assert "speeds_distinct" in failed
        assert "damping_coercive" not in failed
        assert "speeds_nonzero" not in failed

    def test_zero_speed_rejected(self):
        rep = validate_system(
            HyperbolicSystem(a=np.diag([0.0, 1.0]), n1=1, dd=np.eye(1))
        )
        assert not rep.ok
        failed = {c.name for c in rep.checks if not c.passed}
        assert "speeds_nonzero" in failed
        assert "speeds_distinct" not in failed

    def test_nonsymmetric_short_circuits(self):
        rep = validate_system(
            HyperbolicSystem(a=np.array([[0.0, 1.0], [0.0, 0.0]]), n1=1, dd=np.eye(1))
        )
        assert not rep.ok
        assert rep.eigs is None
        by_name = {c.name: c for c in rep.checks}
        assert not by_name["velocity_symmetric"].passed
        assert "not evaluated" in by_name["coupling_rank"].detail

    def test_noncoercive_damping_flagged(self):
        rep = validate_system(
            HyperbolicSystem(
                a=np.array([[0.0, 1.0], [1.0, 0.0]]), n1=1, dd=np.array([[-0.5]])
            )
        )
        assert not rep.ok
        by_name = {c.name: c for c in rep.checks}
        assert not by_name["damping_coercive"].passed
        assert rep.coercivity == pytest.approx(-0.5)

    def test_decoupled_system_fails_both_coupling_routes(self):
        rep = validate_system(
            HyperbolicSystem(a=np.diag([1.0, 2.0]), n1=1, dd=np.eye(1))
        )
        by_name = {c.name: c for c in rep.checks}
        assert not by_name["coupling_eigvec"].passed
        assert not by_name["coupling_rank"].passed

    def test_three_speed_system_admissible(self):
        rep = validate_system(three_speed_system())
        assert rep.ok
        assert rep.eigs.lambdas == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)

    @pytest.mark.parametrize("dd", [1e-11, 1e-20, 1e160])
    def test_damping_strength_does_not_decide_admissibility(self, dd):
        # the tolerances are relative to the matrices' own size: a damping
        # constant far from 1 is admissible, and a huge one overflows nothing
        sys = damped_wave_system()
        rep = validate_system(HyperbolicSystem(a=sys.a, n1=sys.n1, dd=np.array([[dd]])))
        assert rep.ok, rep.checks

    def test_slow_speeds_are_nonzero(self):
        sys = three_speed_system()
        rep = validate_system(HyperbolicSystem(a=sys.a * 1e-9, n1=sys.n1, dd=sys.dd))
        assert rep.ok, rep.checks

    def test_verdicts_do_not_depend_on_units(self):
        # scaling a or dd by a power of two scales every tolerance with it
        rng = np.random.default_rng(7)
        for i in range(300):
            sys = random_valid_system(rng, uncoupled=i % 3 == 0)
            base = [c.passed for c in validate_system(sys).checks]
            for k in (-40, 40):
                for sa, sd in ((2.0**k, 1.0), (1.0, 2.0**k)):
                    scaled = HyperbolicSystem(a=sys.a * sa, n1=sys.n1, dd=sys.dd * sd)
                    assert [c.passed for c in validate_system(scaled).checks] == base, (i, k)
