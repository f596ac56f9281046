import numpy as np
import pytest

from itoarb.geometry import (
    ItoCoefficients,
    curvature_spread,
    diag_of,
    kernel_basis,
    range_projections,
    rho,
    zc_residual,
)


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def coeffs(alpha, sigma, r=None, t=0.0):
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if r is None:
        r = np.zeros_like(alpha)
    return ItoCoefficients(alpha, sigma, r, t)


# ---------------------------------------------------------------- diag_of


def test_diag_identity_and_zero():
    assert np.array_equal(diag_of(np.eye(3)), np.ones(3))
    assert np.array_equal(diag_of(np.zeros((4, 4))), np.zeros(4))


def test_diag_shape_error():
    with pytest.raises(ValueError, match="square"):
        diag_of(np.ones((2, 3)))


def test_diag_transformation_law():
    # the basis-change argument establishes a vector transformation law:
    # computing in the rotated basis equals transporting the conjugated diagonal
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = rng.integers(2, 7)
        a = rng.normal(size=(n, n))
        a = a + a.T
        u = random_orthogonal(rng, n)
        lhs = diag_of(a, basis=u)
        rhs = u @ diag_of(u.T @ a @ u)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)
        brute = sum((a @ u[:, j] @ u[:, j]) * u[:, j] for j in range(n))
        np.testing.assert_allclose(lhs, brute, atol=1e-10)


# ---------------------------------------------------------------- projections


def test_projections_degenerate_and_full_rank():
    p_range, p_perp = range_projections(np.zeros((3, 2)))
    np.testing.assert_allclose(p_range, 0.0, atol=1e-14)
    np.testing.assert_allclose(p_perp, np.eye(3), atol=1e-14)
    rng = np.random.default_rng(1)
    sigma = rng.normal(size=(3, 5))
    p_range, p_perp = range_projections(sigma)
    np.testing.assert_allclose(p_range, np.eye(3), atol=1e-10)


def test_projection_algebra():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        k = int(rng.integers(1, n + 1))
        sigma = rng.normal(size=(n, k))
        pr, pp = range_projections(sigma)
        np.testing.assert_allclose(pr + pp, np.eye(n), atol=1e-12)
        np.testing.assert_allclose(pr @ pr, pr, atol=1e-10)
        np.testing.assert_allclose(pp @ pp, pp, atol=1e-10)
        np.testing.assert_allclose(pr, pr.T, atol=1e-12)
        np.testing.assert_allclose(pr @ sigma, sigma, atol=1e-10)


def test_adapted_diagonal_lies_in_range():
    # the diagonal built in a basis adapted to Range(sigma) + complement lies
    # in Range(sigma), so the complementary projection annihilates it
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(1, n + 1))
        sigma = rng.normal(size=(n, k))
        _, pp = range_projections(sigma)
        u, s, _ = np.linalg.svd(sigma, full_matrices=True)
        d = diag_of(sigma @ sigma.T, basis=u)
        assert np.linalg.norm(pp @ d) < 1e-9


def test_standard_diagonal_escapes_range():
    # counterexample documenting why the adapted basis is required
    sigma = np.array([[1.0], [2.0]])
    _, pp = range_projections(sigma)
    assert np.linalg.norm(pp @ diag_of(sigma @ sigma.T)) > 0.5


# ---------------------------------------------------------------- kernel basis


def test_kernel_basis_simple():
    kb = kernel_basis(np.array([[1.0], [0.0]]))
    assert kb.B == 1
    np.testing.assert_allclose(np.abs(kb.J[:, 0]), [0.0, 1.0], atol=1e-12)


def test_kernel_basis_full_rank_empty():
    rng = np.random.default_rng(4)
    kb = kernel_basis(rng.normal(size=(4, 4)))
    assert kb.B == 0
    assert kb.J.shape == (4, 0)


def test_kernel_basis_two_asset_formula():
    s, t = 0.2, 0.1
    kb = kernel_basis(np.array([[s], [t]]))
    expected = np.array([-t, s]) / np.hypot(s, t)
    assert min(
        np.linalg.norm(kb.J[:, 0] - expected), np.linalg.norm(kb.J[:, 0] + expected)
    ) < 1e-12


def test_kernel_basis_properties_and_sign():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        k = int(rng.integers(1, 5))
        sigma = rng.normal(size=(n, k))
        kb = kernel_basis(sigma)
        assert kb.B == n - np.linalg.matrix_rank(sigma)
        if kb.B:
            np.testing.assert_allclose(kb.J.T @ kb.J, np.eye(kb.B), atol=1e-10)
            np.testing.assert_allclose(sigma.T @ kb.J, 0.0, atol=1e-10)
            for col in kb.J.T:
                nz = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
                assert col[nz[0]] > 0


# ---------------------------------------------------------------- rho / residual


def test_rho_zero_when_in_range():
    rng = np.random.default_rng(6)
    sigma = rng.normal(size=(4, 2))
    lam = rng.normal(size=2)
    r = rng.normal(size=4) * 0.01
    c = coeffs(sigma @ lam - r, sigma, r)
    np.testing.assert_allclose(rho(c), 0.0, atol=1e-12)
    assert zc_residual(c) < 1e-12


def test_rho_zero_inputs():
    c = coeffs([0.0, 0.0], np.array([[0.3], [0.1]]))
    np.testing.assert_allclose(rho(c), 0.0, atol=1e-15)


def test_rho_hand_value():
    # |rho| = |(-0.1, 0.2) . (0.05, 0.05)| / sqrt(0.05)
    c = coeffs([0.05, 0.05], np.array([[0.2], [0.1]]))
    assert abs(rho(c)[0]) == pytest.approx(0.0223606797749979, abs=1e-12)
    assert zc_residual(c) == pytest.approx(0.0223606797749979, abs=1e-12)


def test_single_asset_always_zero_residual():
    rng = np.random.default_rng(7)
    for _ in range(10):
        c = coeffs(rng.normal(size=1), rng.normal(size=(1, 3)), rng.normal(size=1))
        assert zc_residual(c) < 1e-12


def test_residual_equals_rho_norm():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        k = int(rng.integers(1, 6))
        c = coeffs(
            rng.normal(size=n), rng.normal(size=(n, k)), rng.normal(size=n) * 0.1
        )
        assert abs(np.linalg.norm(rho(c)) - zc_residual(c)) < 1e-10


# ---------------------------------------------------------------- spread


def aligned_zc_model(rng, n, k):
    """Volatility with identical rows: the no-arbitrage condition and the
    pathwise spread diagnostic are exactly equivalent on this family."""
    c_row = rng.normal(size=k)
    sigma = np.tile(c_row, (n, 1))
    lam = rng.normal(size=k)
    r = rng.uniform(0.0, 0.05, size=n)
    alpha = sigma @ lam - r + 0.5 * diag_of(sigma @ sigma.T)
    return coeffs(alpha, sigma, r)


def test_spread_single_asset_and_identical():
    c = coeffs([0.1], np.array([[0.2]]))
    np.testing.assert_allclose(curvature_spread(c, np.zeros(1), 1.0), [0.0])
    c2 = coeffs([0.1, 0.1], np.array([[0.2], [0.2]]), [0.01, 0.01])
    rng = np.random.default_rng(9)
    for _ in range(5):
        s = curvature_spread(c2, rng.normal(size=1), 0.7)
        np.testing.assert_allclose(s, 0.0, atol=1e-14)


def test_spread_zero_iff_zc_on_constructed_families():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 4))
        zc = aligned_zc_model(rng, n, k)
        assert zc_residual(zc) < 1e-10
        for _ in range(10):
            w = rng.normal(size=k)
            t = rng.uniform(0.05, 2.0)
            assert np.linalg.norm(curvature_spread(zc, w, t)) < 1e-10
        # plant a component outside the volatility range
        kb = kernel_basis(zc.sigma)
        assert kb.B == n - 1
        bump = 0.02 * kb.J[:, 0]
        bad = ItoCoefficients(zc.alpha + bump, zc.sigma, zc.r)
        assert zc_residual(bad) == pytest.approx(0.02, abs=1e-12)
        for _ in range(10):
            w = rng.normal(size=k)
            t = rng.uniform(0.05, 2.0)
            assert np.linalg.norm(curvature_spread(bad, w, t)) > 0.9 * 0.02


def test_spread_time_guard():
    c = coeffs([0.1, 0.2], np.array([[0.2], [0.1]]))
    with pytest.raises(ValueError, match="t_min"):
        curvature_spread(c, np.zeros(1), 0.0)
    with pytest.raises(ValueError, match="t_min"):
        curvature_spread(c, np.zeros(1), 1e-9)


# ---------------------------------------------------------------- misc


def test_coefficients_validation():
    with pytest.raises(ValueError):
        ItoCoefficients(np.array([0.1]), np.array([[0.2]]), np.array([np.inf]))
    with pytest.raises(ValueError, match="length N"):
        ItoCoefficients(np.array([0.1, 0.2]), np.array([[0.2]]), np.array([0.0]))

