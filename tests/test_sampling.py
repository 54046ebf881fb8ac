import numpy as np
import pytest
from scipy import stats

from wignerlab.kernels import two_block_spectrum
from wignerlab.montecarlo import estimate_global, wilson_interval
from wignerlab.sampling import (
    gamma_batch,
    ginibre_batch,
    haar_batch,
    haar_unitary,
    hs_state,
    row_energies_batch,
    sample_ginibre,
    wigner_value,
)


def _intervals_overlap(a, b):
    return a[0] <= b[1] and b[0] <= a[1]


class TestGinibre:
    def test_repeatable_under_seed(self):
        z1 = sample_ginibre(3, np.random.default_rng(5))
        z2 = sample_ginibre(3, np.random.default_rng(5))
        assert np.array_equal(z1, z2)

    def test_batch_of_one_matches_single_draw(self):
        """The batch variant consumes the stream exactly like repeated single
        draws, so a batch of one is bit-identical to one draw."""
        single = sample_ginibre(4, np.random.default_rng(12))
        batch = ginibre_batch(1, 4, np.random.default_rng(12))[0]
        assert np.array_equal(single, batch)

    def test_component_moments(self):
        z = ginibre_batch(10**5, 2, np.random.default_rng(1))
        re11 = z[:, 0, 0].real
        assert abs(re11.mean()) < 0.01
        assert abs(re11.var(ddof=1) - 1.0) < 0.02

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            sample_ginibre(0, np.random.default_rng(0))

    @pytest.mark.parametrize("draw", [sample_ginibre, haar_unitary])
    @pytest.mark.parametrize("n", [2.5, True])
    def test_rejects_non_integral_dimension(self, draw, n):
        with pytest.raises(ValueError, match="N must be"):
            draw(n, np.random.default_rng(0))


class TestHsState:
    def test_identity_input(self):
        rho = hs_state(np.eye(2))
        assert rho == pytest.approx(np.diag([0.5, 0.5]))

    def test_diagonal_input(self):
        rho = hs_state(np.diag([1.0, 2.0]))
        assert rho == pytest.approx(np.diag([0.2, 0.8]))

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            hs_state(np.zeros((3, 3)))

    @pytest.mark.parametrize("fill", [np.nan, np.inf])
    def test_non_finite_trace_rejected(self, fill):
        with pytest.raises(ValueError, match="cannot normalize"):
            hs_state(np.full((2, 2), fill))

    @pytest.mark.parametrize("n", [2, 4, 8, 32])
    def test_invariants_on_random_draws(self, n):
        rng = np.random.default_rng(n)
        for _ in range(1000):
            rho = hs_state(sample_ginibre(n, rng))
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.abs(rho - rho.conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(rho).min() >= -1e-10


class TestRowEnergies:
    def test_n1_is_exponential_mean_two(self):
        e = row_energies_batch(10**5, 1, np.random.default_rng(4))
        assert abs(e.mean() - 2.0) < 0.02

    def test_gamma_moments_n8(self):
        e = row_energies_batch(10**5, 8, np.random.default_rng(2))
        assert np.abs(e.mean(axis=0) - 16.0).max() < 0.15
        assert abs(e.var(ddof=1) - 32.0) < 0.96

    @pytest.mark.parametrize("n", [2, 7, 64])
    def test_equal_shapes_halve_row_energies(self, n):
        """N blocks of shape N draw exactly the row energies over 2, so the
        fast path keeps the streams of kernels with all-distinct eigenvalues."""
        g = gamma_batch(1000, np.full(n, float(n)), np.random.default_rng(n))
        assert np.array_equal(2.0 * g, row_energies_batch(1000, n, np.random.default_rng(n)))

    def test_block_shapes_by_column(self):
        g = gamma_batch(10**5, np.array([3.0, 12.0]), np.random.default_rng(8))
        assert g.shape == (10**5, 2)
        assert np.abs(g.mean(axis=0) - [3.0, 12.0]).max() < 0.1

    def test_sign_law_matches_full_construction(self):
        """The fast path draws the state's diagonal reduction directly; its
        negativity frequency must match Wigner values computed from actual
        Hilbert-Schmidt samples (two 1e5-sample runs, overlapping 3-sigma
        Wilson intervals).  The states are left unnormalized: a positive
        trace does not change the sign."""
        spec = two_block_spectrum(2, 1)
        fast = estimate_global(spec, 10**5, 5, z=3.0)
        z = ginibre_batch(10**5, 2, np.random.default_rng(6))
        states = z.conj().swapaxes(-1, -2) @ z
        negatives = int(np.count_nonzero(wigner_value(states, spec, np.eye(2)) < 0))
        full_band = wilson_interval(negatives, 10**5, 3.0)
        assert _intervals_overlap((fast.ci_low, fast.ci_high), full_band)


class TestHaar:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 21])
    def test_unitarity(self, n):
        u = haar_unitary(n, np.random.default_rng(n + 100))
        assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-10

    def test_n1_is_a_phase(self):
        u = haar_unitary(1, np.random.default_rng(9))
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_batch_matches_single(self):
        single = haar_unitary(3, np.random.default_rng(14))
        batch = haar_batch(1, 3, np.random.default_rng(14))[0]
        assert np.array_equal(single, batch)

    def test_overlap_uniform_at_n2(self):
        # |U_11|^2 for Haar at N=2 is uniform on [0,1]
        u = haar_batch(10**5, 2, np.random.default_rng(3))
        c = np.abs(u[:, 0, 0]) ** 2
        assert stats.kstest(c, "uniform").pvalue > 0.001


class TestWignerValue:
    def test_maximally_mixed_is_inverse_dimension(self):
        spec = two_block_spectrum(4, 2)
        u = haar_unitary(4, np.random.default_rng(2))
        w = wigner_value(np.eye(4) / 4, spec, u)
        assert w == pytest.approx(0.25, abs=1e-12)

    def test_basis_state_at_identity_picks_top_eigenvalue(self):
        spec = two_block_spectrum(2, 1)
        rho = np.diag([1.0, 0.0]).astype(complex)
        w = wigner_value(rho, spec, np.eye(2))
        assert w == pytest.approx(1.3660254037844386, abs=1e-13)

    def test_covariance_under_conjugation(self):
        """Rotating both the state and the phase-space point by the same
        unitary leaves the symbol unchanged."""
        rng = np.random.default_rng(7)
        spec = two_block_spectrum(3, 1)
        rho = hs_state(sample_ginibre(3, rng))
        u = haar_unitary(3, rng)
        g = haar_unitary(3, rng)
        w1 = wigner_value(rho, spec, u)
        w2 = wigner_value(g @ rho @ g.conj().T, spec, g @ u)
        assert w1 == pytest.approx(w2, abs=1e-10)

    def test_stacks_broadcast(self):
        """Stacks of states and of points broadcast to the traces tr(rho U P U^dagger)."""
        rng = np.random.default_rng(12)
        spec = two_block_spectrum(3, 1)
        states = np.stack([hs_state(sample_ginibre(3, rng)) for _ in range(4)])
        points = haar_batch(5, 3, rng)
        p = np.diag(spec.expanded())
        traces = np.array([[np.trace(r @ u @ p @ u.conj().T).real for u in points] for r in states])
        assert wigner_value(states[:, None], spec, points).shape == (4, 5)
        assert np.allclose(wigner_value(states[:, None], spec, points), traces, atol=1e-12)
        assert np.allclose(wigner_value(states[0], spec, points), traces[0], atol=1e-12)
        assert np.allclose(wigner_value(states, spec, points[0]), traces[:, 0], atol=1e-12)
        assert type(wigner_value(states[0], spec, points[0])) is float

    def test_dimension_mismatch(self):
        spec = two_block_spectrum(3, 1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            wigner_value(np.eye(2) / 2, spec, np.eye(3))

    def test_imaginary_residue_flagged(self):
        spec = two_block_spectrum(2, 1)
        skew = np.array([[0.5, 1j], [-1j * 0.999, 0.5]])  # not Hermitian
        u = haar_unitary(2, np.random.default_rng(11))
        with pytest.raises(ValueError, match="imaginary"):
            wigner_value(skew, spec, u)
