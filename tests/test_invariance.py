"""Observables sharing an eigenvector, complement rotations, and the
independence scans, each drawn row by row from its own stream.

The observable scan never forms an eigenbasis.  The Householder construction
here forms the drawn eigenbases explicitly from the same complex Gaussian
rows, and TestFactoredDraws checks that they give the scan's moduli."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import invariance
from bornlab.invariance import (
    MIN_DRAWS,
    complement_rotation,
    match_eigenvector,
    observable_independence_scan,
    observable_with_eigenstate,
    unobserved_independence_scan,
)
from bornlab.linalg import complete_basis, haar_array, unitary_defect
from bornlab.quantum import (
    ModulusVector,
    Observable,
    StateVector,
    haar_state,
    moduli,
    spin1_observables,
)
from bornlab.rules import Affine, Born, Power, Renormalized, rule_probabilities
from bornlab.streams import substream
from bornlab.tolerances import TOL


def spread(report: invariance.InvarianceReport) -> float:
    return report.as_dict()["spread"]


def listed_first(point: ModulusVector, k: int) -> ModulusVector:
    """The point with a_k moved to the front and the other moduli in order."""
    return ModulusVector(np.concatenate([point.moduli[k : k + 1], np.delete(point.moduli, k)]))


def householder_vectors(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Unit Householder vectors w (n, d - 1) that reflect the unit tail c/|c| to -e t/|t|,
    one per Ginibre row of t (n, d - 1), e the phase of t^dag tail.

    The reflection I - 2ww^dag of the complement coordinates c leaves c's norm
    and sends its direction to a uniform point of the sphere, as a Haar
    rotation would.  c = 0 (psi along phi) has no direction; the first unit
    vector stands in, since every reflection leaves c = 0 at 0.
    """
    norm = np.linalg.norm(c)
    tail = c / norm if norm > 0.0 else np.eye(c.size)[0]
    t = t / np.linalg.norm(t, axis=1, keepdims=True)
    phase = np.exp(1j * np.angle(np.conj(t) @ tail))  # angle(0) = 0: phase 1
    w = tail + phase[:, None] * t  # |w|^2 = 2 + 2|t^dag tail| >= 2: no cancellation
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def eigenbases(basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The eigenbases [phi | B'(I - 2 w w^dag)] (n, d, d) of the Householder vectors w
    (n, d - 1), B' = basis[:, 1:]: the explicit reference for the scan."""
    vectors = np.repeat(basis[None], len(w), axis=0)
    vectors[:, :, 1:] -= 2.0 * (w @ basis[:, 1:].T)[:, :, None] * np.conj(w)[:, None, :]
    return vectors


def complex_gaussian(rng, n: int, m: int) -> np.ndarray:
    """n complex standard Gaussian rows (n, m) as the observable scan draws them: (2, m)
    pairs in turn, each row's real parts then its imaginary parts."""
    pairs = rng.standard_normal((n, 2, m))
    return pairs[:, 0] + 1j * pairs[:, 1]


def draw_observables(phi: StateVector, n: int, rng, psi: StateVector | None = None):
    """The basis completed from phi and n eigenbases (n, d, d) of observables sharing phi,
    reflected about psi's complement coordinates, or those of a Haar state drawn from rng first."""
    basis = complete_basis(phi.amplitudes)
    c = (psi or haar_state(phi.dim, rng)).amplitudes @ np.conj(basis[:, 1:])
    return basis, eigenbases(basis, householder_vectors(c, complex_gaussian(rng, n, phi.dim - 1)))


class TestComplementRotation:
    def test_degenerate_radius_is_fixed_point(self):
        point = ModulusVector(np.array([1.0, 0.0, 0.0]))
        out = complement_rotation(point, 5, np.random.default_rng(1))
        np.testing.assert_array_equal(out, np.tile(point.moduli, (5, 1)))

    def test_qubit_complement_is_rigid(self):
        point = ModulusVector(np.array([0.6, 0.8]))
        out = complement_rotation(point, 5, np.random.default_rng(2))
        np.testing.assert_array_equal(out, np.tile(point.moduli, (5, 1)))

    def test_radius_contract(self):
        point = ModulusVector(np.array([0.6, 0.8, 0.0]))
        out = complement_rotation(point, 50, np.random.default_rng(0))
        assert out.shape == (50, 3)
        for row in out:
            assert row[0] == 0.6
            assert abs(row[1] ** 2 + row[2] ** 2 - 0.64) <= 1e-12
            assert np.all(row >= 0.0)

    @settings(max_examples=50, deadline=None)
    @given(d=st.integers(3, 8), n=st.integers(1, 20), seed=st.integers(0, 10_000))
    def test_output_is_on_the_orthant(self, d, n, seed):
        # every rotated row keeps a_k (listed first) exactly and stays on the unit orthant
        rng = np.random.default_rng(seed)
        point = moduli(haar_state(d, rng).amplitudes)
        k = int(rng.integers(0, d))
        out = complement_rotation(listed_first(point, k), n, rng)
        assert np.all(out[:, 0] == point.moduli[k])
        assert np.all(out >= 0.0)
        assert np.max(np.abs(np.sum(out**2, axis=1) - 1.0)) <= 1e-12


class TestObservableWithEigenstate:
    def test_shared_eigenvector_residual(self):
        # phi is column 0 of every eigenbasis bit for bit, so M phi - w phi
        # vanishes for any spectrum; the columns are orthonormal
        rng = np.random.default_rng(3)
        basis, bases = draw_observables(haar_state(4, rng), 20, rng)
        assert bases.shape == (20, 4, 4)
        np.testing.assert_array_equal(bases[:, :, 0], np.tile(basis[:, 0], (20, 1)))
        assert unitary_defect(bases) <= 1e-12

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_tail_moduli_are_haar_distributed(self, d):
        # psi's squared tail moduli over |c|^2 (c: its complement coordinates)
        # are a uniform point of the simplex, as after a Haar rotation of the
        # complement, in the formed eigenbases and in the scan's own tails
        # r |t| / |t|: for m = d - 1 each has mean 1/m, variance
        # (m-1)/(m^2 (m+1)) and CDF 1 - (1-s)^(m-1).  Bounds: 4 standard
        # errors on the moments, the 0.1% Kolmogorov value 1.95/sqrt(n) on the CDF
        n, m = 40_000, d - 1
        rng = np.random.default_rng(40 + d)
        psi, phi = haar_state(d, rng), haar_state(d, rng)
        basis, bases = draw_observables(phi, n, rng, psi)
        assert unitary_defect(bases) <= 1e-14
        c = psi.amplitudes @ np.conj(basis[:, 1:])
        radius = np.vdot(c, c).real
        reflected = np.abs(psi.amplitudes @ np.conj(bases[:, :, 1:])) ** 2 / radius
        rotated = np.abs(c @ np.conj(haar_array(m, rng, (n,)))) ** 2 / radius
        point = ModulusVector(np.concatenate([[np.sqrt(1.0 - radius), np.sqrt(radius)], np.zeros(m - 1)]))
        drawn = observable_with_eigenstate(point, n, rng)[:, 1:] ** 2 / radius
        mean, var = 1 / m, (m - 1) / (m * m * (m + 1))
        mean_se = np.sqrt(var / n)
        for x in (reflected, rotated, drawn):
            var_se = np.sqrt((np.mean((x - x.mean(0)) ** 4, axis=0) - x.var(0) ** 2) / n)
            assert np.all(np.abs(x.mean(0) - mean) <= 4 * mean_se)
            assert np.all(np.abs(x.var(0) - var) <= 4 * var_se)
        assert np.all(np.abs(reflected.mean(0) - rotated.mean(0)) <= 4 * np.sqrt(2) * mean_se)
        assert np.all(np.abs(reflected.var(0) - rotated.var(0)) <= 4 * np.sqrt(2) * var_se)
        steps = np.arange(n + 1)[:, None] / n
        for x in (reflected, drawn):
            cdf = 1 - (1 - np.sort(x, axis=0)) ** (m - 1)
            assert np.max(np.maximum(steps[1:] - cdf, cdf - steps[:-1])) <= 1.95 / np.sqrt(n)

    def test_tail_orthogonal_to_the_draw_reflects_without_nan(self):
        # t^dag tail = 0 takes angle(0) = 0, phase 1: the reflection sends tail to -t
        rng = np.random.default_rng(6)
        basis = complete_basis(haar_state(4, rng).amplitudes)
        tail = np.array([1.0, 0.0, 0.0], dtype=complex)
        w = householder_vectors(tail, np.tile([0.0, 3.0, 4.0j], (2, 1)))
        bases = eigenbases(basis, w)
        assert unitary_defect(bases) <= 1e-14
        reflected = (basis[:, 1:] @ tail) @ np.conj(bases[:, :, 1:])
        np.testing.assert_allclose(reflected, np.tile([0.0, -0.6, -0.8j], (2, 1)), atol=1e-15)
        np.testing.assert_allclose(tail - 2.0 * (np.conj(w) @ tail)[:, None] * w, reflected, atol=1e-15)

    def test_two_draws_share_only_that_eigenvector(self):
        e2 = StateVector(np.array([0.0, 1.0, 0.0], dtype=complex))
        _, (a, b) = draw_observables(e2, 2, np.random.default_rng(4))
        np.testing.assert_array_equal(a[:, 0], b[:, 0])
        # each draw reflects the complement about its own random direction, so they differ
        assert np.max(np.abs(np.abs(a[:, 1:].conj().T @ b[:, 1:]) - np.eye(2))) > 1e-3

    def test_spin1_operators_also_share_it(self):
        e2 = StateVector(np.array([0.0, 1.0, 0.0], dtype=complex))
        _, _, vectors = spin1_observables()
        np.testing.assert_array_equal(match_eigenvector(vectors, e2.amplitudes), [1, 1])

    def test_qubit_eigenbasis_is_forced(self):
        phi = StateVector(np.array([1.0, 1.0]) / np.sqrt(2))
        _, bases = draw_observables(phi, 10, np.random.default_rng(7))
        target = np.array([1.0, -1.0]) / np.sqrt(2)
        for v in bases:
            assert abs(np.vdot(v[:, 1], phi.amplitudes)) <= 1e-15
            assert abs(abs(np.vdot(v[:, 1], target)) - 1.0) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(d=st.integers(2, 8), seed=st.integers(0, 10_000))
    def test_modulus_preservation_contract(self, d, seed):
        # column 0's coefficient keeps the modulus |<phi|psi>| whatever the
        # rest of the drawn eigenbasis is
        rng = np.random.default_rng(seed)
        phi = haar_state(d, rng)
        _, bases = draw_observables(phi, 5, rng)
        for _ in range(5):
            psi = haar_state(d, rng)
            coefficients = np.abs(psi.amplitudes @ np.conj(bases))[:, 0]
            expected = abs(np.vdot(phi.amplitudes, psi.amplitudes))
            assert np.max(np.abs(coefficients - expected)) <= 1e-12

    def test_match_rejects_a_state_that_is_not_an_eigenvector(self):
        # eigh's eigenvector columns of observables built on drawn eigenbases
        rng = np.random.default_rng(9)
        phi = haar_state(4, rng)
        _, bases = draw_observables(phi, 6, rng)
        spectra = np.array([rng.permutation(np.linspace(-1.0, 1.0, 4)) for _ in range(6)])  # gapped
        matrices = [Observable.from_eigenbasis(values, basis).matrix.entries for values, basis in zip(spectra, bases)]
        _, vectors = np.linalg.eigh(np.array(matrices))
        k = match_eigenvector(vectors, phi.amplitudes)
        assert np.min(np.abs(np.conj(vectors[np.arange(6), :, k]) @ phi.amplitudes)) > 1 - 1e-10
        with pytest.raises(ValueError, match="no eigenvector matches"):
            match_eigenvector(vectors, haar_state(4, rng).amplitudes)
        # one foreign observable in the stack rejects the whole stack
        vectors[3] = np.eye(4)
        with pytest.raises(ValueError, match="no eigenvector matches"):
            match_eigenvector(vectors, phi.amplitudes)


class TestRowKernelsMatchScalarFormulas:
    PLAIN = st.one_of(
        st.just(Born()),
        st.floats(0.5, 5.0).map(Power),
        st.tuples(st.floats(-2.0, 2.0), st.floats(-1.0, 1.0)).map(lambda sm: Affine(*sm)),
    )
    POSITIVE = st.one_of(
        st.just(Born()),
        st.floats(0.5, 5.0).map(Power),
        st.tuples(st.floats(0.1, 2.0), st.floats(0.0, 1.0)).map(lambda sm: Affine(*sm)),
    )

    @settings(max_examples=60, deadline=None)
    @given(
        rule=st.one_of(PLAIN, POSITIVE.map(Renormalized)),
        d=st.integers(2, 8),
        n=st.integers(1, 12),
        seed=st.integers(0, 10_000),
    )
    def test_rule_rows_equal_per_row_evaluation(self, rule, d, n, seed):
        rng = np.random.default_rng(seed)
        points = [moduli(haar_state(d, rng).amplitudes) for _ in range(n)]
        block = rule_probabilities(rule, np.stack([p.moduli for p in points]))
        assert block.shape == (n, d)
        for row, point in zip(block, points):
            np.testing.assert_array_equal(row, rule_probabilities(rule, point.moduli))
            scalar = [float(rule(float(a))) for a in point.moduli]
            if rule.renormalized:
                scalar = [s / sum(scalar) for s in scalar]
            np.testing.assert_allclose(row, scalar, rtol=1e-13, atol=1e-15)


class TestObservableIndependence:
    def test_quadratic_rule_is_observable_independent(self):
        for d in (2, 3, 4, 5, 6, 7, 8):
            point = moduli(haar_state(d, np.random.default_rng(d)).amplitudes)
            assert spread(observable_independence_scan(point, Born(), 100, seed=9)) <= 1e-12

    def test_renormalized_linear_leaks_at_d3(self):
        # oracle: with a_0 = sqrt(0.5) fixed, p_0 = a_0/(a_0 + t) where the
        # tail sum t = rho (cos + sin) ranges over [rho, rho sqrt(2)];
        # a dense angle grid bounds the reachable spread
        point = ModulusVector(np.sqrt(np.array([0.5, 0.3, 0.2])))
        a0 = np.sqrt(0.5)
        rho = np.sqrt(1 - 0.5)
        theta = np.linspace(0, np.pi / 2, 2001)
        p_grid = a0 / (a0 + rho * (np.cos(theta) + np.sin(theta)))
        oracle_spread = float(np.max(p_grid) - np.min(p_grid))

        leak = spread(observable_independence_scan(point, Renormalized(Power(1.0)), 100, seed=10))
        assert leak >= 0.01
        assert leak <= oracle_spread + 1e-9

    def test_qubit_single_modulus_rules_cannot_leak(self):
        point = moduli(haar_state(2, np.random.default_rng(11)).amplitudes)
        for rule in (Born(), Power(1.0), Power(4.0)):
            assert spread(observable_independence_scan(point, rule, 50, seed=12)) <= 1e-12

    def test_equal_observables_give_zero_spread(self):
        # n evaluations against the same drawn eigenbases: the scan machinery run
        # by hand, with the draw stream held fixed
        psi = haar_state(4, np.random.default_rng(14))
        phi = haar_state(4, np.random.default_rng(15))
        p_values = []
        for _ in range(10):
            _, bases = draw_observables(phi, 4, substream(13, 0), psi)
            point = np.abs(psi.amplitudes @ np.conj(bases))
            p_values.append(rule_probabilities(Renormalized(Power(1.0)), point)[0, 0])
        assert max(p_values) - min(p_values) == 0.0

    @pytest.mark.parametrize("rule", [Born(), Renormalized(Power(4.0))], ids=["born", "renorm:power:4"])
    def test_state_along_the_eigenvector_gives_zero_spread(self, rule):
        # psi = phase e_0 has no complement component, so every draw gives it
        # the same probability
        point = moduli(np.exp(0.7j) * np.eye(5)[0])
        assert not point.moduli[1:].any()
        c = np.zeros(4, dtype=complex)
        w = householder_vectors(c, complex_gaussian(np.random.default_rng(29), 50, 4))
        np.testing.assert_array_equal(c - 2.0 * (np.conj(w) @ c)[:, None] * w, np.zeros((50, 4)))
        drawn = observable_with_eigenstate(point, 50, np.random.default_rng(29))
        np.testing.assert_array_equal(drawn, np.tile(point.moduli, (50, 1)))
        assert spread(observable_independence_scan(point, rule, 50, seed=28)) == 0.0

    def test_scan_is_deterministic_and_thread_invariant(self):
        # the scan runs on the calling thread, so invariance is a rerun
        point = moduli(haar_state(3, np.random.default_rng(16)).amplitudes)
        a = observable_independence_scan(point, Renormalized(Power(2.5)), 60, seed=18)
        b = observable_independence_scan(point, Renormalized(Power(2.5)), 60, seed=18)
        np.testing.assert_array_equal(a.p_values, b.p_values)

    def test_needs_two_draws(self):
        point = moduli(haar_state(3, np.random.default_rng(19)).amplitudes)
        with pytest.raises(ValueError):
            observable_independence_scan(point, Born(), 1, seed=0)

    def test_orthant_check_catches_what_orthonormality_allows(self, monkeypatch):
        # moduli scaled by s = 1 + 2e-11 are psi's in s times a unitary
        # basis, whose U^dag U - I is 4e-11, inside the orthonormality
        # tolerance (1e-10), but their square sum is off by s^2 - 1 = 4e-11
        # (tol 1e-12): the scan's one orthant check rejects them
        real = invariance.observable_with_eigenstate
        monkeypatch.setattr(invariance, "observable_with_eigenstate", lambda *args: real(*args) * (1 + 2e-11))
        point = moduli(haar_state(4, np.random.default_rng(24)).amplitudes)
        with pytest.raises(ValueError, match="orthant norm defect"):
            observable_independence_scan(point, Born(), 10, seed=0)


class TestFactoredDraws:
    @pytest.mark.parametrize("d", [2, 3, 8, 64])
    @pytest.mark.parametrize(
        "rule",
        [Renormalized(Power(1.0)), Renormalized(Power(4.0)), Renormalized(Affine(1.0, 0.1)), Born()],
        ids=["renorm:power:1", "renorm:power:4", "renorm:affine:1:0.1", "born"],
    )
    def test_scan_matches_the_materialized_eigenbases(self, rule, d):
        # the reduction: the scan reads (a_0, r |t| / |t|) from each Ginibre
        # row t, and the same rows formed into eigenbases sharing phi = e_0
        # give psi's moduli as |psi @ conj(V)|.  They agree to rounding.  born
        # reads a_0 alone, which the scan holds to one float, so its spread is
        # exactly 0; psi = phase e_0 has no complement coordinates
        rng = np.random.default_rng(50 + d)
        basis = complete_basis(np.eye(d)[0])
        for psi in (haar_state(d, rng), StateVector(np.exp(0.3j) * np.eye(d)[0])):
            c = psi.amplitudes @ np.conj(basis[:, 1:])

            vectors = eigenbases(basis, householder_vectors(c, complex_gaussian(substream(51), 133, d - 1)))
            expected = rule_probabilities(rule, np.abs(psi.amplitudes @ np.conj(vectors)))[:, 0]
            report = observable_independence_scan(moduli(psi.amplitudes), rule, 133, seed=51)
            np.testing.assert_allclose(report.p_values, expected, rtol=1e-14, atol=0)
            if rule == Born():
                assert len(set(report.p_values.tolist())) == 1 and spread(report) == 0.0

    def test_scan_memory_does_not_grow_as_d_squared(self):
        # 128 draws at d=256 are drawn as moduli rows: a (128, d, d)
        # complex stack of their eigenbases alone would be 134 MB
        point = moduli(haar_state(256, np.random.default_rng(52)).amplitudes)
        tracemalloc.start()
        try:
            observable_independence_scan(point, Renormalized(Power(4.0)), 128, seed=53)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestLawSeparation:
    @pytest.mark.parametrize("m", [2, 4, 7])
    def test_each_scan_draws_its_own_law(self, monkeypatch, m):
        # the rows each scan's kernel receives, squared tails over r^2: the
        # rotation scan's real law is Dirichlet(1/2, ..., 1/2), variance
        # 2(m-1)/(m^2 (m+2)); the observable scan's complex law is
        # Dirichlet(1, ..., 1), variance (m-1)/(m^2 (m+1)).  Bound: 4 standard
        # errors; a scan given the other's law is about 30 or more off
        seen = []
        for name in ("complement_rotation", "observable_with_eigenstate"):
            law = getattr(invariance, name)
            monkeypatch.setattr(invariance, name, lambda *args, law=law: seen.append(law(*args)) or seen[-1])
        point = moduli(haar_state(m + 1, np.random.default_rng(60 + m)).amplitudes)
        scans = (
            (2 * (m - 1) / (m * m * (m + 2)), unobserved_independence_scan),
            ((m - 1) / (m * m * (m + 1)), observable_independence_scan),
        )
        for var, scan in scans:
            seen.clear()
            scan(point, Born(), 20_000, 61)
            tails = np.concatenate(seen)[:, 1:] ** 2
            x = tails / tails.sum(axis=1, keepdims=True)
            var_se = np.sqrt((np.mean((x - x.mean(0)) ** 4, axis=0) - x.var(0) ** 2) / len(x))
            assert np.all(np.abs(x.var(0) - var) <= 4 * var_se)


class TestScanAddresses:
    DRAWS = 259

    def scans(self):
        point = moduli(haar_state(4, np.random.default_rng(30)).amplitudes)
        rule = Renormalized(Power(3.0))
        return (
            observable_independence_scan(point, rule, self.DRAWS, seed=32),
            unobserved_independence_scan(listed_first(point, 1), rule, self.DRAWS, seed=33),
        )

    def test_a_rerun_repeats_every_p_value(self):
        # a scan runs on the calling thread, so invariance is a rerun
        first = [scan.p_values.tobytes() for scan in self.scans()]
        assert [scan.p_values.tobytes() for scan in self.scans()] == first

    def test_a_scan_draws_from_its_own_address(self, monkeypatch):
        # each scan derives exactly one stream, at its own address
        seen = []

        def recording(seed, *indices):
            seen.append((seed, *indices))
            return substream(seed, *indices)

        monkeypatch.setattr(invariance, "substream", recording)
        self.scans()
        assert seen == [(32,), (33,)]

    def test_first_k_draws_are_a_k_draw_scan(self):
        # draw i is the i-th row of the scan's one stream, so the first k draws
        # of either scan are those of a k-draw scan, for every k
        point = moduli(haar_state(3, np.random.default_rng(34)).amplitudes)
        rule = Renormalized(Power(1.0))
        for scan in (observable_independence_scan, unobserved_independence_scan):
            long = scan(point, rule, self.DRAWS, 36).p_values
            assert len(set(long.tolist())) == self.DRAWS
            for k in range(MIN_DRAWS, self.DRAWS + 1):
                assert scan(point, rule, k, 36).p_values.tobytes() == long[:k].tobytes(), (scan.__name__, k)


class TestBornSpreadIsMeasured:
    @pytest.mark.parametrize("d", [*range(2, 9), 64, 128, 256])
    def test_seed_sweep_stays_within_tolerance(self, d):
        # every draw holds the point's a_0 to the same bits: the measured
        # spread is exactly 0
        spreads = []
        for seed in range(30):
            point = moduli(haar_state(d, substream(40, d, seed, 0)).amplitudes)
            spreads.append(spread(observable_independence_scan(point, Born(), 100, seed=seed)))
        assert max(spreads) == 0.0


class TestNearEigenstate:
    def test_both_scans_see_the_complement(self):
        # psi = cos(eps) e_0 + sin(eps) e_1: 1 - a_0^2 rounds to 0, so a radius taken as
        # sqrt(1 - a_0^2) reads 0 and the scan reports 0.0; the norm of the complement keeps
        # r = sin(eps).  renorm:power:1 gives p_0 = a_0 / (a_0 + r s), s the unit tail's
        # 1-norm in [1, sqrt(2)] at d=3, so each spread is above TOL.spread and below
        # eps (sqrt(2) - 1), with room for rounding at p_0 near 1
        eps = 1e-9
        point = moduli(np.array([np.cos(eps), np.sin(eps), 0.0]))
        rule = Renormalized(Power(1.0))
        for scan in (observable_independence_scan, unobserved_independence_scan):
            leak = spread(scan(point, rule, 100, seed=0))
            assert TOL.spread < leak <= eps * (np.sqrt(2.0) - 1.0) + 1e-15, (scan.__name__, leak)


class TestUnobservedIndependence:
    def test_single_modulus_rules_are_structurally_flat(self):
        point = moduli(haar_state(5, np.random.default_rng(20)).amplitudes)
        for rule in (Born(), Power(1.0), Power(3.0)):
            assert spread(unobserved_independence_scan(listed_first(point, 2), rule, 50, seed=21)) == 0.0

    def test_renormalized_quartic_leaks(self):
        # oracle: p_0 = a0^4 / (a0^4 + a1^4 + a2^4) along the circle
        # (0.6, 0.8 cos, 0.8 sin); a dense grid bounds the spread
        theta = np.linspace(0, np.pi / 2, 2001)
        a0 = 0.6
        tails = 0.8 * np.stack([np.cos(theta), np.sin(theta)])
        p_grid = a0**4 / (a0**4 + np.sum(tails**4, axis=0))
        oracle_spread = float(np.max(p_grid) - np.min(p_grid))

        point = ModulusVector(np.array([0.6, 0.8, 0.0]))
        leak = spread(unobserved_independence_scan(point, Renormalized(Power(4.0)), 50, seed=22))
        assert leak > 0.01
        assert leak <= oracle_spread + 1e-9

    def test_qubit_spread_is_exactly_zero(self):
        point = ModulusVector(np.array([0.6, 0.8]))
        for rule in (Born(), Renormalized(Power(4.0))):
            assert spread(unobserved_independence_scan(point, rule, 20, seed=23)) == 0.0


class TestReportSummary:
    def test_extremes_are_the_first_draws_at_each(self):
        p_values = np.array([0.5, 0.2, 0.7, 0.2, 0.7])
        summary = invariance.InvarianceReport("born", 3, 5, p_values, (0, 1)).as_dict()
        assert list(summary) == ["rule", "dim", "draws", "spread", "min_p", "argmin", "max_p", "argmax", "address"]
        assert (summary["min_p"], summary["argmin"], summary["max_p"], summary["argmax"]) == (0.2, 1, 0.7, 2)


def rotation_at(point: ModulusVector, k: int, n: int, rng) -> np.ndarray:
    """The rotation at fixed a_k, written with a boolean mask over the other
    moduli: the reference for the outcome-k scan that outcome 0 stands in for."""
    rows = np.tile(point.moduli, (n, 1))
    others = np.arange(point.dim) != k
    direction = np.abs(rng.standard_normal((n, point.dim - 1)))
    unit = direction / np.linalg.norm(direction, axis=1, keepdims=True)
    rows[:, others] = np.linalg.norm(point.moduli[others]) * unit
    return rows


class TestPermutationEquivariance:
    """Every rule commutes with a permutation of the moduli, so the rotation
    scan at outcome 0 loses nothing: outcome k is outcome 0 with a_k first.
    Plain rules act entrywise and agree bit for bit; a renormalized rule's
    sum runs in another order and agrees to rounding."""

    RULES = st.one_of(
        TestRowKernelsMatchScalarFormulas.PLAIN, TestRowKernelsMatchScalarFormulas.POSITIVE.map(Renormalized)
    )

    @staticmethod
    def assert_same(rule, actual, expected):
        if rule.renormalized:
            np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-15)
        else:
            np.testing.assert_array_equal(actual, expected)

    @settings(max_examples=60, deadline=None)
    @given(rule=RULES, d=st.integers(2, 8), n=st.integers(1, 12), seed=st.integers(0, 10_000))
    def test_rules_commute_with_permutations(self, rule, d, n, seed):
        rng = np.random.default_rng(seed)
        points = np.stack([moduli(haar_state(d, rng).amplitudes).moduli for _ in range(n)])
        order = rng.permutation(d)
        self.assert_same(rule, rule_probabilities(rule, points[:, order]), rule_probabilities(rule, points)[:, order])

    @settings(max_examples=40, deadline=None)
    @given(rule=RULES, d=st.integers(2, 8), draws=st.integers(2, 40), seed=st.integers(0, 10_000))
    def test_scan_at_outcome_zero_is_the_scan_at_outcome_k(self, rule, d, draws, seed):
        rng = np.random.default_rng(seed)
        point = moduli(haar_state(d, rng).amplitudes)
        k = int(rng.integers(0, d))
        reference = rule_probabilities(rule, rotation_at(point, k, draws, substream(seed)))[:, k]
        report = unobserved_independence_scan(listed_first(point, k), rule, draws, seed)
        self.assert_same(rule, report.p_values, reference)
