"""Observables sharing an eigenvector, complement rotations, and the
block-form independence scans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import invariance, streams
from bornlab.invariance import (
    complement_rotation,
    match_eigenvector,
    observable_independence_scan,
    observable_with_eigenstate,
    unobserved_independence_scan,
)
from bornlab.linalg import complete_basis
from bornlab.quantum import (
    ModulusVector,
    StateVector,
    haar_state,
    moduli,
    spin1_observables,
)
from bornlab.rules import Affine, Born, Power, Renormalized, rule_probabilities
from bornlab.streams import BLOCK, blockwise, substream
from bornlab.tolerances import TOL


def listed_first(point: ModulusVector, k: int) -> ModulusVector:
    """The point with a_k moved to the front and the other moduli in order."""
    return ModulusVector(np.concatenate([point.moduli[k : k + 1], np.delete(point.moduli, k)]))


def draw_observables(phi: StateVector, n: int, rng):
    """n observables sharing phi, their eigh eigensystems and the matched indices."""
    matrices = observable_with_eigenstate(complete_basis(phi.amplitudes), n, rng)
    values, vectors = np.linalg.eigh(matrices)
    return matrices, values, vectors, match_eigenvector(vectors, phi.amplitudes)


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
        rng = np.random.default_rng(3)
        phi = haar_state(4, rng)
        matrices, values, _, k = draw_observables(phi, 20, rng)
        for m, w in zip(matrices, values[np.arange(20), k]):
            residual = np.linalg.norm(m @ phi.amplitudes - w * phi.amplitudes)
            assert residual <= 1e-10

    def test_two_draws_share_only_that_eigenvector(self):
        e2 = StateVector(np.array([0.0, 1.0, 0.0], dtype=complex))
        _, _, (a, b), (ka, kb) = draw_observables(e2, 2, np.random.default_rng(4))
        assert abs(np.vdot(a[:, ka], e2.amplitudes)) > 1 - 1e-10
        assert abs(np.vdot(b[:, kb], e2.amplitudes)) > 1 - 1e-10
        others_a = np.delete(a, ka, axis=1)
        others_b = np.delete(b, kb, axis=1)
        # complements are independent Haar draws, so they differ
        assert np.max(np.abs(np.abs(others_a.conj().T @ others_b) - np.eye(2))) > 1e-3

    def test_spin1_operators_also_share_it(self):
        e2 = StateVector(np.array([0.0, 1.0, 0.0], dtype=complex))
        _, _, vectors = spin1_observables()
        np.testing.assert_array_equal(match_eigenvector(vectors, e2.amplitudes), [1, 1])
        # a drawn observable puts e2 at a random sorted position: the match
        # must land on the eigenvalue e2 carries, <e2|M|e2>
        matrices, values, _, k = draw_observables(e2, 20, np.random.default_rng(6))
        carried = np.real(matrices[:, 1, 1])
        np.testing.assert_allclose(values[np.arange(20), k], carried, rtol=0, atol=1e-12)
        assert len(set(k.tolist())) > 1

    def test_qubit_eigenbasis_is_forced(self):
        phi = StateVector(np.array([1.0, 1.0]) / np.sqrt(2))
        _, _, vectors, k = draw_observables(phi, 10, np.random.default_rng(7))
        target = np.array([1.0, -1.0]) / np.sqrt(2)
        for v, kk in zip(vectors, k):
            assert abs(abs(np.vdot(v[:, 1 - kk], target)) - 1.0) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(d=st.integers(2, 8), seed=st.integers(0, 10_000))
    def test_modulus_preservation_contract(self, d, seed):
        # the matched eigenvector's coefficient keeps the modulus |<phi|psi>|
        # whatever the rest of the drawn eigenbasis is
        rng = np.random.default_rng(seed)
        phi = haar_state(d, rng)
        _, _, vectors, k = draw_observables(phi, 5, rng)
        for _ in range(5):
            psi = haar_state(d, rng)
            coefficients = np.abs(psi.amplitudes @ np.conj(vectors))[np.arange(5), k]
            expected = abs(np.vdot(phi.amplitudes, psi.amplitudes))
            assert np.max(np.abs(coefficients - expected)) <= 1e-12

    def test_gap_enforced(self):
        phi = haar_state(5, np.random.default_rng(8))
        _, values, _, _ = draw_observables(phi, 10, np.random.default_rng(0))
        assert np.min(np.diff(values, axis=1)) > 1e-3

    def test_match_rejects_a_state_that_is_not_an_eigenvector(self):
        rng = np.random.default_rng(9)
        phi = haar_state(4, rng)
        _, _, vectors, _ = draw_observables(phi, 6, rng)
        with pytest.raises(ValueError, match="no eigenvector matches"):
            match_eigenvector(vectors, haar_state(4, rng).amplitudes)
        # one foreign observable in the stack rejects the whole stack
        vectors[3] = np.eye(4)
        with pytest.raises(ValueError, match="no eigenvector matches"):
            match_eigenvector(vectors, phi.amplitudes)


class TestBlockKernelsMatchScalarFormulas:
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
            base = rule.base if isinstance(rule, Renormalized) else rule
            scalar = [float(base(float(a))) for a in point.moduli]
            if isinstance(rule, Renormalized):
                scalar = [s / sum(scalar) for s in scalar]
            np.testing.assert_allclose(row, scalar, rtol=1e-13, atol=1e-15)


class TestObservableIndependence:
    def test_quadratic_rule_is_observable_independent(self):
        for d in (2, 3, 4, 5, 6, 7, 8):
            rng = np.random.default_rng(d)
            psi, phi = haar_state(d, rng), haar_state(d, rng)
            report = observable_independence_scan(psi, phi, Born(), 100, seed=9)
            assert report.spread <= 1e-12

    def test_renormalized_linear_leaks_at_d3(self):
        # oracle: with a_1 = sqrt(0.5) fixed, p_1 = a_1/(a_1 + t) where the
        # tail sum t = rho (cos + sin) ranges over [rho, rho sqrt(2)];
        # a dense angle grid bounds the reachable spread
        psi = StateVector(np.sqrt(np.array([0.5, 0.3, 0.2])).astype(complex))
        phi = StateVector(np.array([1.0, 0.0, 0.0], dtype=complex))
        a1 = np.sqrt(0.5)
        rho = np.sqrt(1 - 0.5)
        theta = np.linspace(0, np.pi / 2, 2001)
        p_grid = a1 / (a1 + rho * (np.cos(theta) + np.sin(theta)))
        oracle_spread = float(np.max(p_grid) - np.min(p_grid))

        report = observable_independence_scan(
            psi, phi, Renormalized(Power(1.0)), 100, seed=10
        )
        assert report.spread >= 0.01
        assert report.spread <= oracle_spread + 1e-9

    def test_qubit_single_modulus_rules_cannot_leak(self):
        rng = np.random.default_rng(11)
        psi, phi = haar_state(2, rng), haar_state(2, rng)
        for rule in (Born(), Power(1.0), Power(4.0)):
            report = observable_independence_scan(psi, phi, rule, 50, seed=12)
            assert report.spread <= 1e-12

    def test_equal_observables_give_zero_spread(self):
        # n evaluations against the same drawn block: the scan machinery run
        # by hand, with the draw stream held fixed
        psi = haar_state(4, np.random.default_rng(14))
        phi = haar_state(4, np.random.default_rng(15))
        p_values = []
        for _ in range(10):
            _, _, vectors, k = draw_observables(phi, 4, substream(13, 0))
            point = np.abs(psi.amplitudes @ np.conj(vectors))
            p_values.append(rule_probabilities(Renormalized(Power(1.0)), point)[0, k[0]])
        assert max(p_values) - min(p_values) == 0.0

    def test_scan_is_deterministic_and_thread_invariant(self):
        # the scan runs on the calling thread, so invariance is a rerun
        psi = haar_state(3, np.random.default_rng(16))
        phi = haar_state(3, np.random.default_rng(17))
        a = observable_independence_scan(psi, phi, Renormalized(Power(2.5)), 60, seed=18)
        b = observable_independence_scan(psi, phi, Renormalized(Power(2.5)), 60, seed=18)
        np.testing.assert_array_equal(a.p_values, b.p_values)

    def test_needs_two_draws(self):
        psi = haar_state(3, np.random.default_rng(19))
        with pytest.raises(ValueError):
            observable_independence_scan(psi, psi, Born(), 1, seed=0)

    def test_failed_match_stops_the_scan(self, monkeypatch):
        # observables that do not share phi must be caught by the overlap check
        def unrelated(basis, n, rng):
            z = rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))
            return z + np.conj(np.swapaxes(z, -1, -2))

        monkeypatch.setattr(invariance, "observable_with_eigenstate", unrelated)
        psi, phi = haar_state(3, np.random.default_rng(20)), haar_state(3, np.random.default_rng(21))
        with pytest.raises(ValueError, match="no eigenvector matches"):
            observable_independence_scan(psi, phi, Born(), 10, seed=0)


    @pytest.mark.parametrize(
        "target, broken, message",
        [
            # rounding-sized asymmetry is tolerated, 1e-9 is not
            ("observable_with_eigenstate", lambda real: lambda basis, n, rng: real(basis, n, rng) + 1e-9j,
             "not Hermitian"),
            # two equal eigenvalues: the shared eigenvector is no longer unique
            ("gapped_eigenvalues", lambda real: lambda d, rng, batch: np.sort(real(d, rng, batch))[..., [0, 0, 2, 3]],
             "degenerate spectrum"),
        ],
        ids=["hermitian", "gap"],
    )
    def test_block_checks_stop_the_scan(self, monkeypatch, target, broken, message):
        monkeypatch.setattr(invariance, target, broken(getattr(invariance, target)))
        psi, phi = haar_state(4, np.random.default_rng(22)), haar_state(4, np.random.default_rng(23))
        with pytest.raises(ValueError, match=message):
            observable_independence_scan(psi, phi, Born(), 10, seed=0)


    def test_orthant_check_catches_what_orthonormality_allows(self, monkeypatch):
        # eigenvectors scaled by 1 + 2e-11 pass the 1e-10 orthonormality
        # check, but put psi's moduli 4e-11 off the unit sphere (tol 1e-12)
        real_eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: (lambda w, v: (w, v * (1 + 2e-11)))(*real_eigh(m)))
        psi, phi = haar_state(4, np.random.default_rng(24)), haar_state(4, np.random.default_rng(25))
        with pytest.raises(ValueError, match="orthant norm defect"):
            observable_independence_scan(psi, phi, Born(), 10, seed=0)


class TestBlocks:
    DRAWS = 2 * BLOCK + 3  # two full blocks and a partial one

    def scans(self):
        psi = haar_state(4, np.random.default_rng(30))
        phi = haar_state(4, np.random.default_rng(31))
        rule = Renormalized(Power(3.0))
        return (
            observable_independence_scan(psi, phi, rule, self.DRAWS, seed=32),
            unobserved_independence_scan(listed_first(moduli(psi.amplitudes), 1), rule, self.DRAWS, seed=33),
        )

    def test_multi_block_scans_are_thread_invariant(self):
        # blocks run in order on the calling thread, so invariance is a rerun
        first = [scan.p_values.tobytes() for scan in self.scans()]
        assert [scan.p_values.tobytes() for scan in self.scans()] == first

    def test_block_b_draws_from_substream_seed_b(self, monkeypatch):
        seen = []

        def recording(seed, *indices):
            seen.append((seed, *indices))
            return substream(seed, *indices)

        monkeypatch.setattr(streams, "substream", recording)
        self.scans()
        assert seen == [(32, 0), (32, 1), (32, 2), (33, 0), (33, 1), (33, 2)]

    def test_full_blocks_do_not_depend_on_the_draw_count(self):
        # draw i comes from substream(seed, i // BLOCK), so a full block is
        # the same whatever follows it
        psi = haar_state(3, np.random.default_rng(34))
        phi = haar_state(3, np.random.default_rng(35))
        rule = Renormalized(Power(1.0))
        short = observable_independence_scan(psi, phi, rule, BLOCK, seed=36)
        long = observable_independence_scan(psi, phi, rule, self.DRAWS, seed=36)
        np.testing.assert_array_equal(long.p_values[:BLOCK], short.p_values)
        assert len(set(long.p_values.tolist())) == self.DRAWS


class TestBornSpreadIsMeasured:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_seed_sweep_stays_within_tolerance(self, d):
        # the outcome is found by eigh and overlap, so its Born probability
        # carries rounding: the spread is small but no longer zero by design
        spreads = []
        for seed in range(30):
            psi = haar_state(d, substream(40, d, seed, 0))
            phi = haar_state(d, substream(40, d, seed, 1))
            spreads.append(observable_independence_scan(psi, phi, Born(), 100, seed=seed).spread)
        assert max(spreads) <= TOL.spread
        assert max(spreads) > 0.0


class TestUnobservedIndependence:
    def test_single_modulus_rules_are_structurally_flat(self):
        point = moduli(haar_state(5, np.random.default_rng(20)).amplitudes)
        for rule in (Born(), Power(1.0), Power(3.0)):
            report = unobserved_independence_scan(listed_first(point, 2), rule, 50, seed=21)
            assert report.spread == 0.0

    def test_renormalized_quartic_leaks(self):
        # oracle: p_0 = a0^4 / (a0^4 + a1^4 + a2^4) along the circle
        # (0.6, 0.8 cos, 0.8 sin); a dense grid bounds the spread
        theta = np.linspace(0, np.pi / 2, 2001)
        a0 = 0.6
        tails = 0.8 * np.stack([np.cos(theta), np.sin(theta)])
        p_grid = a0**4 / (a0**4 + np.sum(tails**4, axis=0))
        oracle_spread = float(np.max(p_grid) - np.min(p_grid))

        point = ModulusVector(np.array([0.6, 0.8, 0.0]))
        report = unobserved_independence_scan(point, Renormalized(Power(4.0)), 50, seed=22)
        assert report.spread > 0.01
        assert report.spread <= oracle_spread + 1e-9

    def test_qubit_spread_is_exactly_zero(self):
        point = ModulusVector(np.array([0.6, 0.8]))
        for rule in (Born(), Renormalized(Power(4.0))):
            report = unobserved_independence_scan(point, rule, 20, seed=23)
            assert report.spread == 0.0

    def test_report_records_the_fixed_index(self):
        point = ModulusVector(np.array([0.6, 0.8, 0.0]))
        # outcome 1 of the point is outcome 0 once a_1 is listed first
        report = unobserved_independence_scan(listed_first(point, 1), Renormalized(Power(1.0)), 10, seed=24)
        assert report.k == 0
        assert report.spread == max(report.p_values) - min(report.p_values)


def rotation_at(point: ModulusVector, k: int, n: int, rng) -> np.ndarray:
    """The rotation at fixed a_k, written with a boolean mask over the other
    moduli: the reference for the outcome-k scan that outcome 0 stands in for."""
    d = point.dim
    rows = np.tile(point.moduli, (n, 1))
    others = np.arange(d) != k
    radius = float(np.linalg.norm(point.moduli[others]))
    if d == 2 or radius == 0.0:
        return rows
    direction = np.abs(rng.standard_normal((n, d - 1)))
    rows[:, others] = radius * direction / np.linalg.norm(direction, axis=1, keepdims=True)
    return rows


class TestPermutationEquivariance:
    """Every rule commutes with a permutation of the moduli, so the rotation
    scan at outcome 0 loses nothing: outcome k is outcome 0 with a_k first.
    Plain rules act entrywise and agree bit for bit; a renormalized rule's
    sum runs in another order and agrees to rounding."""

    RULES = st.one_of(
        TestBlockKernelsMatchScalarFormulas.PLAIN, TestBlockKernelsMatchScalarFormulas.POSITIVE.map(Renormalized)
    )

    @staticmethod
    def assert_same(rule, actual, expected):
        if isinstance(rule, Renormalized):
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
        reference = blockwise(lambda n, rng: rule_probabilities(rule, rotation_at(point, k, n, rng))[:, k], draws, seed)
        report = unobserved_independence_scan(listed_first(point, k), rule, draws, seed)
        assert report.k == 0
        self.assert_same(rule, report.p_values, reference)
