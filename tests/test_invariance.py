"""Modulus-preserving unitaries, complement rotations, and independence scans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab.invariance import (
    ComplementPoint,
    IndexOutOfRange,
    complement_rotation,
    match_eigenvector,
    observable_independence_scan,
    observable_with_eigenstate,
    unobserved_independence_scan,
)
from bornlab.quantum import (
    ModulusVector,
    StateVector,
    expand,
    haar_state,
    moduli,
    spin1_jx2_minus_jy2,
    spin1_jz,
)
from bornlab.rules import Born, Power, Renormalized, rule_probabilities
from bornlab.streams import substream


class TestComplementRotation:
    def test_degenerate_radius_is_fixed_point(self):
        point = ModulusVector(np.array([1.0, 0.0, 0.0]))
        out = complement_rotation(point, 0, np.random.default_rng(1))
        np.testing.assert_array_equal(out.moduli, point.moduli)

    def test_qubit_complement_is_rigid(self):
        point = ModulusVector(np.array([0.6, 0.8]))
        out = complement_rotation(point, 0, np.random.default_rng(2))
        np.testing.assert_array_equal(out.moduli, point.moduli)

    def test_radius_contract(self):
        point = ModulusVector(np.array([0.6, 0.8, 0.0]))
        for seed in range(50):
            out = complement_rotation(point, 0, np.random.default_rng(seed))
            assert out.moduli[0] == 0.6
            assert abs(out.moduli[1] ** 2 + out.moduli[2] ** 2 - 0.64) <= 1e-12
            assert np.all(out.moduli >= 0.0)

    @settings(max_examples=50, deadline=None)
    @given(d=st.integers(3, 8), seed=st.integers(0, 10_000))
    def test_output_is_on_the_orthant(self, d, seed):
        rng = np.random.default_rng(seed)
        point = moduli(haar_state(d, rng).amplitudes)
        k = int(rng.integers(0, d))
        out = complement_rotation(point, k, rng)
        assert out.moduli[k] == point.moduli[k]
        assert abs(np.sum(out.moduli**2) - 1.0) <= 1e-12

    def test_complement_point_validates_radius(self):
        with pytest.raises(Exception):
            ComplementPoint(0.6, np.array([0.9, 0.9]))


class TestObservableWithEigenstate:
    def test_shared_eigenvector_residual(self):
        rng = np.random.default_rng(3)
        phi = haar_state(4, rng)
        obs = observable_with_eigenstate(phi, rng)
        k = match_eigenvector(obs, phi)
        w = obs.eigensystem.eigenvalues[k]
        residual = np.linalg.norm(obs.matrix.entries @ phi.amplitudes - w * phi.amplitudes)
        assert residual <= 1e-10

    def test_two_draws_share_only_that_eigenvector(self):
        e2 = StateVector(np.array([0.0, 1.0, 0.0], dtype=complex))
        a = observable_with_eigenstate(e2, np.random.default_rng(4))
        b = observable_with_eigenstate(e2, np.random.default_rng(5))
        ka, kb = match_eigenvector(a, e2), match_eigenvector(b, e2)
        assert abs(np.vdot(a.eigensystem.eigenvectors[:, ka], e2.amplitudes)) > 1 - 1e-10
        assert abs(np.vdot(b.eigensystem.eigenvectors[:, kb], e2.amplitudes)) > 1 - 1e-10
        others_a = np.delete(a.eigensystem.eigenvectors, ka, axis=1)
        others_b = np.delete(b.eigensystem.eigenvectors, kb, axis=1)
        # complements are independent Haar draws, so they differ
        assert np.max(np.abs(np.abs(others_a.conj().T @ others_b) - np.eye(2))) > 1e-3

    def test_spin1_operators_also_share_it(self):
        e2 = StateVector(np.array([0.0, 1.0, 0.0], dtype=complex))
        drawn = observable_with_eigenstate(e2, np.random.default_rng(6))
        for obs in (spin1_jz(), spin1_jx2_minus_jy2(), drawn):
            assert match_eigenvector(obs, e2) == 1

    def test_qubit_eigenbasis_is_forced(self):
        phi = StateVector(np.array([1.0, 1.0]) / np.sqrt(2))
        obs = observable_with_eigenstate(phi, np.random.default_rng(7))
        k = match_eigenvector(obs, phi)
        other = obs.eigensystem.eigenvectors[:, 1 - k]
        target = np.array([1.0, -1.0]) / np.sqrt(2)
        assert abs(abs(np.vdot(other, target)) - 1.0) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(d=st.integers(2, 8), seed=st.integers(0, 10_000))
    def test_modulus_preservation_contract(self, d, seed):
        # the shared eigenvector's coefficient keeps the modulus |<phi|psi>|
        # whatever the rest of the drawn eigenbasis is
        rng = np.random.default_rng(seed)
        phi = haar_state(d, rng)
        obs = observable_with_eigenstate(phi, rng)
        k = match_eigenvector(obs, phi)
        for _ in range(5):
            psi = haar_state(d, rng)
            coefficient = abs(expand(psi, obs))[k]
            assert abs(coefficient - abs(np.vdot(phi.amplitudes, psi.amplitudes))) <= 1e-12

    def test_gap_enforced(self):
        phi = haar_state(5, np.random.default_rng(8))
        for seed in range(10):
            obs = observable_with_eigenstate(phi, np.random.default_rng(seed))
            assert np.min(np.diff(obs.eigensystem.eigenvalues)) > 1e-3


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
        # n evaluations against the same drawn observable: the scan
        # machinery run by hand, with the draw stream held fixed
        rng_master = 13
        psi = haar_state(4, np.random.default_rng(14))
        phi = haar_state(4, np.random.default_rng(15))
        p_values = []
        for _ in range(10):
            obs = observable_with_eigenstate(phi, substream(rng_master, 0))
            point = ModulusVector(np.abs(expand(psi, obs)))
            k = match_eigenvector(obs, phi)
            p_values.append(rule_probabilities(Renormalized(Power(1.0)), point)[k])
        assert max(p_values) - min(p_values) == 0.0

    def test_scan_is_deterministic_and_thread_invariant(self):
        psi = haar_state(3, np.random.default_rng(16))
        phi = haar_state(3, np.random.default_rng(17))
        a = observable_independence_scan(psi, phi, Renormalized(Power(2.5)), 60, seed=18)
        b = observable_independence_scan(psi, phi, Renormalized(Power(2.5)), 60, seed=18, threads=8)
        np.testing.assert_array_equal(a.p_values, b.p_values)

    def test_needs_two_draws(self):
        psi = haar_state(3, np.random.default_rng(19))
        with pytest.raises(ValueError):
            observable_independence_scan(psi, psi, Born(), 1, seed=0)


class TestUnobservedIndependence:
    def test_single_modulus_rules_are_structurally_flat(self):
        point = moduli(haar_state(5, np.random.default_rng(20)).amplitudes)
        for rule in (Born(), Power(1.0), Power(3.0)):
            report = unobserved_independence_scan(point, 2, rule, 50, seed=21)
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
        report = unobserved_independence_scan(point, 0, Renormalized(Power(4.0)), 50, seed=22)
        assert report.spread > 0.01
        assert report.spread <= oracle_spread + 1e-9

    def test_qubit_spread_is_exactly_zero(self):
        point = ModulusVector(np.array([0.6, 0.8]))
        for rule in (Born(), Renormalized(Power(4.0))):
            report = unobserved_independence_scan(point, 0, rule, 20, seed=23)
            assert report.spread == 0.0

    def test_report_records_the_fixed_index(self):
        point = ModulusVector(np.array([0.6, 0.8, 0.0]))
        report = unobserved_independence_scan(point, 1, Renormalized(Power(1.0)), 10, seed=24)
        assert report.k == 1
        assert report.spread == max(report.p_values) - min(report.p_values)
