"""Candidate rule family, normalization sums, and the defect scan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import rules
from bornlab.quantum import ModulusVector, haar_state, moduli
from bornlab.rules import (
    Affine,
    Born,
    DomainError,
    Power,
    Renormalized,
    defect_scan,
    normalization_sum,
    parse_rule,
    rule_probabilities,
)
from bornlab.streams import substream

SYMMETRIC_QUBIT = ModulusVector(np.array([1.0, 1.0]) / np.sqrt(2))
PLAIN_RULES = st.one_of(
    st.just(Born()),
    st.builds(Power, st.floats(0.25, 6.0)),
    st.builds(Affine, st.floats(-2.0, 2.0), st.floats(-1.0, 1.0)),
)


class TestRuleFamily:
    def test_born_equals_power_two_equals_affine(self):
        born, power, affine = Born(), Power(2.0), Affine(1.0, 0.0)
        for a in np.linspace(0.0, 1.0, 100):
            assert abs(born(a) - power(a)) <= 1e-15
            assert abs(born(a) - affine(a)) <= 1e-15

    def test_endpoints_finite_for_all_kinds(self):
        for rule in (Born(), Power(0.5), Power(4.0), Affine(-3.0, 2.0)):
            assert np.isfinite(rule(0.0))
            assert np.isfinite(rule(1.0))

    def test_power_requires_positive_exponent(self):
        with pytest.raises(ValueError):
            Power(0.0)

    def test_boundary_values_of_the_quadratic_rule(self):
        assert Born()(1.0) == 1.0
        assert Born()(0.0) == 0.0

    def test_affine_example(self):
        assert abs(Affine(-1.0, 1.0)(0.6) - 0.64) <= 1e-15


class TestParsing:
    @pytest.mark.parametrize(
        "name, kind",
        [
            ("born", Born),
            ("power:3", Power),
            ("affine:2:0.5", Affine),
            ("renorm:power:4", Renormalized),
            ("renorm:born", Renormalized),
        ],
    )
    def test_known_names(self, name, kind):
        assert isinstance(parse_rule(name), kind)

    def test_name_round_trip(self):
        for name in ("born", "power:3.0", "affine:2.0:0.5", "renorm:power:4.0"):
            assert parse_rule(name).name == name

    @pytest.mark.parametrize("bad", ["nope", "power:", "power:zero", "affine:1", ""])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_rule(bad)


class TestNormalizationSum:
    def test_born_is_the_orthant_identity(self):
        for seed in range(20):
            point = moduli(haar_state(4, np.random.default_rng(seed)).amplitudes)
            assert abs(normalization_sum(Born(), point.moduli) - 1.0) <= 1e-12

    def test_linear_rule_at_symmetric_point(self):
        assert abs(normalization_sum(Power(1.0), SYMMETRIC_QUBIT.moduli) - np.sqrt(2)) <= 1e-12

    def test_quartic_rule_at_symmetric_point(self):
        assert abs(normalization_sum(Power(4.0), SYMMETRIC_QUBIT.moduli) - 0.5) <= 1e-12

    def test_renormalized_rules_are_rejected(self):
        with pytest.raises(TypeError, match="renorm:power:3.0"):
            normalization_sum(Renormalized(Power(3.0)), SYMMETRIC_QUBIT.moduli)

    @settings(max_examples=40, deadline=None)
    @given(rule=PLAIN_RULES, d=st.integers(2, 8), batch=st.sampled_from([(), (5,), (3, 4)]), seed=st.integers(0, 10_000))
    def test_rows_sum_like_one_row_at_a_time(self, rule, d, batch, seed):
        z = np.random.default_rng(seed).standard_normal((*batch, d))
        rows = np.abs(z) / np.linalg.norm(z, axis=-1, keepdims=True)
        sums = normalization_sum(rule, rows)
        assert sums.shape == batch
        for index in np.ndindex(batch):
            assert sums[index] == np.sum(rule(rows[index]))

    def test_renormalized_rows_reject_any_nonpositive_sum(self):
        rows = np.array([[0.6, 0.8], [1.0, 0.0]])
        np.testing.assert_allclose(np.sum(rule_probabilities(Renormalized(Born()), rows), axis=1), 1.0)
        # a^2 - 0.5 sums to 0 on every row: no renormalization exists
        with pytest.raises(DomainError):
            rule_probabilities(Renormalized(Affine(1.0, -0.5)), rows)

    def test_overflow_is_a_domain_error(self):
        # 1e308 * (a^2 + 1) exceeds the largest double once a^2 > 0.8:
        # an inf defect would serialize as Infinity, and an inf
        # renormalization sum would turn every probability into 0.0
        rows = np.array([[0.6, 0.8], [1.0, 0.0]])
        rule = Affine(1e308, 1e308)
        for evaluate in (normalization_sum, rule_probabilities, lambda rule, rows: Renormalized(rule).probabilities(rows)):
            with pytest.raises(DomainError, match="not finite"):
                evaluate(rule, rows)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), p=st.floats(0.5, 5.0))
    def test_renormalized_probabilities_sum_to_one(self, seed, p):
        point = moduli(haar_state(3, np.random.default_rng(seed)).amplitudes)
        values = rule_probabilities(Renormalized(Power(p)), point.moduli)
        assert abs(np.sum(values) - 1.0) <= 1e-12


class TestDefectScan:
    def test_born_never_defects(self):
        report = defect_scan(Born(), 3, 1000, seed=1)
        assert report.max_defect <= 1e-12

    def test_linear_rule_approaches_supremum(self):
        # the defect sup at d=2 is sqrt(2) - 1, attained at the symmetric
        # state; 1000 Haar draws get within 0.004 of it
        report = defect_scan(Power(1.0), 2, 1000, seed=2)
        assert report.max_defect >= 0.41
        assert report.max_defect <= np.sqrt(2) - 1 + 1e-12

    def test_affine_defect_is_constant(self):
        # sum (scale a^2 + offset) - 1 = scale + d*offset - 1 for every state
        report = defect_scan(Affine(1.0, 0.1), 3, 200, seed=3)
        expected = abs(1.0 + 3 * 0.1 - 1.0)
        assert np.max(np.abs(report.defects - expected)) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(
        scale=st.floats(-2.0, 2.0),
        offset=st.floats(-1.0, 1.0),
        d=st.integers(2, 6),
        seed=st.integers(0, 1000),
    )
    def test_affine_defect_formula(self, scale, offset, d, seed):
        report = defect_scan(Affine(scale, offset), d, 50, seed=seed)
        expected = abs(scale + d * offset - 1.0)
        assert np.max(np.abs(report.defects - expected)) <= 1e-12

    @pytest.mark.parametrize("p", [1.0, 3.0, 4.0])
    def test_non_quadratic_power_found_within_100_trials(self, p):
        report = defect_scan(Power(p), 2, 100, seed=4)
        assert report.max_defect >= 0.05

    @settings(max_examples=30, deadline=None)
    @given(rule=PLAIN_RULES, d=st.integers(2, 40), n=st.integers(1, 40), seed=st.integers(0, 10_000))
    def test_stacked_defects_equal_the_scalar_formula(self, rule, d, n, seed):
        # exact equality: stacking the trials must not change a single bit,
        # also at dimensions past BLAS's unroll widths.  Trial i's state is
        # rebuilt from numpy alone: z / norm(z), with z the two rows of a draw
        # from the SeedSequence of (seed, i)
        def reference_state(i):
            real, imag = np.random.default_rng(np.random.SeedSequence((seed, i))).standard_normal((2, d))
            z = real + 1j * imag
            return z / np.linalg.norm(z)

        report = defect_scan(rule, d, n, seed)
        scalar = [abs(float(np.sum(rule(np.abs(reference_state(i))))) - 1.0) for i in range(n)]
        assert report.defects.tobytes() == np.array(scalar).tobytes()
        renormalized = defect_scan(Renormalized(rule), d, n, seed)
        np.testing.assert_array_equal(renormalized.defects, np.zeros(n))
        assert renormalized.argmax_state.moduli.tobytes() == np.abs(reference_state(0)).tobytes()
        # a scan does not call haar_state, so its own bits are pinned here
        assert haar_state(d, substream(seed, 0)).amplitudes.tobytes() == reference_state(0).tobytes()

    @pytest.mark.parametrize("rule, draws", [(Renormalized(Power(4.0)), 1), (Power(4.0), 50)])
    def test_renormalized_scan_draws_only_its_witness(self, monkeypatch, rule, draws):
        calls = []

        def counted(*address):
            calls.append(address)
            return substream(*address)

        monkeypatch.setattr(rules, "substream", counted)
        defect_scan(rule, 4, 50, seed=9)
        assert len(calls) == draws

    def test_renormalized_report_is_that_of_every_trial(self):
        # every defect is 0, so the first trial is the witness, as when all are drawn
        report = defect_scan(Renormalized(Power(4.0)), 4, 50, seed=9)
        witness = moduli(haar_state(4, substream(9, 0)).amplitudes)
        assert report.as_dict() == {
            "rule": "renorm:power:4.0",
            "dim": 4,
            "trials": 50,
            "max_defect": 0.0,
            "mean_defect": 0.0,
            "argmax_state": [float(x) for x in witness.moduli],
            "address": [9],
        }
        np.testing.assert_array_equal(report.defects, np.zeros(50))

    @pytest.mark.parametrize("rule", [Born(), Renormalized(Born())])
    def test_scan_needs_a_dimension(self, rule):
        with pytest.raises(ValueError):
            defect_scan(rule, 0, 5, seed=0)

    def test_witness_is_recorded(self):
        report = defect_scan(Power(1.0), 2, 500, seed=5)
        witness_sum = normalization_sum(Power(1.0), report.argmax_state.moduli)
        assert abs(abs(witness_sum - 1.0) - report.max_defect) <= 1e-15

    def test_renormalized_always_passes_this_falsifier(self):
        report = defect_scan(Renormalized(Power(4.0)), 3, 200, seed=6)
        assert report.max_defect == 0.0

    def test_deterministic_and_thread_invariant(self):
        # the scan runs on the calling thread, so invariance is a rerun
        a = defect_scan(Power(1.5), 3, 400, seed=7)
        b = defect_scan(Power(1.5), 3, 400, seed=7)
        np.testing.assert_array_equal(a.defects, b.defects)
        assert a.max_defect == b.max_defect
        np.testing.assert_array_equal(a.argmax_state.moduli, b.argmax_state.moduli)

    def test_max_dominates_mean(self):
        report = defect_scan(Power(3.0), 4, 300, seed=8)
        assert report.max_defect >= report.mean_defect >= 0.0

    def test_requires_at_least_one_trial(self):
        with pytest.raises(ValueError):
            defect_scan(Born(), 2, 0, seed=0)
