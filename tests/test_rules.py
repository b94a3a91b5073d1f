"""Candidate rule family, normalization sums, and the defect scan."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bornlab import quantum, rules
from bornlab.quantum import ModulusVector, haar_state, moduli
from bornlab.rules import (
    ONE_STREAM_MIN,
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
MODULI = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0])
MALFORMED = ["nope", "power:", "power:zero", "affine:1", "", "renorm:renorm:born", "renorm:", "renorm:bogus", "renorm:power:x", "renorm:power:-1"]
# spellings and what parse_rule gave for them while it made the domain checks itself: a rule name,
# or the exact exception class
PARSED_BEFORE = {
    **dict.fromkeys(MALFORMED, ValueError),
    "renorm: power:4": "renorm:power:4.0",
    "Power:2": "power:2.0",
    "RENORM:BORN": "renorm:born",
    " renorm:born ": "renorm:born",
    "born:1": ValueError,
    "affine: 1: 2": "affine:1.0:2.0",
    "affine:1:2:3": ValueError,
    "affine:nan:1": ValueError,
    "power:inf": ValueError,
    "renorm:affine:-1:1": "renorm:affine:-1.0:1.0",  # 1 - a^2 is 0 at a = 1 only
    "renorm:affine:0:1e-320": "renorm:affine:0.0:1e-320",
    "renorm:affine:1:-1": DomainError,
    "renorm:affine:1:-0.2": DomainError,
    "affine:1e308:1e308": DomainError,
    "renorm:affine:1e308:1e308": DomainError,
    "renorm:affine:0:0": DomainError,  # the one change: it parsed to renorm:affine:0.0:0.0, which no row can renormalize
}


class TestRuleFamily:
    @staticmethod
    def assert_same_bits(actual, expected):
        assert type(actual) is type(expected)
        assert np.asarray(actual).tobytes() == np.asarray(expected).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        a=MODULI | arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(2, 8)), elements=MODULI),
        p=st.floats(0.25, 6.0) | st.sampled_from([1.0, 2.0]),
        s=st.floats(-3.0, 3.0) | st.sampled_from([-1.0, 0.0, 1.0]),
        m=st.floats(-2.0, 2.0) | st.sampled_from([-0.5, 0.0]),
    )
    def test_constructors_keep_the_formulas_bits(self, a, p, s, m):
        # born, power and affine give, bit for bit, the values of their
        # one-formula definitions: a^2, a^p and s a^2 + m
        self.assert_same_bits(Born()(a), np.square(a))
        self.assert_same_bits(Power(p)(a), np.power(a, p))
        self.assert_same_bits(Affine(s, m)(a), s * np.square(a) + m)

    def test_born_equals_power_two_equals_affine(self):
        a = np.linspace(0.0, 1.0, 100)
        np.testing.assert_array_equal(Born()(a), Power(2.0)(a))
        np.testing.assert_array_equal(Born()(a), Affine(1.0, 0.0)(a))

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
        "name, rule",
        [
            ("born", Born()),
            ("power:3", Power(3.0)),
            ("affine:2:0.5", Affine(2.0, 0.5)),
            ("renorm:power:4", Renormalized(Power(4.0))),
            ("renorm:born", Renormalized(Born())),
        ],
        ids=["born-Born", "power:3-Power", "affine:2:0.5-Affine", "renorm:power:4-Renormalized", "renorm:born-Renormalized"],
    )
    def test_known_names(self, name, rule):
        parsed = parse_rule(name)
        assert parsed == rule and parsed.name == rule.name

    def test_equality_reads_the_formula_not_the_name(self):
        # power:2 is born's formula under another name; affine:1:0 adds a 0 * a^0 term
        assert Power(2.0) == Born() and hash(Power(2.0)) == hash(Born())
        assert Power(2.0).name != Born().name
        assert Affine(1.0, 0.0) != Born()
        assert Renormalized(Power(2.0)) == Renormalized(Born()) != Born()

    def test_name_round_trip(self):
        for name in ("born", "power:3.0", "affine:2.0:0.5", "renorm:power:4.0"):
            assert parse_rule(name).name == name

    @pytest.mark.parametrize("bad", MALFORMED)
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))) as excinfo:
            parse_rule(bad)
        assert str(excinfo.value).count("malformed rule name") <= 1

    def test_negative_renormalized_base_is_a_domain_error_not_a_malformed_name(self):
        with pytest.raises(DomainError, match=re.escape("rule 'renorm:affine:1:-1' has a negative base value")) as excinfo:
            parse_rule("renorm:affine:1:-1")
        assert "malformed" not in str(excinfo.value)

    @pytest.mark.parametrize("spelling, parsed", PARSED_BEFORE.items(), ids=list(PARSED_BEFORE))
    def test_spellings_parse_as_before(self, spelling, parsed):
        if isinstance(parsed, str):
            assert parse_rule(spelling).name == parsed
        else:
            with pytest.raises(ValueError) as excinfo:
                parse_rule(spelling)
            assert type(excinfo.value) is parsed

    @pytest.mark.parametrize(
        "spelling, build",
        [
            ("affine:1e308:1e308", lambda: Affine(1e308, 1e308)),
            ("renorm:affine:1e308:1e308", lambda: Renormalized(Affine(1e308, 1e308))),
            ("renorm:affine:1:-1", lambda: Renormalized(Affine(1.0, -1.0))),
            ("renorm:affine:0:0", lambda: Renormalized(Affine(0.0, 0.0))),
        ],
        ids=["affine-overflow", "renorm:affine-overflow", "renorm:affine-negative", "renorm:affine-zero"],
    )
    def test_a_spelling_is_refused_as_its_factory_refuses_it(self, spelling, build):
        # the factory makes the refusal; parsing names the user's whole spelling in front of it
        with pytest.raises(DomainError) as built:
            build()
        with pytest.raises(DomainError) as parsed:
            parse_rule(spelling)
        assert str(parsed.value) == f"rule {spelling!r} {built.value}"

    def test_nesting_error_names_the_rule(self):
        with pytest.raises(ValueError, match=re.escape("malformed rule name 'renorm:renorm:born': renormalized rules cannot be nested")):
            parse_rule("renorm:renorm:born")
        with pytest.raises(ValueError, match="^renormalized rules cannot be nested$"):
            Renormalized(Renormalized(Born()))


class TestNormalizationSum:
    def test_born_is_the_orthant_identity(self):
        for seed in range(20):
            point = moduli(haar_state(4, np.random.default_rng(seed)).amplitudes)
            assert abs(normalization_sum(Born(), point.moduli) - 1.0) <= 1e-12

    def test_linear_rule_at_symmetric_point(self):
        assert abs(normalization_sum(Power(1.0), SYMMETRIC_QUBIT.moduli) - np.sqrt(2)) <= 1e-12

    def test_quartic_rule_at_symmetric_point(self):
        assert abs(normalization_sum(Power(4.0), SYMMETRIC_QUBIT.moduli) - 0.5) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(p=st.floats(0.25, 6.0), d=st.integers(2, 8), seed=st.integers(0, 10_000))
    def test_renormalized_rows_sum_to_one_within_rounding(self, p, d, seed):
        # a renormalized rule is summed like any other: the row sum of its probabilities
        rule = Renormalized(Power(p))
        z = np.random.default_rng(seed).standard_normal((5, d))
        rows = np.abs(z) / np.linalg.norm(z, axis=-1, keepdims=True)
        sums = normalization_sum(rule, rows)
        np.testing.assert_array_equal(sums, np.sum(rule_probabilities(rule, rows), axis=-1))
        np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)

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
        # a^2 - 0.5 sums to 0 on every row, but is negative at a = 0: refused when built
        with pytest.raises(DomainError, match="has a negative base value"):
            Renormalized(Affine(1.0, -0.5))
        # every a^2000 > 0 on [0, 1] at a > 0, yet (8^-1/2)^2000 underflows: the sum of a valid rule is 0
        with pytest.raises(DomainError, match="renormalization sum is not positive"):
            rule_probabilities(Renormalized(Power(2000.0)), np.full((1, 8), 8**-0.5))

    def test_renormalized_rows_reject_a_negative_value(self):
        # a^2 - 0.2 sums to 0.6 on each row, yet is -0.2 at the modulus 0: only the renormalized rule is a
        # domain error, refused when built; the plain rule's negative value is a defect, which falsify
        # reports as a verdict
        rows = np.array([[0.6, 0.8], [1.0, 0.0]])
        with pytest.raises(DomainError, match=re.escape("has a negative base value: affine:1.0:-0.2 is below 0 on [0, 1]")):
            Renormalized(Affine(1.0, -0.2))
        np.testing.assert_allclose(rule_probabilities(Affine(1.0, -0.2), rows), [[0.16, 0.44], [0.8, -0.2]])
        # a^2 - 1 is negative and sums to -1 on each row: refused when built, before any sum
        with pytest.raises(DomainError, match=re.escape("has a negative base value: affine:1.0:-1.0")):
            Renormalized(Affine(1.0, -1.0))

    def test_affine_rule_that_overflows_at_one_is_refused_when_parsed(self):
        # f(1) = scale + offset is the largest |f| on [0, 1]; opposite signs keep every value finite
        with pytest.raises(DomainError, match=r"affine:1e\+308:1e\+308 is not finite at every modulus"):
            parse_rule("affine:1e308:1e308")
        rule = parse_rule("affine:1e308:-1e308")
        assert np.all(np.isfinite(rule_probabilities(rule, np.array([[0.6, 0.8], [1.0, 0.0]]))))

    def test_overflow_is_a_domain_error(self):
        # 0.8e308 * (a^2 + 1) is finite on [0, 1], up to f(1) = 1.6e308, but a d=2 row sums to
        # s + 2m = 2.4e308: an inf defect would serialize as Infinity, and an inf
        # renormalization sum would turn every probability into 0.0
        rows = np.array([[0.6, 0.8], [1.0, 0.0]])
        rule = Affine(0.8e308, 0.8e308)
        assert np.all(np.isfinite(rule_probabilities(rule, rows)))
        for evaluate in (normalization_sum, lambda rule, rows: rule_probabilities(Renormalized(rule), rows)):
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
    @example(rule=Power(3.0), d=5, n=ONE_STREAM_MIN - 1, seed=7)  # the last scan of a substream per trial
    @example(rule=Power(3.0), d=5, n=ONE_STREAM_MIN, seed=7)  # the first scan drawn from one stream
    @example(rule=Power(3.0), d=5, n=259, seed=7)  # hundreds of rows from one stream
    def test_stacked_defects_equal_the_scalar_formula(self, rule, d, n, seed):
        # exact equality: stacking the trials must not change a single bit,
        # on either side of ONE_STREAM_MIN and at dimensions past BLAS's unroll
        # widths.  Each trial's moduli are rebuilt from numpy alone: below
        # ONE_STREAM_MIN, trial i's are |z| / norm(z) of the one (2, d) draw,
        # real parts then imaginary parts, from the SeedSequence of (seed, i);
        # from ONE_STREAM_MIN on, they are sqrt(e / sum(e)) of the i-th d
        # standard exponentials drawn from the SeedSequence of (seed,)
        def reference_state(i):
            real, imag = np.random.default_rng(np.random.SeedSequence((seed, i))).standard_normal((2, d))
            z = real + 1j * imag
            return z / np.linalg.norm(z)

        def exponential_row(rng):
            e = rng.standard_exponential(d)
            return np.sqrt(e / np.sum(e))

        if n < ONE_STREAM_MIN:
            points = [np.abs(reference_state(i)) for i in range(n)]
        else:
            rng = np.random.default_rng(np.random.SeedSequence((seed,)))
            points = [exponential_row(rng) for _ in range(n)]
        report = defect_scan(rule, d, n, seed)
        scalar = [abs(float(np.sum(rule(point))) - 1.0) for point in points]
        assert report.defects.tobytes() == np.array(scalar).tobytes()
        ends = rule(0.0), rule(1.0)  # every plain rule here is monotone on [0, 1]
        if min(ends) < 0.0 or max(ends) <= 0.0:  # below 0 somewhere, or 0 everywhere: no renormalization
            with pytest.raises(DomainError):
                Renormalized(rule)
        else:
            renormalized = defect_scan(Renormalized(rule), d, n, seed)
            np.testing.assert_array_equal(renormalized.defects, np.zeros(n))
            assert renormalized.argmax_state.moduli.tobytes() == np.abs(reference_state(0)).tobytes()
        # haar_state, which draws each trial of a scan below ONE_STREAM_MIN, keeps the reference bits
        assert haar_state(d, substream(seed, 0)).amplitudes.tobytes() == reference_state(0).tobytes()

    @staticmethod
    def counted_draws(monkeypatch, rule, trials):
        """The addresses of the substreams a scan takes: its trials' own, and its one stream."""
        singles, scans = [], []

        def recorder(addresses):
            return lambda *address: addresses.append(address) or substream(*address)

        monkeypatch.setattr(rules, "substream", recorder(singles))
        monkeypatch.setattr(quantum, "substream", recorder(scans))  # the one haar_moduli calls
        defect_scan(rule, 4, trials, 9)
        return singles, scans

    @pytest.mark.parametrize("rule, draws", [(Renormalized(Power(4.0)), 1), (Power(4.0), 50)])
    def test_renormalized_scan_draws_only_its_witness(self, monkeypatch, rule, draws):
        # the witness alone takes one substream; 50 plain trials take the scan's one stream
        singles, scans = self.counted_draws(monkeypatch, rule, 50)
        assert (singles, scans) == (([(9, 0)], []) if draws == 1 else ([], [(9,)]))

    @pytest.mark.parametrize("trials", [ONE_STREAM_MIN - 1, ONE_STREAM_MIN, 259])
    def test_a_scan_draws_one_stream_from_one_stream_min_trials(self, monkeypatch, trials):
        # from ONE_STREAM_MIN trials on, a scan derives exactly one stream, at its own address
        singles, scans = self.counted_draws(monkeypatch, Power(4.0), trials)
        if trials < ONE_STREAM_MIN:
            assert singles == [(9, i) for i in range(trials)] and scans == []
        else:
            assert singles == [] and scans == [(9,)]

    @pytest.mark.parametrize("d", [2, 5])
    def test_first_k_trials_are_a_k_trial_scan(self, d):
        # from ONE_STREAM_MIN on, trial i is the i-th d exponentials of the
        # scan's one stream, so no trial depends on how many follow it: for every k
        n = 259
        defects = defect_scan(Power(3.0), d, n, 7, 2).defects
        for k in range(ONE_STREAM_MIN, n + 1):
            assert defect_scan(Power(3.0), d, k, 7, 2).defects.tobytes() == defects[:k].tobytes(), k

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
