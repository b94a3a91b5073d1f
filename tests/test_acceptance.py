"""Acceptance suite: every exit criterion at its stated tolerance.

Each check prints one pass/fail line (visible with pytest -s or in the
captured output of a failing run) and then asserts, so the suite both
documents and enforces the thresholds.
"""

import functools
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from bornlab.cli import main as cli_main
from bornlab.invariance import observable_independence_scan
from bornlab.linalg import ginibre, haar_array, haar_factor
from bornlab.quantum import (
    ModulusVector,
    chi_square_test,
    expand,
    haar_state,
    measure,
    moduli,
    sample_outcomes,
    spin1_observables,
)
from bornlab.rules import (
    Affine,
    Born,
    Power,
    Renormalized,
    defect_scan,
    normalization_sum,
    rule_probabilities,
)
from bornlab.streams import substream
from bornlab.tolerances import TOL
from bornlab.variational import (
    closed_form_check,
    outcome_stationarity,
    recover_rule,
    rule_stationarity,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
def test_criterion_1_born_normalization(d):
    """Quadratic-rule outcome values sum to one for every state and basis."""
    born = Born()
    rngs = [substream(1, d, i) for i in range(10_000)]
    vectors = haar_factor(np.array([ginibre(rng, (d, d)) for rng in rngs]))  # pair i draws its eigenbasis, then its state
    worst = 0.0
    for rng, eigenvectors in zip(rngs, vectors):
        p = rule_probabilities(born, moduli(expand(haar_state(d, rng), eigenvectors)).moduli)
        worst = max(worst, abs(float(np.sum(p)) - 1.0))
    report(
        f"criterion 1 (d={d})",
        worst <= 1e-12,
        f"max |sum p - 1| = {worst:.3e} over 10^4 Haar pairs (tol 1e-12)",
    )


@pytest.mark.parametrize("p", [1.0, 3.0, 4.0])
def test_criterion_2_power_rule_falsified(p):
    """Non-quadratic powers defect within 100 trials; the symmetric state
    realizes the analytic worst case |2^(1-p/2) - 1|."""
    scan = defect_scan(Power(p), 2, 100, seed=2)
    found = scan.max_defect >= 0.05

    symmetric = ModulusVector(np.array([1.0, 1.0]) / np.sqrt(2))
    witness_defect = abs(normalization_sum(Power(p), symmetric.moduli) - 1.0)
    analytic = abs(2.0 ** (1.0 - p / 2.0) - 1.0)
    matches = abs(witness_defect - analytic) <= 1e-10

    report(
        f"criterion 2 (p={p:g})",
        found and matches,
        f"scan defect {scan.max_defect:.4f} >= 0.05; symmetric-state defect "
        f"{witness_defect:.12f} vs analytic {analytic:.12f} (tol 1e-10)",
    )


def test_criterion_3_affine_defect_formula():
    """The quadratic-affine family defects by exactly |scale + d*offset - 1|."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        scale = float(rng.uniform(-2.0, 2.0))
        offset = float(rng.uniform(-1.0, 1.0))
        d = int(rng.integers(2, 9))
        scan = defect_scan(Affine(scale, offset), d, 50, seed=int(rng.integers(0, 1000)))
        expected = abs(scale + d * offset - 1.0)
        worst = max(worst, float(np.max(np.abs(scan.defects - expected))))
    report(
        "criterion 3",
        worst <= 1e-12,
        f"max |defect - |scale + d*offset - 1|| = {worst:.3e} over 20 triples (tol 1e-12)",
    )


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_criterion_4_born_observable_independence(d):
    """Quadratic-rule outcome probability ignores the rest of the basis.

    The shared eigenvector is e_0: psi is Haar, so any fixed one has the same law."""
    worst = 0.0
    for state in range(20):
        point = moduli(haar_state(d, substream(4, d, state, 0)).amplitudes)
        scan = observable_independence_scan(point, Born(), 100, seed=state)
        worst = max(worst, scan.as_dict()["spread"])
    report(
        f"criterion 4 (d={d})",
        worst <= 1e-12,
        f"max spread {worst:.3e} over 20 states x 100 observables (tol 1e-12)",
    )


@pytest.mark.parametrize("p", [1.0, 4.0])
def test_criterion_4_renormalized_rules_leak(p):
    """Renormalized rules fail observable independence at d = 3."""
    point = moduli(haar_state(3, substream(44, 0)).amplitudes)
    spread = observable_independence_scan(point, Renormalized(Power(p)), 100, seed=44).as_dict()["spread"]
    report(
        f"criterion 4 (renorm power {p:g})",
        spread > 1e-3,
        f"spread {spread:.5f} > 1e-3 within 100 draws at d=3",
    )


def test_criterion_5_born_stationarity():
    """Quadratic-rule residuals vanish: unit multiplier for the sum form,
    zero multiplier for the outcome form."""
    born = Born()
    rows = np.array([moduli(haar_state(3, substream(5, i)).amplitudes).moduli for i in range(1000)])
    ks = np.arange(1000) % 3
    worst_sum = float(np.max(np.abs(rule_stationarity(born, rows, 1.0))))
    worst_outcome = float(np.max(np.abs(
        outcome_stationarity(functools.partial(rule_probabilities, born), rows, ks, 0.0)
    )))
    report(
        "criterion 5",
        worst_sum <= 1e-6 and worst_outcome <= 1e-6,
        f"sum-form residual {worst_sum:.3e}, outcome-form residual "
        f"{worst_outcome:.3e} over 10^3 points (tol 1e-6)",
    )


def test_criterion_6_closed_form_fit():
    """The closed-form member f = 2a^2 - 1 is stationary in both forms; the
    boundary values f(0) = 0, f(1) = 1 then leave only the square."""
    worst = 0.0
    for d in range(2, 9):  # point i has d = 2 + i % 7: one call per dimension
        index = np.arange(d - 2, 10_000, 7)
        rows = np.array([moduli(haar_state(d, substream(6, int(i))).amplitudes).moduli for i in index])
        worst = max(worst, float(np.max(closed_form_check(rows, index % d, 2.0, -1.0))))
    report(
        "criterion 6",
        worst <= 1e-6,
        f"closed-form residual {worst:.3e} over 10^4 points at d=2..8 (tol 1e-6)",
    )


def test_criterion_7_recovery_unique():
    """Least squares over quartic polynomials lands on the square, every seed."""
    target = np.array([0.0, 1.0, 0.0, 0.0])
    worst = 0.0
    for seed in range(20):
        coefficients, _, _ = recover_rule([2, 3], 500, seed=seed)
        worst = max(worst, float(np.max(np.abs(coefficients - target))))
    ok_mixed = worst <= 1e-3

    qubit_only, _, _ = recover_rule([2], 500, seed=0)
    qubit_err = float(np.max(np.abs(qubit_only - target)))
    report(
        "criterion 7",
        ok_mixed and qubit_err <= 1e-2,
        f"20 seeds max coefficient error {worst:.3e} (tol 1e-3); "
        f"d=2-only error {qubit_err:.3e} (tol 1e-2)",
    )


def test_criterion_8_spin1_demo():
    """Both spin-1 operators give the middle state the same probability,
    and the fixture matrix matches the ladder-operator construction."""
    matrices, _, vectors = spin1_observables()

    # oracle: Jx, Jy from the spin-1 ladder operators
    m_values = np.array([1.0, 0.0, -1.0])
    jplus = np.zeros((3, 3))
    for i in range(2):
        k = m_values[i + 1]
        jplus[i, i + 1] = np.sqrt(2.0 - k * (k + 1.0))
    jx = (jplus + jplus.T) / 2
    jy = (jplus - jplus.T) / 2j
    oracle = jx @ jx - jy @ jy
    matrix_ok = bool(
        np.max(np.abs(matrices[1] - oracle)) <= 1e-15
        and np.max(np.abs(oracle - np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]]))) <= 1e-15
    )

    states = np.array([haar_state(3, substream(8, i)).amplitudes for i in range(1000)])
    shared = vectors[:, :, 1]  # the middle column of Jz and of Jx^2 - Jy^2
    p_z, p_x = (np.abs(states @ np.conj(vector)) ** 2 for vector in shared)
    worst = float(np.max(np.abs(p_z - p_x)))
    report(
        "criterion 8",
        matrix_ok and worst <= 1e-12,
        f"matrix matches ladder oracle: {matrix_ok}; max probability delta "
        f"{worst:.3e} over 10^3 states (tol 1e-12)",
    )


def test_criterion_9_sampling_and_collapse():
    """Sampled counts pass a chi-square test at the run-wide 3-sigma level
    (0.27% false alarms over the 10 pairs together) and collapse repeats."""
    shots = 100_000
    all_within = True
    all_repeat = True
    for i in range(10):
        vectors = haar_array(3, substream(9, i, 1))
        psi = haar_state(3, substream(9, i, 0))
        p = rule_probabilities(Born(), moduli(expand(psi, vectors)).moduli)
        counts = sample_outcomes(p[None], shots, substream(9, i, 2))[0]
        all_within = all_within and chi_square_test(counts, shots * p)[2] >= TOL.sample_p_value(10)

        first, post_state = measure(p, vectors, substream(9, i, 3))
        post = rule_probabilities(Born(), moduli(expand(post_state, vectors)).moduli)
        repeat_rng = substream(9, i, 4)
        repeats = sum(measure(post, vectors, repeat_rng)[0] == first for _ in range(100))
        all_repeat = all_repeat and repeats == 100
    report(
        "criterion 9",
        all_within and all_repeat,
        f"10 pairs x 10^5 shots pass the Sidak-corrected chi-square test: {all_within}; "
        f"collapse re-measurement 100/100: {all_repeat}",
    )


def _criterion_10_commands() -> list[list[str]]:
    """The determinism criterion's commands: the first rows of the result-hash table."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "result_hashes.py"
    spec = importlib.util.spec_from_file_location("result_hashes", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script.CRITERION_10_COMMANDS


CRITERION_10_COMMANDS = _criterion_10_commands()


def _results_payload(capsys, argv) -> str:
    cli_main(argv)
    report_dict = json.loads(capsys.readouterr().out)
    return json.dumps(report_dict["results"])


def test_criterion_10_determinism(capsys):
    """Same seed, same results payload, for every command and thread count."""
    stable = True
    for argv in CRITERION_10_COMMANDS:
        first = _results_payload(capsys, argv + ["--seed", "10"])
        second = _results_payload(capsys, argv + ["--seed", "10"])
        threaded = _results_payload(capsys, argv + ["--seed", "10", "--threads", "8"])
        if not (first == second == threaded):
            stable = False
            print(f"[criterion 10] mismatch for {' '.join(argv)}")
    report(
        "criterion 10",
        stable,
        f"{len(CRITERION_10_COMMANDS)} commands byte-identical across reruns "
        "and --threads 1 vs 8",
    )
