"""Time a workload campaign through the bornlab CLI and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload defect-scan --seed 1 --seconds 20 --trace 0

One caller drives ``bornlab.cli.main(argv)`` in-process as a closed loop:
the next invocation starts when the previous one returns.  Every reply is
checked (see ``campaign.check``).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it print every metric with its unit, the machine facts and the
failure counts.  A record of the run, with every invocation's time, is
written to ``.bench_build/perfbench/``.

A shared 2-core VM can change speed by 10-40% for seconds to minutes at a
time, and the hypervisor steal counter explains only part of it.  So after
every invocation the loop also times ``host_kernel``, a fixed piece of numpy
and interpreter work that uses no bornlab code.  Each invocation's wall time
is scaled by ``KERNEL_REF_S`` over the mean kernel time around it: the time
it would take on a host where the kernel takes ``KERNEL_REF_S``.  Unscaled
wall times are printed beside the metrics and kept in the run record.
``--threads 2`` invocations stay the noisiest: their GIL hand-offs between
the two cores slow down more than the kernel does when the host is busy.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

* ``run_s``: the campaign's summed invocation times, scaled as above.
* ``cmd_p50_ms``, ``cmd_p90_ms``: median and 90th-percentile scaled
  invocation time.
* ``setup_s``: import of numpy and bornlab plus one warm-up invocation,
  scaled by the median of a few kernel times taken right after it; the
  median over this process and ``SETUP_PROBES`` child processes.
* ``peak_rss_mb``: peak resident memory of this process.
* ``ok_ratio``: invocations that passed every check over those attempted,
  that is 1 - fail_ratio; the failed and attempted counts are printed with it.

``--trace 1`` runs the campaign untraced, then traced, and reports the
per-layer metrics of ``PER_LAYER``, including the tracing overhead.  The
spans are written to ``.bench_build/perfbench/spans-<workload>.npz``.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402  (set-up time counts from STARTED)
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("defect-scan", "independence-threads", "fit-and-sample")
# One BLAS thread per process, so --threads 2 cannot put 2 x 2 threads on 2 cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 8
KERNEL_DRAWS = 100
KERNEL_WINDOW = 8
KERNEL_REF_S = 0.004  # median host_kernel time on a 2-core x86-64 VM, Python 3.11, numpy 2.4

END_TO_END = (
    ("run_s", "s"),
    ("cmd_p50_ms", "ms"),
    ("cmd_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)
# "<layer>.calls" and "<layer>.self_s" come from the spans of the layers in
# tracing.TARGETS; the other per-layer metrics are derived in layer_metrics().
PER_LAYER = (
    ("streams.substream.calls", "count"),
    ("streams.substream.self_s", "s"),
    ("quantum.haar_state.self_s", "s"),
    ("quantum.moduli.self_s", "s"),
    ("quantum.validate.calls", "count"),
    ("quantum.validate.self_s", "s"),
    ("rules.defect_scan.calls", "count"),
    ("rules.defect_scan.self_s", "s"),
    ("rules.normalization_sum.self_s", "s"),
    ("rules.rule_probabilities.self_s", "s"),
    ("rules.trials", "count"),
    ("linalg.haar_array.calls", "count"),
    ("linalg.haar_array.self_s", "s"),
    ("linalg.complete_basis.self_s", "s"),
    ("linalg.validate.calls", "count"),
    ("linalg.validate.self_s", "s"),
    ("quantum.from_eigenbasis.self_s", "s"),
    ("quantum.expand.self_s", "s"),
    ("invariance.observable_with_eigenstate.self_s", "s"),
    ("invariance.match_eigenvector.self_s", "s"),
    ("invariance.complement_rotation.self_s", "s"),
    ("invariance.scan.self_s", "s"),
    ("invariance.draws", "count"),
    ("threads.pool_wait_s", "s"),
    ("threads.speedup_2v1", "ratio"),
    ("variational.recover_rule.self_s", "s"),
    ("variational.rule_stationarity.self_s", "s"),
    ("variational.outcome_stationarity.self_s", "s"),
    ("variational.closed_form_check.self_s", "s"),
    ("variational.fit_power_series.self_s", "s"),
    ("quantum.sample_outcomes.calls", "count"),
    ("quantum.sample_outcomes.self_s", "s"),
    ("quantum.measure.self_s", "s"),
    ("linalg.eigendecompose.calls", "count"),
    ("linalg.eigendecompose.self_s", "s"),
    ("cli.serialize.self_s", "s"),
    ("cli.serialize.bytes", "B"),
    ("cli.command.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.uncovered_s", "s"),
)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benchmark the bornlab CLI on one workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10, help="nominal campaign length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up seconds and exit")
    return parser.parse_args(argv)


def load_bornlab():
    """Import bornlab from this checkout's sources, never from site-packages."""
    src = ROOT / "src"
    if not (src / "bornlab" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no bornlab sources in {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    from bornlab import cli

    return cli


def steal_ticks() -> int | None:
    """Hypervisor steal ticks of all CPUs so far, from /proc/stat (read only)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def host_kernel() -> float:
    """Seconds for fixed numpy and interpreter work that uses no bornlab code."""
    import numpy as np

    start = perf_counter()
    for i in range(KERNEL_DRAWS):
        rng = np.random.default_rng(np.random.SeedSequence((7, i)))
        z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        np.abs(z / np.linalg.norm(z)).sum()
    return perf_counter() - start


def scale_to_reference(times: list[float], kernels: list[float]) -> list[float]:
    """Each time times KERNEL_REF_S over the mean of the KERNEL_WINDOW kernel
    times nearest to it (kernel i is taken right after invocation i)."""
    scaled = []
    for i, t in enumerate(times):
        lo = min(max(0, i - KERNEL_WINDOW // 2), max(0, len(kernels) - KERNEL_WINDOW))
        window = kernels[lo:lo + KERNEL_WINDOW]
        scaled.append(t * KERNEL_REF_S * len(window) / sum(window))
    return scaled


def invoke(main, argv: tuple[str, ...]) -> tuple[float, int | None, str]:
    """One CLI call: (wall seconds, exit code or None on a crash, output)."""
    out = io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out):
            code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception:  # a crash is a failed invocation, not the end of the run
        code = None
        out.write(traceback.format_exc())
    return perf_counter() - start, code, out.getvalue()


@dataclass
class Campaign:
    wall_s: float          # the whole loop, host kernels included
    times: list[float]     # wall seconds of each invocation
    kernels: list[float]   # host_kernel seconds right after each invocation
    scaled: list[float]    # invocation times at the reference host speed
    outcomes: list[str]
    payloads: list[str | None]
    steal: int | None

    @property
    def run_s(self) -> float:
        return sum(self.scaled)


def run_campaign(main, invocations, tracer=None) -> Campaign:
    """Run the invocations back to back; check the replies after the clock stops."""
    from perfbench import campaign

    gc.collect()
    steal_before = steal_ticks()
    replies, kernels = [], []
    begin = perf_counter()
    for inv in invocations:
        if tracer is None:
            replies.append(invoke(main, inv.argv))
        else:
            row = tracer.open(tracer.root)
            replies.append(invoke(main, inv.argv))
            tracer.close(row)
        kernels.append(host_kernel())
    wall_s = perf_counter() - begin
    steal_after = steal_ticks()

    times = [t for t, _, _ in replies]
    outcomes, payloads = [], []
    for inv, (_, code, text) in zip(invocations, replies):
        try:
            if code is None:
                raise ValueError(text.strip().splitlines()[-1])
            payload = campaign.results_payload(inv.argv, text)
            outcome = campaign.check(inv.argv, code, text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            payload, outcome = None, f"unexpected: no readable report ({exc})"
        if inv.twin >= 0 and payload != payloads[inv.twin]:
            outcome = "unexpected: results differ from the --threads 1 twin"
        outcomes.append(outcome)
        payloads.append(payload)
    steal = None if steal_before is None or steal_after is None else steal_after - steal_before
    return Campaign(wall_s, times, kernels, scale_to_reference(times, kernels),
                    outcomes, payloads, steal)


def setup_probes(args: argparse.Namespace) -> list[float]:
    """Scaled set-up seconds measured by fresh child processes, run one at a time."""
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(done.stdout.split()[-1]))
    return out


def facts(np, run: Campaign) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {name: os.environ[name] for name in THREAD_VARS},
        "steal_ticks": run.steal,
        "host_speed": statistics.median(s / t for s, t in zip(run.scaled, run.times)),
        "wall_s": run.wall_s,
    }


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end_metrics(run: Campaign, setups: list[float], failed: int) -> dict:
    ms = [t * 1000.0 for t in run.scaled]
    return {
        "run_s": run.run_s,
        "cmd_p50_ms": statistics.median(ms),
        "cmd_p90_ms": p90(ms),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (len(ms) - failed) / len(ms),
    }


def thread_speedup(invocations, times: list[float]) -> float:
    """Summed --threads 1 time over summed --threads 2 time of the twin pairs; 0 if none."""
    pairs = [(times[inv.twin], times[i]) for i, inv in enumerate(invocations) if inv.twin >= 0]
    if not pairs:
        return 0.0
    return sum(t1 for t1, _ in pairs) / sum(t2 for _, t2 in pairs)


def layer_metrics(tracer, traced: Campaign, untraced: Campaign, invocations) -> dict:
    from perfbench.tracing import POOL

    totals = tracer.totals()

    def total(layer: str, key: str) -> float:
        return sum(totals.get(name, {}).get(key, 0.0) for name in (layer, layer + POOL))

    derived = {
        "rules.trials": total("rules.defect_scan", "amount"),
        "invariance.draws": total("invariance.scan", "amount"),
        "cli.serialize.bytes": total("cli.serialize", "amount"),
        "threads.pool_wait_s": sum(totals.get(name + POOL, {}).get("self_s", 0.0)
                                   for name in ("rules.defect_scan", "invariance.scan")),
        "threads.speedup_2v1": thread_speedup(invocations, untraced.scaled),
        "trace.overhead_s": traced.run_s - untraced.run_s,
        "trace.uncovered_s": traced.wall_s - tracer.main_root_seconds(),
    }
    metrics = {}
    for name, unit in PER_LAYER:
        value = derived[name] if name in derived else total(*name.rsplit(".", 1))
        metrics[name] = int(value) if unit in ("count", "B") else float(value)
    return metrics


def traced_run(cli, invocations, untraced: Campaign, workload: str) -> tuple[Campaign, dict]:
    """The campaign again with every layer traced; its results must not change."""
    from perfbench.tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        run = run_campaign(cli.main, invocations, tracer)
    finally:
        tracer.uninstall()
    run.outcomes = [outcome if mine == theirs else "unexpected: traced results differ"
                    for outcome, mine, theirs in zip(run.outcomes, run.payloads, untraced.payloads)]
    tracer.write(OUT / f"spans-{workload}.npz")
    return run, layer_metrics(tracer, run, untraced, invocations)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for name in THREAD_VARS:
        os.environ[name] = "1"
    cli = load_bornlab()
    import numpy as np

    from perfbench import campaign

    rounds = campaign.rounds_for(args.workload, args.seconds)
    invocations = campaign.build(args.workload, args.seed, rounds)
    invoke(cli.main, invocations[0].argv)  # warm-up
    setup_s = perf_counter() - STARTED
    setup_s *= KERNEL_REF_S / statistics.median(host_kernel() for _ in range(5))
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} rounds={rounds} invocations={len(invocations)}")
    run = untraced = run_campaign(cli.main, invocations)
    if args.trace:
        run, metrics = traced_run(cli, invocations, untraced, args.workload)
        units = dict(PER_LAYER)
    else:
        units = dict(END_TO_END)

    known = {name: run.outcomes.count(name) for name in campaign.KNOWN_DEFECTS}
    unexpected = [o for o in run.outcomes if o != "ok" and o not in campaign.KNOWN_DEFECTS]
    failed = sum(known.values()) + len(unexpected)
    if not args.trace:
        metrics = end_to_end_metrics(run, [setup_s] + setup_probes(args), failed)

    record = facts(np, run)
    print("facts " + json.dumps(record))
    for name, value in metrics.items():
        print(f"  {name:46s} {value:14.6g} {units[name]}")
    if args.trace:
        print(f"  tracing overhead {metrics['trace.overhead_s']:.3f} s on an untraced "
              f"run_s of {untraced.run_s:.3f} s")
    else:
        above = sum(t * 1000.0 > metrics["cmd_p90_ms"] for t in run.scaled)
        wall_ms = [t * 1000.0 for t in run.times]
        print(f"  samples: {len(run.times)} invocations, {above} above cmd_p90_ms")
        print(f"  unscaled: invocations {sum(run.times):.3f} s, p50 "
              f"{statistics.median(wall_ms):.3f} ms, p90 {p90(wall_ms):.3f} ms")
    print(f"  fail_ratio {failed / len(run.outcomes):.4f}: {failed} failed of "
          f"{len(run.outcomes)} attempted; known defects {known}; unexpected {len(unexpected)}")
    for outcome in sorted(set(unexpected))[:5]:
        print(f"  unexpected failure: {outcome}", file=sys.stderr)

    OUT.mkdir(parents=True, exist_ok=True)
    record.update(metrics=metrics, argv=[inv.argv for inv in invocations], times=run.times,
                  kernels=run.kernels, outcomes=run.outcomes)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(run.outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
