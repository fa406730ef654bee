"""Benchmark of the vfcontrol pipeline: explore -> fit -> evaluate, end to end and per module.

Run from the repository root; nothing needs installing, the package is
imported from ``src/``:

    python3 bench/run.py --workload amp2d --seed 11 --seconds 45 --trace 0
    python3 bench/run.py --workload nhe36 --seed 11 --seconds 45 --trace 1

``--trace 0`` repeats the pipeline (at least ``MIN_PASSES`` times, then as
often as ``--seconds`` allows, alternating between ``DRAWS`` data draws of the
seed) and reports the end-to-end metrics: stage wall
times as means over the passes; feedback latency percentiles per surrogate
variant, taken over the states of each state's latency, the lower quartile of
its timings in rounds spread through the run; set-up time as the median of
fresh set-up processes spread over the run; peak RSS; and the closed-loop
accuracy of both variants in decimal digits.  All times are scaled to a
fixed machine speed measured next to them (see ``PROBE_REFERENCE_S``).  MRL2
and the share of failed operations are printed with them.  ``--trace 1`` runs one untraced
and one traced pass and reports the per-module metrics of the traced pass,
MRL2 and the tracing overhead (traced minus untraced ``pipeline_s``); its
spans go to ``--out``.

Every pass is gated: a failed correctness check, passes of the same seed that
disagree bit for bit, or a non-finite metric make the run fail with exit code
1.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it are
the readable report.  A fuller record (environment, every pass, digests) is
written to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
# One process runs one workload single-threaded: BLAS and OpenMP pools are
# pinned before numpy is first imported, so every stage time is one core's.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# states along the reference paths at which optimal_control is timed, once
# per variant in every round of feedback timing
FEEDBACK_SAMPLES = 1000
# rounds of feedback timing at every stage boundary of an untraced pass
FEEDBACK_ROUNDS_PER_BOUNDARY = 2
# untraced passes of a --trace 0 run; every pass after the first has four
# stage boundaries, so the minimum gives 16 rounds of feedback timing
MIN_PASSES = 3
# Independent data draws of one run: pass k of a --trace 0 run runs on draw
# d = k % DRAWS, whose inputs are built from seed + d * DRAW_SEED_STEP (draw 0
# from the seed itself), and the accuracy metrics are means over the draws.  The
# surrogates' accuracy moves with the data a seed draws: on amp2d the digits
# of one draw spread 0.1-0.28 over ten seeds, whether the test states changed
# with the seed or not.  Two draws cut that by about 1/sqrt(2); with
# MIN_PASSES = 3 draw 0 runs twice, so the determinism check always has a pair.
DRAWS = 2
DRAW_SEED_STEP = 2**20
# The shared 2-vCPU machine the benchmark was tuned on (2.1 GHz Xeon) switches,
# every few seconds and in spells of up to minutes, between its uncontended
# speed and about half of it for interpreter-bound code; process CPU time
# slows alike.  So a fixed kernel of small numpy calls, the speed probe, is
# timed at every stage boundary and around every round of feedback calls, and
# times are scaled to PROBE_REFERENCE_S, about the probe's uncontended time
# there: a round's latencies by the probes around it (the code is alike, and
# a round is short), the set-up times by the mean of all probes of the run.
# Over ten seeds, scaling cut the spread (IQR/median) of the median latency
# from 0.2-0.4 to 0.03-0.08.
# Single calls of about 100 us are slowed at random by the machine's sharing,
# and the p99 of the calls as timed followed that noise: 0.15-0.3 over ten
# seeds, whether scaled or not.  So every state is timed in many rounds, its
# latency is the lower quartile of its scaled timings (the sharing only ever
# slows a call), and the percentiles are taken over the states.  With 12 or
# more rounds that held p99 to 0.02-0.07, against 0.04-0.14 for the median.
PROBE_REFERENCE_S = 0.005
PROBE_ITERATIONS = 1500
# The speed also switches within a stage, which probes at its ends miss:
# scaled by the run's mean probe, the stage times still spread 0.1-0.2 over
# ten seeds, and nhe36's evaluate_s followed its end probes only loosely
# (correlation 0.46).  So a stage is scaled by samples of a short probe
# taken during it, from a timer signal (StageSpeed); the time the samples
# take, about 1% of the stage, is taken off the stage time.
SAMPLE_INTERVAL_S = 0.05
SAMPLE_ITERATIONS = 100
SAMPLE_REFERENCE_S = PROBE_REFERENCE_S * SAMPLE_ITERATIONS / PROBE_ITERATIONS

END_TO_END = {
    # name: unit
    "setup_s": "s",  # imports, model build, quadratic_matrix, candidate and test pools
    "explore_s": "s",  # run_exploration
    "fit_s": "s",  # run_vkoga, plain and structured
    "evaluate_s": "s",  # solve_testset references, evaluate_surrogate for both variants
    "pipeline_s": "s",  # explore + fit + evaluate of one pass
    # one optimal_control(model, x, s.gradient(x)) call at FEEDBACK_SAMPLES
    # states along the reference paths: p50 and p99 over the states of each
    # state's latency, the lower quartile of its timings; the variants differ
    # in cost, so each has its own
    "feedback_us_p50_plain": "us",
    "feedback_us_p99_plain": "us",
    "feedback_us_p50_structured": "us",
    "feedback_us_p99_structured": "us",
    "peak_rss_mb": "MB",  # peak resident set of the workload process
    # closed-loop accuracy on the references, per variant (pipeline.accuracy_digits)
    "accuracy_digits_plain": "digits",
    "accuracy_digits_structured": "digits",
}

# Per-module metrics of the traced pass: span aggregates (calls, s, self_s)
# and counters from tracing.instrument.
SPAN_METRICS = {
    "models.pmp_rhs": ("calls", "s"),
    "riccati.quadratic_matrix": ("s",),
    "openloop.solve_open_loop": ("calls", "s"),
    "openloop.solve_pmp": ("calls", "s", "self_s"),
    "openloop.bvp_residual": ("calls", "s"),
    "openloop.splu": ("calls", "s"),
    "openloop.initial_guess": ("calls", "s"),
    "explore.run_exploration": ("s",),
    "explore.solve_testset": ("s",),
    "kernels.WendlandC4.profile": ("calls", "s"),
    "hermite.HermiteOperator": ("calls", "s"),
    "hermite.HermiteOperator.matvec": ("calls", "s"),
    "hermite.fit": ("calls", "s"),
    "numerics.cg_solve": ("calls", "s"),
    "numerics.integrate_ivp": ("calls", "s"),
    "vkoga.run_vkoga": ("s", "self_s"),
    "vkoga.scan": ("calls", "s"),
    "evaluate.simulate_feedback": ("calls", "s"),
    "evaluate.rhs": ("calls", "s"),
}
COUNTER_METRICS = (
    "models.pmp_rhs.rows",
    "openloop.solve_pmp.failures",
    "openloop.newton_iterations",
    "openloop.refine_rounds",
    "explore.trajectories",
    "explore.samples",
    "explore.quarantined",
    "explore.warm_attempts",
    "explore.warm_hits",
    "kernels.WendlandC4.profile.pairs",
    "hermite.HermiteOperator.matvec.flops_computed",
    "hermite.HermiteOperator.matvec.bytes_computed",
    "numerics.cg_solve.iterations",
    "numerics.cg_solve.iterations_last",
    "numerics.integrate_ivp.failures",
    "vkoga.steps",
    "evaluate.escaped",
    "evaluate.integrator_failures",
)

# closed-loop MRL2 of both variants and of the quadratic baseline; it moves
# several-fold with the data a seed draws, so the bounded accuracy metrics are
# the end-to-end accuracy_digits_*, and these are gated and reported here
MRL2_METRICS = ("evaluate.mrl2_plain", "evaluate.mrl2_structured", "evaluate.mrl2_quadratic")


def per_layer_units() -> dict:
    """Every per-module metric name with its unit, in report order."""
    units = {}
    for span, fields in SPAN_METRICS.items():
        for f in fields:
            units[f"{span}.{f}"] = "count" if f == "calls" else "s"
    for name in COUNTER_METRICS:
        units[name] = "B" if name.endswith("bytes_computed") else "flop" if name.endswith("flops_computed") else "count"
    units["explore.warm_hit_rate"] = "1"
    for name in MRL2_METRICS:
        units[name] = "1"
    units["trace.overhead_s"] = "s"
    return dict(sorted(units.items()))


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def find_package() -> None:
    src = ROOT / "src"
    if not (src / "vfcontrol" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {src / 'vfcontrol'}; run from a full checkout")
    sys.path.insert(0, str(src))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["amp2d", "nhe36"])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=45.0, help="measurement budget of the repeated passes")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="reduced budgets, for the benchmark's own test")
    parser.add_argument("--out", default=str(BENCH / "out"), help="directory for the run record and spans")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def probe_kernel(iterations: int) -> float:
    """Seconds of ``iterations`` steps of a fixed kernel of small numpy calls."""
    import numpy as np

    a = np.cos(np.arange(1600.0)).reshape(40, 40) / 8.0
    t0 = time.perf_counter()
    x = np.ones(40)
    for _ in range(iterations):
        x = np.tanh(a @ x) + 0.5 * np.exp(-x * x)
    return time.perf_counter() - t0


def speed_probe() -> float:
    """Seconds of the probe kernel, the fastest of three repeats."""
    return min(probe_kernel(PROBE_ITERATIONS) for _ in range(3))


class StageSpeed:
    """Machine speed during a stage, sampled from a timer signal.

    While running, every ``SAMPLE_INTERVAL_S`` of wall time a signal handler
    times ``SAMPLE_ITERATIONS`` steps of the probe kernel, and adds the time
    it spent to ``spent``, which the caller takes off the stage time.
    """

    def __init__(self):
        self.samples, self.spent, self.running = [], 0.0, False

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe_kernel(SAMPLE_ITERATIONS))
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        # one sample before the stage starts, so that a short stage has one
        self.samples, self.spent, self.running = [probe_kernel(SAMPLE_ITERATIONS)], 0.0, True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.running = False
        # the work done in a stage is its time integral of speed, 1 / sample time
        scale = SAMPLE_REFERENCE_S * statistics.fmean(1.0 / t for t in self.samples)
        return {"scale": scale, "spent_s": self.spent, "samples": len(self.samples)}


def setup_probe(args) -> int:
    """Time one cold set-up in this fresh process: imports plus the workload inputs."""
    t0 = time.perf_counter()
    import pipeline

    pipeline.build_inputs(pipeline.workload(args.workload, args.tiny), args.seed)
    print(repr(time.perf_counter() - t0))
    return 0


def measure_setup(args) -> float:
    """Set-up time of one fresh process, which this process waits for."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def environment(loadavg_start) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": loadavg_start,
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args) -> int:
    loadavg_start = list(os.getloadavg())
    # set-up is timed in fresh processes, one before the first pass and one
    # after each untraced pass, so its median spans the whole run
    setup_times = [measure_setup(args)] if args.trace == 0 else []

    import numpy as np

    import pipeline
    import tracing

    env = environment(loadavg_start)
    w = pipeline.workload(args.workload, args.tiny)
    draws = [pipeline.build_inputs(w, args.seed + d * DRAW_SEED_STEP)
             for d in range(DRAWS if args.trace == 0 else 1)]

    Path(args.out).mkdir(parents=True, exist_ok=True)
    records, problems = [], []
    mrl2_quadratic = []  # per draw
    # Feedback latency is timed in rounds spread through the run, at every
    # stage boundary of an untraced pass, on the surrogates and states of the
    # latest finished pass of draw 0; every such pass fits the same
    # surrogates, which the determinism check confirms.  A round times every state once;
    # its latencies in us are scaled by the speed probes before and after it.
    feedback = {"plain": [], "structured": []}
    rounds = {"plain": [], "structured": []}  # per round: raw percentiles and probes, for the record
    latest = {}
    probes = []  # every speed probe of the run, in s
    # explore, fit and evaluate of a pass run between its four boundaries,
    # timed with the speed sampled during them: one entry per stage
    stage = StageSpeed()
    stage_speeds = []
    boundaries = []  # the speed probe of every boundary

    def boundary():
        if stage.running:
            stage_speeds.append(stage.stop())
        probes.append(speed_probe())
        boundaries.append(probes[-1])
        for _ in range(FEEDBACK_ROUNDS_PER_BOUNDARY if latest else 0):
            for variant, scaled in feedback.items():
                times = pipeline.time_feedback(draws[0].model, latest[variant], latest["states"]) / 1e3
                probes.append(speed_probe())
                scaled.append(times * PROBE_REFERENCE_S / statistics.fmean(probes[-2:]))
                rounds[variant].append({"p50": float(np.percentile(times, 50)),
                                        "p99": float(np.percentile(times, 99)), "probes_s": probes[-2:]})
        if len(boundaries) % 4:
            stage.start()

    traced = None
    t_start = time.perf_counter()
    while True:
        trace_this = args.trace == 1 and len(records) == 1
        draw = len(records) % len(draws)
        if trace_this:
            traced = tracing.Tracer(run_id=f"{args.workload}/seed{args.seed}/pass{len(records)}")
            tracing.instrument(traced)
            try:
                p = pipeline.run_pass(pipeline.build_inputs(w, args.seed))
            finally:
                traced.restore()
        else:
            p = pipeline.run_pass(draws[draw], boundary=boundary if args.trace == 0 else None)
        if len(mrl2_quadratic) == draw:
            mrl2_quadratic.append(pipeline.baseline_mrl2(draws[draw], p.references))
        problems += [f"pass {len(records)}: {msg}"
                     for msg in pipeline.gate(draws[draw], p, mrl2_quadratic[draw])]
        if args.trace == 0:
            if draw == 0:
                latest.update(plain=p.plain.surrogate, structured=p.structured.surrogate,
                              states=pipeline.feedback_states(p.references, FEEDBACK_SAMPLES))
            setup_times.append(measure_setup(args))
        attempted, failed = pipeline.failure_counts(p)
        if args.trace == 0:
            # each stage's own time, without the speed samples, at the reference speed
            stages = ("explore_s", "fit_s", "evaluate_s")
            scaled = {k: (getattr(p, k) - sp["spent_s"]) * sp["scale"] for k, sp in zip(stages, stage_speeds[-3:])}
            scaled["pipeline_s"] = sum(scaled.values())
        records.append({
            "traced": trace_this, "draw": draw,
            "explore_s": p.explore_s, "fit_s": p.fit_s, "evaluate_s": p.evaluate_s, "pipeline_s": p.pipeline_s,
            **({"scaled": scaled, "stage_speed": stage_speeds[-3:]} if args.trace == 0 else {}),
            "mrl2_plain": p.mrl2_plain, "mrl2_structured": p.mrl2_structured,
            **{f"accuracy_digits_{variant}": pipeline.accuracy_digits(p.references, runs, w.eval_horizon)
               for variant, runs in (("plain", p.runs_plain), ("structured", p.runs_structured))},
            "attempted": attempted, "failed": failed, "digests": pipeline.digests(p),
        })
        elapsed = time.perf_counter() - t_start
        n = len(records)
        if args.trace == 1 and n == 2 or n >= MIN_PASSES and elapsed * (n + 1) / n > args.seconds:
            break

    for d in range(len(draws)):
        same = [r["digests"] for r in records if r["draw"] == d]
        if any(digest != same[0] for digest in same):
            problems.append(f"passes of draw {d} produced different datasets or surrogates: "
                            + "; ".join(json.dumps(digest) for digest in same))

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    untraced = [r for r in records if not r["traced"]]
    counts = {"passes": len(untraced)}
    if args.trace == 0:
        counts["feedback_samples_per_variant"] = FEEDBACK_SAMPLES * len(feedback["plain"])
        counts["feedback_states"] = FEEDBACK_SAMPLES
        counts["feedback_rounds"] = len(feedback["plain"])
        counts["setup_probes"] = len(setup_times)
        speed_scale = PROBE_REFERENCE_S / statistics.fmean(probes)
        counts["speed_probes"] = len(probes)
        counts["stage_speed_samples"] = sum(sp["samples"] for sp in stage_speeds)
        metrics = {
            "setup_s": statistics.median(setup_times) * speed_scale,
            **{k: statistics.fmean(r["scaled"][k] for r in untraced)
               for k in ("explore_s", "fit_s", "evaluate_s", "pipeline_s")},
        }
        for variant, scaled in feedback.items():
            per_state = np.percentile(scaled, 25, axis=0)
            metrics[f"feedback_us_p50_{variant}"] = float(np.percentile(per_state, 50))
            metrics[f"feedback_us_p99_{variant}"] = float(np.percentile(per_state, 99))
        metrics["peak_rss_mb"] = peak_rss_mb()
        # deterministic for a draw, which the determinism check confirms
        for k in ("accuracy_digits_plain", "accuracy_digits_structured"):
            metrics[k] = statistics.fmean(untraced[d][k] for d in range(len(draws)))
        units = END_TO_END
    else:
        metrics = layer_metrics(traced, records, mrl2_quadratic[0])
        units = per_layer_units()
        traced.write_spans(Path(args.out) / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    bad = sorted(k for k, v in metrics.items() if not math.isfinite(v))
    if bad:
        problems.append(f"non-finite metrics: {bad}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "tiny": args.tiny,
        "environment": env, "counts": counts, "mrl2_quadratic": mrl2_quadratic,
        "failed_share": failed / attempted, "attempted": attempted, "failed": failed,
        "setup_probes_s": setup_times, "speed_probes_s": probes, "feedback_rounds_us": rounds,
        "passes": records,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(Path(args.out) / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    report(record)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


def layer_metrics(tracer, records, mrl2_quadratic) -> dict:
    spans = tracer.aggregate()
    c = tracer.counters
    out = {}
    for span, fields in SPAN_METRICS.items():
        agg = spans.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for f in fields:
            out[f"{span}.{f}"] = agg[f]
    for name in COUNTER_METRICS:
        out[name] = c[name]
    attempts = c["explore.warm_attempts"]
    out["explore.warm_hit_rate"] = c["explore.warm_hits"] / attempts if attempts else 0.0
    plain = [r["pipeline_s"] for r in records if not r["traced"]]
    traced = [r["pipeline_s"] for r in records if r["traced"]]
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    out["evaluate.mrl2_plain"] = records[0]["mrl2_plain"]
    out["evaluate.mrl2_structured"] = records[0]["mrl2_structured"]
    out["evaluate.mrl2_quadratic"] = mrl2_quadratic
    return dict(sorted(out.items()))


def report(record) -> None:
    env = record["environment"]
    print(f"# vfcontrol pipeline benchmark: workload {record['workload']}, seed {record['seed']}, "
          f"trace {record['trace']}{', tiny' if record['tiny'] else ''}")
    print(f"# nproc {env['nproc']}, BLAS/OpenMP threads {BLAS_THREADS}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, load average at start "
          + "/".join(f"{x:.2f}" for x in env["loadavg_start"]))
    counts = record["counts"]
    print(f"# {counts['passes']} untraced passes" + "".join(f", {k} {v}" for k, v in counts.items() if k != "passes"))
    for name, m in record["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_share':48s} {record['failed_share']:.6g} 1  ({record['failed']} of {record['attempted']} "
          "exploration solves, reference solves and rollouts over all passes)")
    draws = record["passes"][:len(record["mrl2_quadratic"])]
    for name, values in (("mrl2_plain", [r["mrl2_plain"] for r in draws]),
                         ("mrl2_structured", [r["mrl2_structured"] for r in draws]),
                         ("mrl2_quadratic", record["mrl2_quadratic"])):
        print(f"{name:48s} " + ", ".join(f"{v:.6g}" for v in values) + " 1  (per data draw"
              + (", baseline x'Qx on the same references)" if name == "mrl2_quadratic" else ")"))
    for problem in record["problems"]:
        print(f"FAILED CHECK: {problem}")


def main(argv=None) -> int:
    pin_threads()
    # the structured fit skips samples at the origin by design
    warnings.filterwarnings("ignore", message=".*not admissible as centers")
    args = parse_args(argv)
    find_package()
    if args.setup_probe:
        return setup_probe(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
