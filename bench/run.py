"""Benchmark of the user pipeline: DIMACS in, solve with a certificate,
independent verify of that certificate.

    python3 bench/run.py --workload ph-ssc --seed 1 --seconds 36 --trace 0

Run from a checkout of the repository; the program is imported from its
`src/`. Set-up writes the workload's inputs from the seed (inputs.py),
untimed. The measured part drives `stablesat.cli.cli_main` in this one
single-threaded process, one command after another: a closed loop with
one client. A pass runs every command of the workload once. Passes
repeat while another one still fits in --seconds; each time metric sums,
over the commands, the median time of each command across passes. Times
are CPU seconds corrected for the host's speed at the moment (pace.py):
reference seconds. setup_s is the start-up every CLI command pays, a
fresh interpreter importing the program, sampled a few times through
the run (median), in reference seconds too.

With --trace 0 the end-to-end metrics are reported. With --trace 1,
untraced and traced passes alternate; the per-layer metrics of tracer.py
are reported, with the tracing overhead of one against the other, and
the spans, timed in reference seconds too, are written to .bench_work/.
BENCHMARK.json gives the names, units and order of the metrics of each
mode. Every command's output is checked outside the timed region. The
last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
START_UP_EVERY_S = 3.0   # wall seconds between two start-up samples
START_UP_MIN = 7

sys.path.insert(0, HERE)
import checks  # noqa: E402
import inputs  # noqa: E402
import pace  # noqa: E402
import tracer as tracing  # noqa: E402

# Times are CPU seconds (user + system) of the one thread the pipeline
# runs in. Its file I/O hits the page cache, so on an idle core this
# equals wall time; on a shared virtual machine the wall clock also counts
# time the host hands to other guests (steal), which moved single
# commands by up to 80% between back-to-back runs.
CLOCK = pace.CLOCK

# Counter lines the CLI prints; with proof_bytes they must repeat exactly.
_COUNTER_LINES = [
    re.compile(r"c body clusters: (?P<body>\d+)  learned clauses: "
               r"(?P<learned>\d+)  iterations: (?P<iterations>\d+)"),
    re.compile(r"c stable set size: (?P<points>\d+)  iterations: (?P<iterations>\d+)"),
    re.compile(r"c stable modulo symmetry, representatives: (?P<representatives>\d+)"),
    re.compile(r"c expanded stable set written: (?P<expanded>\d+) points"),
]


def child_cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class StartUps:
    """Reference seconds of fresh interpreters that import the CLI (numpy
    included): what every start of the program pays. Each start's CPU
    time is scaled by the host's slowdown measured just before and just
    after it. One is sampled between instances whenever START_UP_EVERY_S
    have passed, so that the samples see the host through the whole run,
    as the commands do."""

    def __init__(self):
        self.times = []
        self._due = time.perf_counter()

    def sample(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        before = pace.slowdown()
        start = child_cpu_seconds()
        subprocess.run([sys.executable, "-c", "import stablesat.cli"],
                       env=env, check=True, timeout=60)
        cpu = child_cpu_seconds() - start
        self.times.append(cpu / ((before + pace.slowdown()) / 2))
        self._due = time.perf_counter() + START_UP_EVERY_S

    def due(self):
        return time.perf_counter() >= self._due


def execute(cli_main, argv, trace=None, clock=CLOCK):
    """Run one CLI command; returns (exit code or None, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = clock()
        try:
            code = trace.command(cli_main, argv) if trace else cli_main(argv)
        except Exception as exc:  # the program crashed: a failed command
            code = None
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        seconds = clock() - start
    return code, seconds, out.getvalue(), err.getvalue().strip()


class Tally:
    """Times, certificate bytes, counters and failures of one pass."""

    def __init__(self):
        self.times = []          # (command kind, seconds), in command order
        self.proof_bytes = 0
        self.counters = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.peak_rss_mb = 0.0   # of the process, up to the end of this pass

    def pipeline(self):
        return sum(seconds for _, seconds in self.times)


def run_instance(cli_main, instance, formula, tally, trace=None, clock=CLOCK):
    """Run an instance's commands in order, checking each output."""
    num_vars, clauses = formula
    for command in instance["commands"]:
        if command["kind"] == "solve" and command["proof"]:
            # A failed solve must not leave the previous pass's proof to verify.
            with contextlib.suppress(FileNotFoundError):
                os.remove(command["proof"])
        code, seconds, stdout, stderr = execute(cli_main, command["argv"], trace, clock)
        tally.attempted += 1
        tally.times.append((command["kind"], seconds))
        if code is None:
            problems = [stderr]
        elif command["kind"] == "solve":
            problems = checks.check_solve(code, stdout, num_vars, clauses,
                                          instance["expect"])
            for pattern in _COUNTER_LINES:
                match = pattern.search(stdout)
                if match:
                    tally.counters.append((instance["name"], match.groupdict()))
            if command["proof"] and os.path.exists(command["proof"]):
                tally.proof_bytes += os.path.getsize(command["proof"])
        else:
            problems = checks.check_verify(code, stdout, instance["expect"])
        if problems:
            tally.failed += 1
            detail = f" ({stderr})" if stderr and code is not None else ""
            tally.failures += [f"{instance['name']} {command['kind']}: {p}{detail}"
                               for p in problems]


def run_pass(cli_main, manifest, formulas, trace=None, clock=CLOCK, between=None):
    tally = Tally()
    for instance in manifest["instances"]:
        run_instance(cli_main, instance, formulas[instance["name"]], tally, trace,
                     clock)
        if between:
            between()
    tally.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return tally


def measure(cli_main, manifest, seconds, traced):
    """Closed loop of passes within the time budget; at least one pass (one
    untraced and one traced pass with tracing on). Times, spans included,
    are in reference seconds; without tracing, start-ups are sampled
    through the run.

    Returns (untraced tallies, traced tallies, traced span lists, tracer,
    start-up seconds).
    """
    start_ups = StartUps()

    def between_instances():
        if start_ups.due():
            with pacer.paused():
                start_ups.sample()

    with pace.Pace() as pacer:
        tracer = tracing.Tracer(pacer.read) if traced else None
        result = _measure(cli_main, manifest, seconds, pacer.read, tracer,
                          None if traced else between_instances)
    while not traced and len(start_ups.times) < START_UP_MIN:
        start_ups.sample()
    slowdowns = sorted(pacer.samples)
    print(f"host slowdown: median {statistics.median(slowdowns):.3f}, "
          f"quartiles {slowdowns[len(slowdowns) // 4]:.3f}-"
          f"{slowdowns[3 * len(slowdowns) // 4]:.3f}, {len(slowdowns)} samples")
    return result + (start_ups.times,)


def _measure(cli_main, manifest, seconds, clock, tracer=None, between=None):
    formulas = {inst["name"]: checks.read_dimacs(inst["cnf"])
                for inst in manifest["instances"]}
    plain, traced_tallies, span_sets = [], [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        plain.append(run_pass(cli_main, manifest, formulas, clock=clock,
                              between=between))
        if tracer:
            first = len(tracer.spans)
            tracer.install()
            try:
                traced_tallies.append(run_pass(cli_main, manifest, formulas, tracer,
                                               clock))
            finally:
                tracer.uninstall()
            span_sets.append(tracer.spans[first:])
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        if now - start + longest > seconds:
            return plain, traced_tallies, span_sets, tracer


def command_seconds(tallies, kinds=("solve", "verify")):
    """Sum over commands of each command's median time across passes.

    A burst of host noise that slows one pass then moves the result less
    than a median of whole-pass sums would.
    """
    per_command = zip(*(t.times for t in tallies))
    return sum(statistics.median(s for _, s in runs) for runs in per_command
               if runs[0][0] in kinds)


def repeat_problems(tallies):
    """Deterministic counters and certificate bytes must repeat exactly."""
    first = tallies[0]
    problems = []
    for tally in tallies[1:]:
        if tally.counters != first.counters:
            problems.append("engine counters differ between passes")
        if tally.proof_bytes != first.proof_bytes:
            problems.append("proof_bytes differ between passes")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="PH(4,3)-sized inputs, for the self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stablesat", "cli.py")):
        print(f"error: no stablesat package under {SRC}", file=sys.stderr)
        return 2

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        manifest = inputs.build(args.workload, args.seed, work, args.tiny)
        sys.path.insert(0, SRC)
        from stablesat.cli import cli_main
        plain, traced, span_sets, tracer, start_ups = measure(
            cli_main, manifest, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tallies = plain + traced
    problems = repeat_problems(tallies)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    if args.trace:
        layers = [tracing.layer_metrics(spans) for spans in span_sets]
        values = {name: statistics.median([layer[name] for layer in layers])
                  for name in layers[0]}
        for name in tracing.DETERMINISTIC:
            if any(layer[name] != layers[0][name] for layer in layers):
                problems.append(f"{name} differs between traced passes")
            values[name] = layers[0][name]
        values["bench.trace_overhead_frac"] = (
            command_seconds(traced) / command_seconds(plain) - 1.0)
        tracer.write(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl"))
        deterministic = {name: values[name] for name in tracing.DETERMINISTIC}
        deterministic["proof_bytes"] = tallies[0].proof_bytes
        print("counters " + json.dumps(deterministic, sort_keys=True))
    else:
        values = {
            "setup_s": statistics.median(start_ups),
            "solve_s": command_seconds(plain, ("solve",)),
            "verify_s": command_seconds(plain, ("verify",)),
            "pipeline_s": command_seconds(plain),
            "proof_bytes": tallies[0].proof_bytes,
            # After the first pass: later passes raise the peak by a few MB
            # of allocator slack, so it would grow with the number of passes.
            "peak_rss_mb": plain[0].peak_rss_mb,
        }
    for message in problems + [f for t in tallies for f in t.failures][:20]:
        print(f"FAIL {message}")
    passes = sorted(t.pipeline() for t in plain)
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced passes "
          f"of {passes[0]:.2f}-{passes[-1]:.2f} s, {attempted} commands, "
          f"failed_frac {failed / attempted:.4f}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        listed = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
