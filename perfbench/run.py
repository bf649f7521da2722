"""pe2ford benchmark: one workload per process, closed loop, one thread.

Run from the repository root, which must hold ``src/pe2ford`` and
``docs/schemas``:

    python3 perfbench/run.py --workload words --seed 1 --seconds 25 --trace 0

The workload's jobs run in rounds, one job after another, until
``--seconds`` have passed and at least three rounds have run.  Every
output of the first round goes through the independent checks in
``check.py``; later rounds must reproduce it byte for byte.  Job times
are scaled by a reference loop timed around each job (see
``reference_loop``), so that they do not follow the load that other
tenants put on a shared machine.  With ``--trace 0`` the result holds
the end-to-end metrics; with ``--trace 1`` a warm-up round and then two
untraced and two traced rounds, in turn, give the per-layer metrics,
and the two traced rounds must count the same work.
The last line of standard output is the JSON result; the line before
it holds details (unscaled figures, percentiles with their sample
counts, output digest, environment).
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import check
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_REPEATS = 7
MIN_ROUNDS = 3  # so that every job's median time is a median of three at least
# A first round slower than this many times the later ones means the
# rounds are not independent (say, a cache keyed on the repeated inputs),
# and the timings no longer show what one call in a fresh process costs.
FIRST_ROUND_LIMIT = 2.0
# The reference loop's nominal time, which is about its time on an
# unloaded core, and how often a run samples it.
REFERENCE_S = 0.001
REFERENCE_EVERY_S = 0.05
SETUP_REFERENCE_CALLS = 10  # before and after each set-up process


# Exact grid points (u, v, height^2) and rival discs (radius^2, centre),
# for the height comparisons in reference_loop.
_REF_POINTS = tuple((Fraction(i, 64), Fraction(i * 3 % 37 - 18, 64), Fraction(i * i % 53 + 1, 4096)) for i in range(1, 7))
_REF_RIVALS = tuple((Fraction(i % 7 + 1, 40), Fraction(i - 6, 16), Fraction(i % 5 - 2, 12)) for i in range(12))


def reference_loop() -> int:
    """A fixed pure-Python mix of the program's kinds of work.

    Small-integer arithmetic, tuple and dict traffic, and exact
    ``Fraction`` height comparisons shaped like a hemisphere grid scan.
    Its speed follows the machine's: on a shared 2-vCPU VM, other
    tenants slowed every process by up to 1.6x, in phases that lasted
    from seconds to minutes.  Each job time is scaled by REFERENCE_S
    over the loop's mean time sampled during the job and just before and
    after it, which removes most of their effect.
    """
    a, b, acc = 1, 0, 0
    for i in range(750):
        a, b = (a * 7 + b * 3 + i) % 65521, (a - b) % 65521
        acc += a * b // 13
    seen = {}
    for i in range(250):
        key = (i * 7919 % 1009, i * 104729 % 2003)
        seen[key] = (key[0] * key[1], -key[1])
    for u, v, hh in _REF_POINTS:
        for krsq, ku, kv in _REF_RIVALS:
            du, dv = u - ku, v - kv
            if krsq - du * du - 20 * dv * dv >= hh:
                acc += 1
                break
    return acc + len(seen)


class ReferenceSampler:
    """Times the reference loop every REFERENCE_EVERY_S from a SIGALRM handler.

    The handler runs between two bytecodes of whatever job is running,
    so a long job gets samples from its own duration.  ``spent`` adds up
    the handler's time, which the runner takes out of the job's time.
    """

    def __init__(self) -> None:
        self.at = array("d")  # when each sample started
        self.took = array("d")
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - t0
        self.at.append(t0)
        self.took.append(took)
        self.spent += took

    def __enter__(self) -> "ReferenceSampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float = -math.inf, t1: float = math.inf) -> float:
        """REFERENCE_S over the mean sample from the last one before t0 to the first after t1."""
        lo = max(0, bisect.bisect_left(self.at, t0) - 1)
        window = self.took[lo : bisect.bisect_right(self.at, t1) + 1]
        return REFERENCE_S * len(window) / sum(window)


def load_program() -> SimpleNamespace:
    """Import pe2ford from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "pe2ford" / "__init__.py").is_file():
        sys.exit(f"error: no pe2ford sources under {src}")
    sys.path.insert(0, str(src))
    import pe2ford.cli
    import pe2ford.orders
    import pe2ford.subgroups
    import pe2ford.words

    if Path(pe2ford.__file__).resolve().parent != src / "pe2ford":
        sys.exit(f"error: pe2ford was imported from {pe2ford.__file__}, not {src}")
    return SimpleNamespace(cli=pe2ford.cli, orders=pe2ford.orders, subgroups=pe2ford.subgroups, words=pe2ford.words)


def expected_metrics(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def mean_reference_s(calls: int) -> float:
    """Mean seconds of ``calls`` back-to-back reference loops."""
    t0 = time.perf_counter()
    for _ in range(calls):
        reference_loop()
    return (time.perf_counter() - t0) / calls


def time_setup(args: argparse.Namespace) -> tuple[float, float]:
    """(CPU seconds, scale) of a fresh interpreter building its jobs.

    The child reports its own process time, which covers interpreter
    start, the pe2ford import and building the inputs, and leaves out
    the time it waits for a processor while other tenants run.  The
    scale is REFERENCE_S over the reference loop's mean time just before
    and just after the child, as for a job.
    """
    before = mean_reference_s(SETUP_REFERENCE_CALLS)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().split()
        proc.stdout.read()
    if proc.returncode != 0 or len(line) != 2 or line[0] != "ready":
        sys.exit(f"error: set-up process exited with {proc.returncode}")
    after = mean_reference_s(SETUP_REFERENCE_CALLS)
    return float(line[1]), 2 * REFERENCE_S / (before + after)


class Runner:
    """Runs rounds of jobs and tracks which executions produced a wrong output."""

    def __init__(self, jobs: list[workloads.Job], checker: check.Checker) -> None:
        self.jobs = jobs
        self.checker = checker
        self.first: dict[str, object] = {}
        self.digest: dict[str, str] = {}
        self.runs: dict[str, int] = dict.fromkeys((j.key for j in jobs), 0)
        self.mismatches: dict[str, int] = dict.fromkeys(self.runs, 0)
        self.times: dict[str, list[float]] = {key: [] for key in self.runs}
        self.spans: dict[str, list[tuple[float, float]]] = {key: [] for key in self.runs}
        self.rounds = 0
        self.sampler = ReferenceSampler()  # takes samples only while entered

    def scaled_times(self, key: str) -> list[float]:
        """The job's times, each scaled by the reference loop samples around it."""
        return [t * self.sampler.scale(*span) for t, span in zip(self.times[key], self.spans[key])]

    def run_round(self) -> list[float]:
        """Run every job once; return the job times in seconds."""
        times = []
        clock = time.perf_counter
        for job in self.jobs:
            sampled = self.sampler.spent
            t0 = clock()
            try:
                raw, error = job.call(), None
            except Exception as exc:  # a failing job is counted as failed; the run goes on
                error = {"error": f"{type(exc).__name__}: {exc}"}
            t1 = clock()
            times.append(t1 - t0 - (self.sampler.spent - sampled))
            out = job.collect(raw) if error is None else error
            self.times[job.key].append(times[-1])
            self.spans[job.key].append((t0, t1))
            digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
            self.runs[job.key] += 1
            if job.key not in self.digest:
                self.first[job.key] = out
                self.digest[job.key] = digest
            elif digest != self.digest[job.key]:
                self.mismatches[job.key] += 1
        self.rounds += 1
        return times

    def finish(self) -> tuple[int, int, dict[str, str], str]:
        """(attempted, failed, reasons, outputs sha256) over all rounds run."""
        reasons = self.checker.check_round(self.jobs, self.first)
        failed = 0
        for key, runs in self.runs.items():
            if key in reasons:
                failed += runs
            elif self.mismatches[key]:
                failed += self.mismatches[key]
                reasons[key] = "output differs from the first round"
        digest = hashlib.sha256("".join(f"{k}\t{self.digest[k]}\n" for k in sorted(self.digest)).encode())
        return sum(self.runs.values()), failed, reasons, digest.hexdigest()


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(len(sorted_values) * q / 100) - 1)]


def end_to_end(runner: Runner, args: argparse.Namespace, setup: list[tuple[float, float]]) -> tuple[dict, dict, list[str]]:
    """Rounds until ``--seconds`` have passed; timings from each job's median repetition.

    Other tenants of the machine slow it down in bursts.  A job's
    median over its repetitions ignores a burst that covers fewer than
    half of them, and scaling each job by the reference loop samples
    around it takes out most of a slower phase that lasts longer.  The
    unscaled figures and every repetition go into the details.
    """
    times: list[float] = []
    start = time.perf_counter()
    with runner.sampler:
        while runner.rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
            times += runner.run_round()
    scaled = [runner.scaled_times(key) for key in runner.times]
    typical = [statistics.median(t) for t in scaled]
    raw = [statistics.median(t) for t in runner.times.values()]
    unscaled = {
        "jobs_per_s": len(raw) / sum(raw),
        "job_ms.p50": statistics.median(raw) * 1e3,
        "setup_s": statistics.median(cpu for cpu, _ in setup),
    }
    metrics = {
        "jobs_per_s": len(typical) / sum(typical),
        "job_ms.p50": statistics.median(typical) * 1e3,
        "setup_s": statistics.median(cpu * scale for cpu, scale in setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    rounds = [sum(t[r] for t in scaled) for r in range(runner.rounds)]
    first_round = rounds[0] / statistics.median(rounds[1:])
    problems = []
    if first_round > FIRST_ROUND_LIMIT:
        problems.append(
            f"the first round took {first_round:.2f} times as long as the later ones: repeated inputs"
            " are being served faster than a first call, which the timings must not count"
        )
    # over all repetitions, unscaled; a percentile only with at least ten samples beyond it
    ordered = sorted(times)
    n = len(ordered)
    every = {f"p{q}": percentile(ordered, q) * 1e3 for q in (50, 90, 99) if n * (100 - q) >= 1000}
    detail = {
        "rounds": runner.rounds,
        "jobs": n,
        "unscaled": unscaled,
        "reference_ms": {"mean": REFERENCE_S * 1e3 / runner.sampler.scale(), "n": len(runner.sampler.took)},
        "job_ms_all_repetitions": dict(every, n=n),
        "first_round_over_later": first_round,
    }
    return metrics, detail, problems


def counts_record(args: argparse.Namespace) -> Path:
    """Where the counts of this workload and seed live for this exact code."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pe2ford").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return WORK / "counts" / f"{args.workload}-{args.seed}-{h.hexdigest()[:16]}.json"


def per_layer(runner: Runner, args: argparse.Namespace) -> tuple[dict, dict, list[str]]:
    """A warm-up round, then untraced and traced rounds in turn; counts must agree between runs."""
    tr = tracer.Tracer()
    runner.run_round()  # first-time costs land here, on neither side of the overhead ratio
    untraced, traced, passes = [], [], []
    for _ in range(2):
        untraced.append(runner.run_round())
        tr.install()
        try:
            traced.append(runner.run_round())
        finally:
            tr.uninstall()
        passes.append(tr.summary())
        tr.reset()
    (counts, self1, total1), (counts2, self2, total2) = passes
    problems = []
    if counts != counts2:
        diff = sorted(k for k in counts if counts[k] != counts2.get(k))
        problems.append(f"counts differ between the two traced rounds: {diff}")
    record = counts_record(args)
    if record.exists():
        before = json.loads(record.read_text(encoding="utf-8"))
        if before != counts:
            problems.append(f"counts differ from the earlier traced run in {record.name}")
    elif not problems:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
    mean = {k: (self1[k] + self2[k]) / 2 for k in self1}
    mean_total = {k: (total1[k] + total2[k]) / 2 for k in total1}
    overhead = sum(map(min, *traced)) / sum(map(min, *untraced))  # each job's faster repetition
    metrics = tracer.layer_metrics(expected_metrics(True), counts, mean, mean_total, overhead)
    detail = {"untraced_s": [sum(r) for r in untraced], "traced_s": [sum(r) for r in traced], "counts": counts}
    return metrics, detail, problems


def environment(load_before: tuple[float, float, float]) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    load_before = os.getloadavg()

    if args.setup_only:
        workloads.build(args.workload, args.seed, load_program(), WORK)
        print("ready", repr(time.process_time()), flush=True)
        return 0

    units = expected_metrics(bool(args.trace))
    pe = load_program()
    setup = [] if args.trace else [time_setup(args) for _ in range(SETUP_REPEATS)]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        jobs = workloads.build(args.workload, args.seed, pe, workdir)
        runner = Runner(jobs, check.Checker(ROOT / "docs" / "schemas"))
        if args.trace:
            metrics, detail, problems = per_layer(runner, args)
        else:
            metrics, detail, problems = end_to_end(runner, args, setup)
        attempted, failed, reasons, digest = runner.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if sorted(metrics) != sorted(units):
        sys.exit(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    problems += [f"{key}: {why}" for key, why in sorted(reasons.items())[:10]]
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        failed_ratio=failed / attempted,
        outputs_sha256=digest,
        setup_s=setup,
        problems=problems,
        environment=environment(load_before),
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
