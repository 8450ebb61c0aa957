"""The palstream benchmark: one workload through the library and `palstream run`.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload random26 --seed 1 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics with no tracing; `--trace 1` is a
separate run that puts spans around each layer and reports the per-layer
metrics.  Either way the outputs are checked against independent references
outside the timed passes.  Stdout ends with one JSON line: `correct`,
`attempted`, `failed` and `metrics`.  perfbench/README.md defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from array import array
from dataclasses import dataclass
from pathlib import Path

from reference import expected_reports
from tracing import Tracer, trace_detector
from workloads import N, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: A `palstream run` pass that has not ended after this long is killed.
CLI_TIMEOUT_S = 60
#: Symbols in the host-speed calibration, and its time on the nominal host.
CAL_N = 10_000
CAL_NOMINAL_S = 0.030

END_TO_END_UNITS = {
    "detector_sym_per_s": "1/s",
    "push_p50_us": "us",
    "push_p99_us": "us",
    "cli_sym_per_s": "1/s",
    "setup_s": "s",
    "retained_bytes_per_sym": "B",
    "cli_peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "manacher.odd.busy_us_per_sym": "us",
    "manacher.even.busy_us_per_sym": "us",
    "manacher.loop_iters_per_sym": "count",
    "ukkonen.busy_us_per_sym": "us",
    "ukkonen.child_probes_per_sym": "count",
    "ukkonen.nodes_per_sym": "count",
    "ukkonen.suffix_link_hops_per_sym": "count",
    "detector.self_us_per_sym": "us",
    "detector.new_palindrome_ratio": "ratio",
    "cli.read_us_per_sym": "us",
    "cli.format_us_per_sym": "us",
    "cli.bytes_out_per_sym": "B",
    "cli.write_us_per_sym": "us",
    "cli.writes_per_sym": "count",
    "cli.detector_us_per_sym": "us",
    "mem.manacher_bytes_per_sym": "B",
    "mem.ukkonen_bytes_per_sym": "B",
    "mem.detector_bytes_per_sym": "B",
    "trace.overhead_ratio": "ratio",
    "failed_frac": "ratio",
}


def import_palstream():
    """The package from this checkout's src, or exit: never one found elsewhere."""
    package = SRC / "palstream"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no palstream package at {package}")
    sys.path.insert(0, str(SRC))
    import palstream
    if Path(palstream.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported palstream from {palstream.__file__}, not {package}")
    return palstream


class Checks:
    """Checked passes and those that failed; a pass fails on any problem."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: " + "; ".join(problems[:3]))
        return not problems


def summary_problems(summary, want) -> list[str]:
    """Bound gates on a detector summary, and equality with the reference's."""
    n = summary.n
    problems = []
    if summary.manacher_loop_total > 4 * n:
        problems.append(f"loop bound: {summary.manacher_loop_total} > 4n = {4 * n}")
    if summary.tree.nodes > 2 * n:
        problems.append(f"node bound: {summary.tree.nodes} > 2n = {2 * n}")
    if want is not None and summary != want:
        problems.append(f"summary {summary} differs from the reference pass {want}")
    return problems


def cli_record(report: tuple) -> dict:
    """The documented `run --format jsonl` record for one reference tuple."""
    n, _, _, longest, unique, span, closure, distinct = report
    return {"n": n, "max_pal": longest, "min_unique_suff": unique,
            "new": None if span is None else f"{span[0]}-{span[1]}",
            "closure_len": closure, "distinct_count": distinct}


@dataclass
class Context:
    palstream: object
    workload: Workload
    symbols: object
    checks: Checks
    cli_records: list  # expected `run` output
    summary: object  # the reference pass's detector summary
    cli_input: Path
    env: dict
    memory: dict[str, float] | None = None  # from memory_pass


def reference_pass(palstream, workload: Workload, symbols, checks: Checks):
    """Check every report of one pass against the eertree and the suffix
    automaton; return the expected CLI records and the detector summary."""
    detector = palstream.PalindromeDetector(workload.mode)
    mismatches, first = 0, None
    records = []
    for c, want in zip(symbols, expected_reports(symbols)):
        r = detector.push(c)
        got = (r.n, r.max_pal_odd, r.max_pal_even, r.max_pal, r.min_unique_suff,
               r.new_palindrome, r.closure_len, r.distinct_count)
        if got != want:
            mismatches += 1
            first = first or f"step {r.n}: got {got}, want {want}"
        records.append(cli_record(want))
    problems = [f"{mismatches} reports differ from the references, first {first}"] if mismatches else []
    summary = detector.finish()
    checks.record("reference pass", problems + summary_problems(summary, None))
    return records, summary


def library_pass(ctx: Context) -> float:
    """Seconds for one untraced pass, GC on; checks the totals."""
    gc.collect()
    detector = ctx.palstream.PalindromeDetector(ctx.workload.mode)
    push = detector.push
    start = time.perf_counter()
    for c in ctx.symbols:
        push(c)
    elapsed = time.perf_counter() - start
    ctx.checks.record("library pass", summary_problems(detector.finish(), ctx.summary))
    return elapsed


def per_call_pass(ctx: Context, samples: array) -> None:
    """Appends the latency of every push, in ns, to ``samples``."""
    gc.collect()
    detector = ctx.palstream.PalindromeDetector(ctx.workload.mode)
    push = detector.push
    clock = time.perf_counter_ns
    append = samples.append
    for c in ctx.symbols:
        start = clock()
        push(c)
        append(clock() - start)
    ctx.checks.record("per-call pass", summary_problems(detector.finish(), ctx.summary))


def memory_pass(ctx: Context) -> dict[str, float]:
    """Bytes per symbol that the package still holds after the last symbol,
    in total and by source file."""
    package = (SRC / "palstream").resolve()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        detector = ctx.palstream.PalindromeDetector(ctx.workload.mode)
        push = detector.push
        for c in ctx.symbols:
            push(c)
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    ctx.checks.record("memory pass", summary_problems(detector.finish(), ctx.summary))
    by_module: dict[str, int] = {}
    for stat in after.compare_to(before, "filename"):
        path = Path(stat.traceback[0].filename)
        if path.resolve().parent == package:
            by_module[path.stem] = by_module.get(path.stem, 0) + stat.size_diff
    return {"total": sum(by_module.values()) / N,
            **{module: size / N for module, size in by_module.items()}}


@dataclass
class CliRun:
    returncode: int
    stdout: bytes
    stderr: bytes
    setup_s: float  # launch to first record
    after_first_s: float  # first record to EOF

    @property
    def records(self) -> int:
        return self.stdout.count(b"\n")


def cli_pass(cmd: list[str], workdir: Path) -> CliRun:
    """Launch ``cmd`` and read its stdout through a pipe to EOF, as a consumer does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    err_path = workdir / "stderr"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env,
                                cwd=ROOT, bufsize=0)
    watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        fd = proc.stdout.fileno()
        chunks, first = [], None
        while chunk := os.read(fd, 1 << 16):
            if first is None and b"\n" in chunk:
                first = time.perf_counter()
            chunks.append(chunk)
        end = time.perf_counter()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    first = end if first is None else first
    return CliRun(proc.returncode, b"".join(chunks), err_path.read_bytes(),
                  first - start, end - first)


def cli_problems(run: CliRun, expected: list[dict]) -> list[str]:
    """Exit status, silence on stderr, and every record equal to the library's."""
    problems = []
    if run.returncode != 0 or run.stderr:
        problems.append(f"exit code {run.returncode}, stderr {run.stderr[-300:]!r}")
    lines = run.stdout.splitlines()
    if len(lines) != len(expected):
        problems.append(f"{len(lines)} records, want {len(expected)}")
    for line, want in zip(lines, expected):
        try:
            got = json.loads(line)
        except ValueError:
            got = None
        if got != want:
            problems.append(f"record {want['n']} is {line[:200]!r}, want {want}")
            break
    return problems


def run_args(ctx: Context) -> list[str]:
    return ["--format", "jsonl", *ctx.workload.cli_args, str(ctx.cli_input)]


def cli_command(ctx: Context, rss_file: Path) -> list[str]:
    """`python -m palstream.cli run ...`, through the wrapper that records
    the process's peak resident set in ``rss_file``."""
    return [sys.executable, str(HERE / "cli_rss.py"), str(rss_file),
            "palstream.cli", "run", *run_args(ctx)]


class HostSpeed:
    """Scales times to a nominal host.

    On a shared host the speed of the same pass can drift by 20-30% over
    seconds, CPU time with wall time: other tenants contend for its cores.
    Between passes the benchmark times a fixed calibration of its own, the
    reference checker over a fixed input, which does not depend on the
    package under test.  A pass's time is scaled by the nominal calibration
    time over the mean of the calibrations just before and after it.
    """

    def __init__(self) -> None:
        self._input = bytes(random.Random(0).choices(range(ord("a"), ord("z") + 1), k=CAL_N))
        self.factors: list[float] = []
        self._last = self._calibrate()

    def _calibrate(self) -> float:
        start = time.perf_counter()
        for _ in expected_reports(self._input):
            pass
        return time.perf_counter() - start

    def factor(self) -> float:
        """Call right after a pass: multiply its times by this (divide rates)."""
        now = self._calibrate()
        scale = CAL_NOMINAL_S / ((self._last + now) / 2)
        self._last = now
        self.factors.append(scale)
        return scale


class Series:
    """Per-pass values of each metric, raw and scaled to the nominal host."""

    def __init__(self) -> None:
        self.raw: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}

    def time(self, name: str, value: float, factor: float) -> None:
        self.raw.setdefault(name, []).append(value)
        self.scaled.setdefault(name, []).append(value * factor)

    def rate(self, name: str, value: float, factor: float) -> None:
        self.time(name, value, 1 / factor)

    def median(self, name: str) -> float:
        return statistics.median(self.scaled[name])


def untraced_run(ctx: Context, deadline: float, workdir: Path, host: HostSpeed):
    """Rounds of: whole-input library pass, per-call-timed library pass,
    `palstream run` pass; until the deadline."""
    series = Series()
    rss_file = workdir / "rss"
    cmd = cli_command(ctx, rss_file)
    while True:
        elapsed = library_pass(ctx)
        series.rate("detector_sym_per_s", N / elapsed, host.factor())

        latencies = array("q")
        per_call_pass(ctx, latencies)
        factor = host.factor()
        latencies = sorted(latencies)
        series.time("push_p50_us", percentile(latencies, 0.50) / 1e3, factor)
        series.time("push_p99_us", percentile(latencies, 0.99) / 1e3, factor)

        rss_file.unlink(missing_ok=True)
        run = cli_pass(cmd, workdir)
        factor = host.factor()
        ctx.checks.record("cli pass", cli_problems(run, ctx.cli_records))
        if run.records > 1 and rss_file.exists():
            series.time("setup_s", run.setup_s, factor)
            series.rate("cli_sym_per_s", (run.records - 1) / run.after_first_s, factor)
            series.time("cli_peak_rss_mb", int(rss_file.read_text()) / 1024, 1.0)
        if time.perf_counter() >= deadline:
            break
    if "cli_sym_per_s" not in series.scaled:
        raise SystemExit("error: no `palstream run` pass produced records: "
                         + "; ".join(ctx.checks.problems))
    ctx.env["push_samples"] = {"per_pass": N, "passes": len(series.raw["push_p50_us"])}
    metrics = {name: series.median(name) for name in series.scaled}
    return metrics, series


def layer_times(series: Series, prefix: str, totals: dict[str, list[int]], n: int,
                factor: float) -> None:
    """Microseconds per symbol of every span name, total and self."""
    for name, (_, total, self_ns) in totals.items():
        series.time(f"{prefix}{name}.total_us_per_sym", total / n / 1e3, factor)
        series.time(f"{prefix}{name}.self_us_per_sym", self_ns / n / 1e3, factor)


def traced_run(ctx: Context, deadline: float, workdir: Path, host: HostSpeed):
    """Rounds of: an untraced and a traced library pass (alternating which
    goes first), and a traced `palstream run` pass; until the deadline.

    Each traced pass records into its own tracer and is reduced to per-layer
    totals when it ends.  The spans of the first round are kept and written
    out at the end; later rounds would repeat them at tens of MB a round.
    """
    kept = Tracer()
    passes = []
    series = Series()
    spans_file = workdir / "cli.spans"
    cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_file), *run_args(ctx)]
    rounds = 0
    while True:
        seconds = {}
        for traced in ((False, True) if rounds % 2 == 0 else (True, False)):
            if not traced:
                seconds[traced] = library_pass(ctx)
                host.factor()
                continue
            tracer = Tracer()
            gc.collect()
            detector = ctx.palstream.PalindromeDetector(ctx.workload.mode)
            push = trace_detector(detector, tracer)
            start = time.perf_counter()
            for c in ctx.symbols:
                push(c)
            seconds[traced] = time.perf_counter() - start
            factor = host.factor()
            ctx.checks.record("traced library pass",
                              summary_problems(detector.finish(), ctx.summary))
            layer_times(series, "", tracer.totals(), N, factor)
            if rounds == 0:
                passes.append(("library", *kept.absorb(tracer)))
        series.time("trace.overhead_ratio", seconds[True] / seconds[False], 1.0)

        spans_file.unlink(missing_ok=True)
        run = cli_pass(cmd, workdir)
        factor = host.factor()
        ctx.checks.record("traced cli pass", cli_problems(run, ctx.cli_records))
        if run.records > 0 and spans_file.exists():
            tracer, meta = Tracer.load(spans_file)
            layer_times(series, "cli:", tracer.totals(), run.records, factor)
            series.time("cli.writes_per_sym", meta["os_writes"] / run.records, 1.0)
            series.time("cli.bytes_out_per_sym", len(run.stdout) / run.records, 1.0)
            if rounds == 0:
                passes.append(("cli", *kept.absorb(tracer)))
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    if "cli.writes_per_sym" not in series.scaled:
        raise SystemExit("error: no traced `palstream run` pass produced records: "
                         + "; ".join(ctx.checks.problems))
    kept.save(OUT / f"trace-{ctx.workload.name}.spans",
              {"workload": ctx.workload.name, "passes": passes})

    def med(name: str) -> float:
        return series.median(name) if name in series.scaled else 0.0

    def busy(prefix: str, methods) -> float:
        return sum(med(f"{prefix}.{m}.total_us_per_sym") for m in methods)

    summary = ctx.summary
    mem = ctx.memory
    metrics = {
        "manacher.odd.busy_us_per_sym": busy("manacher.odd", ("add_letter", "max_pal")),
        "manacher.even.busy_us_per_sym": busy("manacher.even", ("add_letter", "max_pal")),
        "manacher.loop_iters_per_sym": summary.manacher_loop_total / N,
        "ukkonen.busy_us_per_sym": busy("ukkonen", ("add_letter", "min_unique_suff")),
        "ukkonen.child_probes_per_sym": summary.tree.child_probes / N,
        "ukkonen.nodes_per_sym": summary.tree.nodes / N,
        "ukkonen.suffix_link_hops_per_sym": summary.tree.suffix_link_hops / N,
        "detector.self_us_per_sym": med("detector.push.self_us_per_sym"),
        "detector.new_palindrome_ratio": summary.distinct_count / N,
        "cli.read_us_per_sym": med("cli:cli.read.total_us_per_sym"),
        "cli.format_us_per_sym": med("cli:cli.run.self_us_per_sym"),
        "cli.bytes_out_per_sym": med("cli.bytes_out_per_sym"),
        "cli.write_us_per_sym": busy("cli:cli", ("write", "flush")),
        "cli.writes_per_sym": med("cli.writes_per_sym"),
        "cli.detector_us_per_sym": med("cli:detector.push.total_us_per_sym"),
        "mem.manacher_bytes_per_sym": mem.get("manacher", 0.0),
        "mem.ukkonen_bytes_per_sym": mem.get("ukkonen", 0.0),
        "mem.detector_bytes_per_sym": mem.get("detector", 0.0),
        "trace.overhead_ratio": med("trace.overhead_ratio"),
    }
    return metrics, series


def percentile(ordered, q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "passes": len(values)}


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    palstream = import_palstream()
    workload = WORKLOADS[args.workload]
    env = {"python": sys.version.split()[0], "commit": git_commit(),
           "nproc": os.cpu_count(), "cpu_model": cpu_model(),
           "loadavg_start": os.getloadavg(), "workload": workload.name,
           "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "n": N}
    checks = Checks()
    symbols = workload.symbols(args.seed)
    cli_records, summary = reference_pass(palstream, workload, symbols, checks)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        cli_input = workdir / "input"
        cli_input.write_bytes(workload.cli_bytes(symbols))
        ctx = Context(palstream, workload, symbols, checks, cli_records, summary,
                      cli_input, env)
        # First, so that the interpreter's free lists are in the same state
        # on every run and the byte counts repeat exactly.
        ctx.memory = memory_pass(ctx)
        # Warm-up launch, untimed: byte-compiles the CLI's modules in a fresh checkout.
        warm = cli_pass(cli_command(ctx, workdir / "rss"), workdir)
        checks.record("warm-up cli pass", cli_problems(warm, cli_records))
        host = HostSpeed()
        deadline = time.perf_counter() + args.seconds
        measure = traced_run if args.trace else untraced_run
        metrics, series = measure(ctx, deadline, workdir, host)
    metrics["retained_bytes_per_sym"] = ctx.memory["total"]
    env["loadavg_end"] = os.getloadavg()

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if args.trace:
        metrics["failed_frac"] = checks.failed / checks.attempted
    result = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    env["host_factor"] = spread(host.factors)
    print(json.dumps({"env": env, "problems": checks.problems,
                      "spread": {name: spread(v) for name, v in sorted(series.scaled.items())},
                      "raw_median": {name: statistics.median(v)
                                     for name, v in sorted(series.raw.items())}}))
    for name, unit in units.items():
        print(f"{name:<34} {metrics[name]:>16.6f} {unit}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
