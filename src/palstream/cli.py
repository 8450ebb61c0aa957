"""Command-line front end: stream analysis, benchmarks, self-verification.

Exit codes: 0 success, 1 input/configuration error, 2 self-test failure.
"""

from __future__ import annotations

import codecs
import dataclasses
import itertools
import json
import os
import sys
from typing import Iterator

import click

from . import selftest as selftest_module
from .bench import GENERATORS, BenchConfig, BenchMeasurement, run_config
from .detector import PalindromeDetector, StepReport


@click.group()
@click.version_option(package_name="palstream")
def main() -> None:
    """Online detection of distinct palindromes in a symbol stream."""


# -- run ----------------------------------------------------------------------

_TABLE_HEADER = (f"{'n':>8} {'max_pal':>8} {'min_unique_suff':>16} "
                 f"{'new':>14} {'closure_len':>12} {'distinct_count':>15}")


def _table_line(report: StepReport) -> str:
    """One table row; the first record also gets the header."""
    n, _, _, longest, unique, span, closure, distinct = report
    new = "-" if span is None else f"{span[0]}-{span[1]}"
    row = (f"{n:>8} {longest:>8} {unique:>16} {new:>14} {closure:>12} "
           f"{distinct:>15}\n")
    return _TABLE_HEADER + "\n" + row if n == 1 else row


def _jsonl_line(report: StepReport) -> str:
    """``json.dumps`` of the record, byte for byte, plus a newline."""
    n, _, _, longest, unique, span, closure, distinct = report
    new = "null" if span is None else f'"{span[0]}-{span[1]}"'
    return (f'{{"n": {n}, "max_pal": {longest}, "min_unique_suff": {unique}, '
            f'"new": {new}, "closure_len": {closure}, "distinct_count": {distinct}}}\n')


class _ReadError(Exception):
    """Reading or decoding the input failed; writing the output did not."""


def _chunks(stream, out, decode=None) -> Iterator:
    """The input as it arrives: at most one raw read per chunk, decoded by
    ``decode`` (an incremental decoder's method) when given.

    ``out`` is flushed right before each read, so the records for every
    symbol already read are out before the process can block on input.
    """
    read1 = stream.read1
    while True:
        out.flush()
        try:
            data = read1(65536)
            chunk = data if decode is None else decode(data, not data)
        except (OSError, UnicodeDecodeError) as exc:
            raise _ReadError(exc) from exc
        if not data:
            return
        yield chunk


def _token_symbols(stream, out) -> Iterator[str]:
    decode = codecs.getincrementaldecoder("utf-8")().decode
    tail = ""
    for chunk in _chunks(stream, out, decode):
        chunk = tail + chunk
        parts = chunk.split()
        tail = parts.pop() if parts and not chunk[-1].isspace() else ""
        yield from parts
    if tail:
        yield tail


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device, so that the flush at
    interpreter exit cannot fail again on output that already failed."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    finally:
        os.close(devnull)


@main.command("run")
@click.argument("file", required=False, type=str)
@click.option("--format", "fmt", type=click.Choice(["table", "jsonl"]),
              default="table", show_default=True,
              help="Per-symbol output format.")
@click.option("--tokens", is_flag=True,
              help="Read whitespace-separated tokens instead of raw bytes.")
def run_command(file: str | None, fmt: str, tokens: bool) -> None:
    """Stream FILE (or stdin) through the detector, one record per symbol.

    Bytes are the symbols by default; --tokens switches to whitespace-
    separated tokens, which exercises large alphabets.  Output is flushed
    before each read of more input, so the records for every symbol read
    so far are out before the run waits for input, and prefixes of the
    input always yield prefixes of the output.  A reader that closes the
    output early (``| head``) ends the run normally.
    """
    if sys.stdout is None:  # descriptor 1 was closed when Python started
        click.echo("error: failed writing output: stdout is closed", err=True)
        sys.exit(1)
    if file is None or file == "-":
        if sys.stdin is None:
            click.echo("error: cannot read stdin: it is closed", err=True)
            sys.exit(1)
        stream = sys.stdin.buffer
        close_stream = False
    else:
        try:
            stream = open(file, "rb")
        except OSError as exc:
            click.echo(f"error: cannot read {file!r}: {exc}", err=True)
            sys.exit(1)
        close_stream = True

    out = sys.stdout
    write = out.write
    line = _table_line if fmt == "table" else _jsonl_line
    detector = PalindromeDetector()
    try:
        symbols = (_token_symbols(stream, out) if tokens
                   else itertools.chain.from_iterable(_chunks(stream, out)))
        for report in detector.feed(symbols):
            write(line(report))
    except BrokenPipeError:
        _discard_stdout()
    except _ReadError as exc:
        click.echo(f"error: failed reading input: {exc}", err=True)
        sys.exit(1)
    except OSError as exc:
        _discard_stdout()
        click.echo(f"error: failed writing output: {exc}", err=True)
        sys.exit(1)
    finally:
        if close_stream:
            stream.close()


# -- bench ----------------------------------------------------------------------

def _bench_table(results: list[BenchMeasurement]) -> str:
    header = (f"{'gen':>13} {'sigma':>6} {'n':>9} {'mode':>9} {'best_s':>9} "
              f"{'sym/s':>12} {'loop/4n':>12} {'nodes':>9} {'probes':>12}")
    lines = [header]
    for m in results:
        lines.append(
            f"{m.gen:>13} {m.sigma:>6} {m.n:>9} {m.mode:>9} "
            f"{m.wall_best:>9.4f} {m.symbols_per_sec:>12.0f} "
            f"{m.manacher_loop_iters:>6}/{m.manacher_loop_bound:<5} "
            f"{m.nodes:>9} {m.child_probes:>12}")
    return "\n".join(lines)


@main.command("bench")
@click.option("--gen", "generator", type=click.Choice(list(GENERATORS)),
              required=True, help="Input generator.")
@click.option("--sigma", type=int, default=2, show_default=True,
              help="Alphabet size for generated inputs.")
@click.option("--sizes", default="1000", show_default=True,
              help="Comma-separated input lengths, strictly increasing.")
@click.option("--mode", type=click.Choice(["ordered", "unordered"]),
              default="ordered", show_default=True,
              help="Child-storage mode of the suffix automaton.")
@click.option("--reps", type=int, default=1, show_default=True,
              help="Repetitions per size (fresh seed each).")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Base seed; identical seeds reproduce identical inputs.")
def bench_command(generator: str, sigma: int, sizes: str, mode: str,
                  reps: int, seed: int) -> None:
    """Measure wall time and structural counters over generated inputs.

    Emits one JSON object per configuration on stdout and a human-readable
    table on stderr.  Every run is checked against the 4n loop and 2n state
    bounds.
    """
    try:
        size_list = tuple(int(part) for part in sizes.split(",") if part.strip())
    except ValueError:
        click.echo("error: --sizes must be comma-separated integers", err=True)
        sys.exit(1)
    cfg = BenchConfig(generator=generator, sigma=sigma, sizes=size_list,
                      mode=mode, repetitions=reps, seed=seed)
    try:
        results = run_config(cfg)
    except (ValueError, RuntimeError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    for measurement in results:
        click.echo(json.dumps(dataclasses.asdict(measurement)))
    click.echo(_bench_table(results), err=True)


# -- selftest ---------------------------------------------------------------------

@main.command("selftest")
def selftest_command() -> None:
    """Check the engine against its reference trace and the oracles."""
    if not selftest_module.run(echo=click.echo):
        sys.exit(2)


if __name__ == "__main__":
    main()
