"""Command-line front end: stream analysis, benchmarks, self-verification.

Exit codes: 0 success, 1 input/configuration error, 2 self-test failure or
a usage error reported by click (an unknown option or an invalid choice).
"""

from __future__ import annotations

import codecs
import io
import os
import sys
from typing import Iterator

import click

from . import __version__
from .automaton import ChildStorageMode
from .bench import GENERATORS, BenchMeasurement, run_config
from .detector import _BATCH, PalindromeDetector, StepReport


@click.group()
@click.version_option(version=__version__, prog_name="palstream")
def main() -> None:
    """Online detection of distinct palindromes in a symbol stream."""


# -- run ----------------------------------------------------------------------

_TABLE_HEADER = (f"{'n':>8} {'max_pal':>8} {'min_unique_suff':>16} "
                 f"{'new':>14} {'closure_len':>12} {'distinct_count':>15}")


def _table_line(report: StepReport) -> str:
    """One table row; the first record also gets the header."""
    n, _, _, longest, unique, span, closure, distinct = report
    new = "-" if span is None else "%d-%d" % span
    row = "%8d %8d %16d %14s %12d %15d\n" % (n, longest, unique, new, closure,
                                              distinct)
    return _TABLE_HEADER + "\n" + row if n == 1 else row


def _jsonl_line(report: StepReport) -> str:
    """``json.dumps`` of the record, byte for byte, plus a newline."""
    n, _, _, longest, unique, span, closure, distinct = report
    new = "null" if span is None else f'"{span[0]}-{span[1]}"'
    return (f'{{"n": {n}, "max_pal": {longest}, "min_unique_suff": {unique}, '
            f'"new": {new}, "closure_len": {closure}, "distinct_count": {distinct}}}\n')


_FORMATS = {"table": _table_line, "jsonl": _jsonl_line}


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
            raise _ReadError(f"failed reading input: {exc}") from exc
        if not data:
            return
        yield chunk


def _token_lists(stream, out) -> Iterator[list[str]]:
    """The input's whitespace-separated tokens, one list per read.

    A token that a read leaves open is kept as the pieces each read brings
    and joined once, in the list of the read that ends it, so a long token
    costs time linear in its length.
    """
    decode = codecs.getincrementaldecoder("utf-8")().decode
    head: list[str] = []  # the pieces of the token the reads so far leave open
    for chunk in _chunks(stream, out, decode):
        parts = chunk.split()
        if head and chunk:
            if not chunk[0].isspace():  # the chunk goes on with the open token
                head.append(parts.pop(0))
            if parts or chunk[-1].isspace():  # and ends it
                parts.insert(0, "".join(head))
                head = []
        if parts and not chunk[-1].isspace():
            head = [parts.pop()]
        yield parts
    if head:
        yield ["".join(head)]


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
@click.option("--format", "fmt", type=click.Choice(list(_FORMATS)),
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
    input always yield prefixes of the output.  Each read is cut into
    pieces of at most 256 symbols; the detector takes a piece through
    ``feed``, and its records are written with one call.  They collect in
    the output's 8 KiB buffer, also under ``python -u`` or
    PYTHONUNBUFFERED (a terminal without either gets them line by line).
    The records of the symbols before a failing one are written too.  A
    reader that closes the output early (``| head``) ends the run
    normally.
    """
    if sys.stdout is None:  # descriptor 1 was closed when Python started
        click.echo("error: failed writing output: stdout is closed", err=True)
        sys.exit(1)
    from_stdin = file is None or file == "-"
    if from_stdin:
        if sys.stdin is None:
            click.echo("error: cannot read stdin: it is closed", err=True)
            sys.exit(1)
        stream = sys.stdin.buffer
    else:
        try:
            stream = open(file, "rb")
        except OSError as exc:
            click.echo(f"error: cannot read {file!r}: {exc}", err=True)
            sys.exit(1)

    out = sys.stdout
    if isinstance(out, io.TextIOWrapper):
        # `-u` and PYTHONUNBUFFERED make stdout write through: one write(2)
        # per record.  Let records collect in the text layer's 8 KiB buffer
        # instead; it goes out when full and at each flush.
        out.reconfigure(write_through=False)
    write = out.write
    line = _FORMATS[fmt]
    detector = PalindromeDetector()
    try:
        for symbols in _token_lists(stream, out) if tokens else _chunks(stream, out):
            for start in range(0, len(symbols), _BATCH):
                records = []
                try:
                    records.extend(map(line, detector.feed(symbols[start:start + _BATCH])))
                finally:
                    write("".join(records))
        out.flush()  # a final token's record follows the last read
    except BrokenPipeError:
        _discard_stdout()
    except (_ReadError, OverflowError) as exc:  # the records before it stand
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except OSError as exc:
        _discard_stdout()
        click.echo(f"error: failed writing output: {exc}", err=True)
        sys.exit(1)
    finally:
        if not from_stdin:
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
@click.option("--mode", type=click.Choice([m.value for m in ChildStorageMode]),
              default=ChildStorageMode.ORDERED.value, show_default=True,
              help="Child-storage mode of the suffix automaton.")
@click.option("--reps", type=int, default=1, show_default=True,
              help="Repetitions per size (fresh seed each).")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Base seed; identical seeds reproduce identical inputs.")
def bench_command(generator: str, sigma: int, sizes: str, mode: str,
                  reps: int, seed: int) -> None:
    """Measure wall time and structural counters over generated inputs.

    Emits one JSON object per configuration on stdout and a human-readable
    table on stderr.  Every run is checked against the 4n loop, 2n - 1 state
    and 3n - 4 transition bounds.
    """
    import json

    try:
        size_list = tuple(int(part) for part in sizes.split(",") if part.strip())
    except ValueError:
        click.echo("error: --sizes must be comma-separated integers", err=True)
        sys.exit(1)
    try:
        results = run_config(generator, sigma=sigma, sizes=size_list, mode=mode,
                             repetitions=reps, seed=seed)
    except (ValueError, RuntimeError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    for measurement in results:
        click.echo(json.dumps(measurement._asdict()))
    click.echo(_bench_table(results), err=True)


# -- selftest ---------------------------------------------------------------------

@main.command("selftest")
def selftest_command() -> None:
    """Check the engine against its reference trace and the oracles."""
    from . import selftest

    if not selftest.run(echo=click.echo):
        sys.exit(2)


if __name__ == "__main__":
    main()
