"""Command-line front end: stream analysis, benchmarks, self-verification.

Exit codes: 0 success, 1 input/configuration error or Ctrl-C, 2 self-test
failure or a usage error reported by argparse (an unknown option or an
invalid choice).
"""

from __future__ import annotations

import argparse
import codecs
import gc
import io
import os
import sys
from collections.abc import Iterator

from . import __version__
from .automaton import ChildStorageMode
from .detector import _BATCH, PalindromeDetector, StepReport


def _to_stderr(text: str) -> None:
    """``text`` and a newline on stderr, or nowhere when stderr is closed
    (``print`` would fall back to stdout)."""
    if sys.stderr is not None:
        print(text, file=sys.stderr)


# -- run ----------------------------------------------------------------------

_TABLE_HEADER = (f"{'n':>8} {'max_pal':>8} {'min_unique_suff':>16} "
                 f"{'new':>14} {'closure_len':>12} {'distinct_count':>15}")


def _table_lines(reports: list[StepReport]) -> str:
    """The reports' table rows; a piece that starts the stream (``n == 1``)
    starts with the header."""
    rows = "".join(["%8d %8d %16d %14s %12d %15d\n"
                    % (n, longest, unique, "-" if span is None else "%d-%d" % span,
                       closure, distinct)
                    for n, _, _, longest, unique, span, closure, distinct in reports])
    return _TABLE_HEADER + "\n" + rows if reports and reports[0][0] == 1 else rows


def _jsonl_lines(reports: list[StepReport]) -> str:
    """``json.dumps`` of each report's record, byte for byte, one a line.
    A record with a span and one without each have their own template,
    which is quicker than one template with the span's text computed."""
    return "".join([
        f'{{"n": {n}, "max_pal": {longest}, "min_unique_suff": {unique}, "new": null, '
        f'"closure_len": {closure}, "distinct_count": {distinct}}}\n' if span is None else
        f'{{"n": {n}, "max_pal": {longest}, "min_unique_suff": {unique}, '
        f'"new": "{span[0]}-{span[1]}", "closure_len": {closure}, "distinct_count": {distinct}}}\n'
        for n, _, _, longest, unique, span, closure, distinct in reports])


_FORMATS = {"table": _table_lines, "jsonl": _jsonl_lines}


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
    costs time linear in its length.  Equal tokens of one list are one
    string, the first of them: the table that finds it lives for that read
    only, so the run keeps no string that its text does not.
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
        # rebound before the yield, so the later copies are freed before
        # the detector takes the list
        parts = list(map({}.setdefault, parts, parts))
        yield parts
    if head:
        yield ["".join(head)]


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device: the flush at
    interpreter exit cannot fail again on output that already failed, and
    the reader of output that is complete gets EOF."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    finally:
        os.close(devnull)


def run_command(file: str | None, fmt: str, tokens: bool) -> PalindromeDetector:
    """Stream FILE (or stdin) through the detector, one record per symbol.

    Bytes are the symbols by default; --tokens switches to whitespace-
    separated tokens, which exercises large alphabets.  A run holds one
    string per distinct token of each 64 KiB read, which its text and its
    records share: on 200,000 Zipf tokens over 4,096 words the peak RSS
    was 33 MB, against 42 MB with a string per token, and on 100,000
    distinct tokens 27 MB either way (Python 3.11).  Output is flushed
    before each read of more input, so the records for every symbol read
    so far are out before the run waits for input, and prefixes of the
    input always yield prefixes of the output.  Each read is cut into
    pieces of at most 256 symbols; the detector takes a piece through
    ``feed``, and its records are formatted in one pass and written with
    one call.  They collect in the output's 8 KiB buffer, also under
    ``python -u`` or PYTHONUNBUFFERED (a terminal without either gets
    them line by line).  The records of the symbols before a failing one
    are written too.  A reader that closes the output early (``| head``)
    ends the run normally.  The stream runs with Python's cyclic garbage
    collector paused, as the engine makes no reference cycles, and the
    caller's setting is restored when the run ends, however it ends.  From
    the command line, the output ends, at EOF, with its last record, before
    the detector is freed and before the interpreter's teardown.
    """
    if sys.stdout is None:  # descriptor 1 was closed when Python started
        _to_stderr("error: failed writing output: stdout is closed")
        sys.exit(1)
    from_stdin = file is None or file == "-"
    if from_stdin:
        if sys.stdin is None:
            _to_stderr("error: cannot read stdin: it is closed")
            sys.exit(1)
        stream = sys.stdin.buffer
    else:
        try:
            stream = open(file, "rb")
        except OSError as exc:
            _to_stderr(f"error: cannot read {file!r}: {exc}")
            sys.exit(1)

    out = sys.stdout
    if isinstance(out, io.TextIOWrapper):
        # `-u` and PYTHONUNBUFFERED make stdout write through: one write(2)
        # per record.  Let records collect in the text layer's 8 KiB buffer
        # instead; it goes out when full and at each flush.
        out.reconfigure(write_through=False)
    write = out.write
    lines = _FORMATS[fmt]
    detector = PalindromeDetector()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for symbols in _token_lists(stream, out) if tokens else _chunks(stream, out):
            for start in range(0, len(symbols), _BATCH):
                reports = []
                try:
                    reports.extend(detector.feed(symbols[start:start + _BATCH]))
                finally:
                    write(lines(reports))
        out.flush()  # a final token's record follows the last read
    except BrokenPipeError:
        _discard_stdout()
    except (_ReadError, OverflowError) as exc:  # the records before it stand
        _to_stderr(f"error: {exc}")
        sys.exit(1)
    except OSError as exc:
        _discard_stdout()
        _to_stderr(f"error: failed writing output: {exc}")
        sys.exit(1)
    finally:
        if gc_was_enabled:
            gc.enable()
        if not from_stdin:
            stream.close()
    return detector


# -- bench ----------------------------------------------------------------------

def _bench_table(results: list) -> str:
    """The table of ``run_config``'s measurements."""
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


def bench_command(generator: str, sigma: int, sizes: str, mode: str,
                  reps: int, seed: int) -> None:
    """Measure wall time and structural counters over generated inputs.

    Emits one JSON object per configuration on stdout and a human-readable
    table on stderr.  Every run is checked against the 4n loop, 2n - 1 state
    and 3n - 4 transition bounds.
    """
    import json

    from .bench import run_config

    try:
        size_list = tuple(int(part) for part in sizes.split(",") if part.strip())
    except ValueError:
        _to_stderr("error: --sizes must be comma-separated integers")
        sys.exit(1)
    try:
        results = run_config(generator, sigma=sigma, sizes=size_list, mode=mode,
                             repetitions=reps, seed=seed)
    except (ValueError, RuntimeError) as exc:
        _to_stderr(f"error: {exc}")
        sys.exit(1)
    for measurement in results:
        print(json.dumps(measurement._asdict()), flush=True)
    _to_stderr(_bench_table(results))


# -- selftest ---------------------------------------------------------------------

def selftest_command() -> None:
    """Check the engine against its reference trace and the oracles."""
    from . import selftest

    if not selftest.run(echo=lambda line: print(line, flush=True)):
        sys.exit(2)


# -- arguments ------------------------------------------------------------------

class _CommandParser(argparse.ArgumentParser):
    """A command's parser.  ``arguments(parser)`` adds the command's
    arguments when the command is the one being parsed, so that what only
    one command needs (`bench`'s generators) loads with that command.  An
    argument the command does not take is its usage error, reported with
    its own usage line (argparse would pass it up to ``palstream``'s)."""

    def __init__(self, *args, arguments, **kwargs):
        super().__init__(*args, **kwargs)
        self._arguments = arguments

    def parse_known_args(self, args=None, namespace=None):
        arguments, self._arguments = self._arguments, None
        if arguments is not None:
            arguments(self)
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _with_help(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


def _run_arguments(run: argparse.ArgumentParser) -> None:
    _with_help(run)
    run.add_argument("file", nargs="?", metavar="FILE")
    run.add_argument("--format", dest="fmt", choices=list(_FORMATS), default="table",
                     help="Per-symbol output format.  [default: %(default)s]")
    run.add_argument("--tokens", action="store_true",
                     help="Read whitespace-separated tokens instead of raw bytes.")


def _bench_arguments(bench: argparse.ArgumentParser) -> None:
    from .bench import GENERATORS

    _with_help(bench)
    bench.add_argument("--gen", dest="generator", choices=list(GENERATORS),
                       required=True, help="Input generator.  [required]")
    bench.add_argument("--sigma", type=int, default=2,
                       help="Alphabet size for generated inputs.  [default: %(default)s]")
    bench.add_argument("--sizes", default="1000",
                       help="Comma-separated input lengths, strictly increasing.  "
                            "[default: %(default)s]")
    bench.add_argument("--mode", choices=[m.value for m in ChildStorageMode],
                       default=ChildStorageMode.ORDERED.value,
                       help="Child-storage mode of the suffix automaton.  "
                            "[default: %(default)s]")
    bench.add_argument("--reps", type=int, default=1,
                       help="Repetitions per size (fresh seed each).  [default: %(default)s]")
    bench.add_argument("--seed", type=int, default=0,
                       help="Base seed; identical seeds reproduce identical inputs.  "
                            "[default: %(default)s]")


def _parser() -> argparse.ArgumentParser:
    # `--help` without `-h`, and no abbreviations: `--form` is not `--format`
    style = {"formatter_class": argparse.RawDescriptionHelpFormatter,
             "add_help": False, "allow_abbrev": False}
    parser = _with_help(argparse.ArgumentParser(
        prog="palstream",
        description="Online detection of distinct palindromes in a symbol stream.",
        **style))
    parser.add_argument("--version", action="version", help="Show the version and exit.",
                        version=f"palstream, version {__version__}")
    commands = parser.add_subparsers(title="commands", dest="command", required=True,
                                     parser_class=_CommandParser)
    # selftest takes no argument but --help
    for name, function, arguments in (("run", run_command, _run_arguments),
                                      ("bench", bench_command, _bench_arguments),
                                      ("selftest", selftest_command, _with_help)):
        doc = function.__doc__
        commands.add_parser(name, help=doc.partition("\n")[0], arguments=arguments,
                            description=doc.replace("\n    ", "\n"),
                            **style).set_defaults(function=function)
    return parser


def main(args: list[str] | None = None,
         standalone_mode: bool = True) -> PalindromeDetector | None:
    """Run the command that ``args`` (by default ``sys.argv[1:]``) name.

    With ``standalone_mode`` false, a command that succeeds returns what
    the command returns, `run`'s detector or None, and its exceptions
    propagate; stdout is left as it is, for the caller to go on writing.
    Otherwise main returns None, and the process is the command's: Ctrl-C
    ends it with ``Aborted!`` on stderr and exit 1, and a reader that
    closes the output of `bench` or `selftest` early ends it with exit 1
    and no message.  A command that succeeds has stdout flushed and, when
    that is the interpreter's own, descriptor 1 pointed at the null
    device, so that the reader gets EOF right after the last record, not
    after `run`'s detector is freed or after interpreter teardown.
    """
    options = vars(_parser().parse_args(args))
    function = options.pop("function")
    del options["command"]
    if not standalone_mode:
        return function(**options)
    try:
        # held until stdout is discarded: freeing a large detector takes
        # milliseconds that the reader need not wait for
        result = function(**options)
    except KeyboardInterrupt:
        _to_stderr("\nAborted!")
        sys.exit(1)
    except BrokenPipeError:
        _discard_stdout()
        sys.exit(1)
    # A substituted stdout (a test's, an embedder's) does not own descriptor
    # 1.  dup2, not close: a file opened at exit would take a free
    # descriptor 1, and the final flush would write into it.
    if sys.stdout is not None and sys.stdout is sys.__stdout__:
        sys.stdout.flush()
        try:
            _discard_stdout()
        except OSError:  # no null device: the output ends at exit instead
            pass


if __name__ == "__main__":
    main()
