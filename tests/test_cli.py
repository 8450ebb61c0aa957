"""End-to-end tests of the command-line interface."""

import ast
import io
import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import palstream
from palstream import ChildStorageMode, DetectorSummary, PalindromeDetector
from palstream.bench import run_config
from palstream.cli import _FORMATS, _token_lists, main
from support import invoke, limit_symbols
import tracing

PERFBENCH = Path(tracing.__file__).parent
REFERENCE_WORD = "abadaadcaa"
EXPECTED_RECORDS = [
    {"n": 1, "max_pal": 1, "min_unique_suff": 1, "new": "1-1",
     "closure_len": 1, "distinct_count": 1},
    {"n": 2, "max_pal": 1, "min_unique_suff": 1, "new": "2-2",
     "closure_len": 3, "distinct_count": 2},
    {"n": 3, "max_pal": 3, "min_unique_suff": 2, "new": "1-3",
     "closure_len": 3, "distinct_count": 3},
    {"n": 4, "max_pal": 1, "min_unique_suff": 1, "new": "4-4",
     "closure_len": 7, "distinct_count": 4},
    {"n": 5, "max_pal": 3, "min_unique_suff": 2, "new": "3-5",
     "closure_len": 7, "distinct_count": 5},
    {"n": 6, "max_pal": 2, "min_unique_suff": 2, "new": "5-6",
     "closure_len": 10, "distinct_count": 6},
    {"n": 7, "max_pal": 4, "min_unique_suff": 3, "new": "4-7",
     "closure_len": 10, "distinct_count": 7},
    {"n": 8, "max_pal": 1, "min_unique_suff": 1, "new": "8-8",
     "closure_len": 15, "distinct_count": 8},
    {"n": 9, "max_pal": 1, "min_unique_suff": 2, "new": None,
     "closure_len": 17, "distinct_count": 8},
    {"n": 10, "max_pal": 2, "min_unique_suff": 3, "new": None,
     "closure_len": 18, "distinct_count": 8},
]


def jsonl_records(text):
    return [json.loads(line) for line in text.splitlines() if line]


def cli_env(**changes):
    """Environment for a `python -m palstream.cli` child that imports this
    palstream: this process's, with each of ``changes`` set, or removed where
    its value is None."""
    env = dict(os.environ)
    for name, value in changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(palstream.__file__).parents[1]), env.get("PYTHONPATH")]))
    return env


def table_records(text):
    """Parse the fixed-width table back into record dicts."""
    lines = text.splitlines()
    assert lines[0].split() == ["n", "max_pal", "min_unique_suff", "new",
                                "closure_len", "distinct_count"]
    records = []
    for line in lines[1:]:
        n, max_pal, unique, new, closure, count = line.split()
        records.append({
            "n": int(n),
            "max_pal": int(max_pal),
            "min_unique_suff": int(unique),
            "new": None if new == "-" else new,
            "closure_len": int(closure),
            "distinct_count": int(count),
        })
    return records


class ShortReads(io.BytesIO):
    """An input stream whose every ``read1`` returns at most ``size`` bytes,
    as a pipe can when the writer is slow."""

    def __init__(self, data, size=1):
        super().__init__(data)
        self.size = size

    def read1(self, size=-1):
        return super().read1(self.size)


class NoFlush:
    """An output for ``_token_lists`` to flush before each read."""

    def flush(self):
        pass


class CountingRaw(io.RawIOBase):
    """A raw output stream that counts its ``write`` calls and keeps the
    bytes."""

    def __init__(self):
        super().__init__()
        self.writes = 0
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        self.writes += 1
        self.data += b
        return len(b)


def pushed_reports(symbols):
    """The reports of ``symbols`` through ``push``, one call a symbol, so
    that the expected output does not come from the batches of ``feed``
    that `run` uses."""
    detector = PalindromeDetector()
    return [detector.push(c) for c in symbols]


TABLE_HEADER = (f"{'n':>8} {'max_pal':>8} {'min_unique_suff':>16} "
                f"{'new':>14} {'closure_len':>12} {'distinct_count':>15}\n")


def record_line(fmt, r):
    """One record as `run` writes it, made on its own and not by cli.py: a
    table row by the format spec of the f-strings the table was first
    written with, after the header for the record of n = 1, or a jsonl line
    as ``json.dumps`` writes the record."""
    new = None if r.new_palindrome is None else "%d-%d" % r.new_palindrome
    if fmt == "jsonl":
        return json.dumps({
            "n": r.n, "max_pal": r.max_pal, "min_unique_suff": r.min_unique_suff,
            "new": new, "closure_len": r.closure_len,
            "distinct_count": r.distinct_count}) + "\n"
    row = (f"{r.n:>8} {r.max_pal:>8} {r.min_unique_suff:>16} {new or '-':>14} "
           f"{r.closure_len:>12} {r.distinct_count:>15}\n")
    return TABLE_HEADER + row if r.n == 1 else row


def table_text(symbols):
    """`run` table output, one record at a time."""
    return "".join(record_line("table", r) for r in pushed_reports(symbols))


def dumps_records(symbols):
    """`run --format jsonl` output, one record at a time."""
    return "".join(record_line("jsonl", r) for r in pushed_reports(symbols))


def lines_within(proc, want, timeout=10.0):
    """The lines that arrive on ``proc``'s stdout pipe before ``want`` of
    them or the timeout, whichever comes first."""
    fd = proc.stdout.fileno()
    received = b""
    deadline = time.monotonic() + timeout
    while received.count(b"\n") < want:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            break
        chunk = os.read(fd, 65536)
        if not chunk:
            break
        received += chunk
    return received.splitlines()


def records_before_eof(env, args, data, want):
    """Start `palstream run ARGS` in ``env``, write ``data`` to its stdin and
    keep stdin open; return the lines that arrive before ``want`` of them or
    a timeout, whichever comes first."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "palstream.cli", "run", *args],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env=env)
    try:
        proc.stdin.write(data)
        proc.stdin.flush()
        lines = lines_within(proc, want)
        proc.stdin.close()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return lines


def run_with_closed_fd(fd, env, *args):
    """`palstream run ARGS` in ``env`` on the input "ab" with descriptor
    ``fd`` closed in the child before Python starts, as `<&-`, `>&-` or
    `2>&-` does."""
    return subprocess.run(
        [sys.executable, "-m", "palstream.cli", "run", *args], input=b"ab",
        capture_output=True, env=env, preexec_fn=lambda: os.close(fd), timeout=60)


def write_to_dev_full(env, args, path):
    """`palstream run ARGS PATH` in ``env``, with stdout on a device where
    every write fails."""
    if not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    with open("/dev/full", "wb") as full:
        return subprocess.run(
            [sys.executable, "-m", "palstream.cli", "run", *args, str(path)],
            stdout=full, stderr=subprocess.PIPE, env=env, timeout=60)


class RunInChildChecks:
    """`palstream run` as a child process, in the environment given by the
    fixture ``env`` of each test class that inherits these tests."""

    def test_output_closed_early_ends_cleanly(self, tmp_path, env):
        # `palstream run FILE | head -2`: the reader leaves after two records
        path = tmp_path / "input.txt"
        path.write_bytes(b"ab" * 50_000)
        proc = subprocess.Popen(
            [sys.executable, "-m", "palstream.cli", "run", "--format", "jsonl", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            lines = [proc.stdout.readline() for _ in range(2)]
            proc.stdout.close()
            stderr = proc.stderr.read()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()
        assert [json.loads(line)["n"] for line in lines] == [1, 2]
        assert proc.returncode == 0
        assert stderr == b""

    def test_write_failure_is_not_reported_as_input_error(self, tmp_path, env):
        path = tmp_path / "input.txt"
        path.write_bytes(REFERENCE_WORD.encode())
        proc = write_to_dev_full(env, [], path)
        assert proc.returncode == 1
        assert proc.stderr.decode().startswith("error: failed writing output:")

    def test_write_failure_after_the_last_read_is_reported(self, tmp_path, env):
        # the record of a final token with no whitespace after it is
        # written only once the input has ended
        path = tmp_path / "input.txt"
        path.write_bytes(b"foo")
        proc = write_to_dev_full(env, ["--tokens"], path)
        assert proc.returncode == 1
        assert proc.stderr.decode().startswith("error: failed writing output:")

    def test_closed_stdout_is_one_error_line(self, env):
        proc = run_with_closed_fd(1, env)
        lines = proc.stderr.decode().splitlines()
        assert proc.returncode == 1
        assert len(lines) == 1 and lines[0].startswith("error: failed writing output"), lines

    def test_records_arrive_before_stdin_closes(self, env):
        lines = records_before_eof(env, ["--format", "jsonl"], b"aba", 3)
        assert [json.loads(line)["n"] for line in lines] == [1, 2, 3]

    def test_token_records_arrive_before_stdin_closes(self, env):
        lines = records_before_eof(env, ["--format", "jsonl", "--tokens"], b"foo bar \n", 2)
        assert [json.loads(line)["n"] for line in lines] == [1, 2]


class TestRun(RunInChildChecks):
    @pytest.fixture
    def env(self):
        return cli_env()

    def test_jsonl_reference_word(self):
        result = invoke(["run", "--format", "jsonl"],
                        input=REFERENCE_WORD.encode())
        assert result.exit_code == 0
        assert jsonl_records(result.stdout) == EXPECTED_RECORDS

    def test_jsonl_keys_are_exact(self):
        result = invoke(["run", "--format", "jsonl"], input=b"ab")
        for record in jsonl_records(result.stdout):
            assert list(record) == ["n", "max_pal", "min_unique_suff", "new",
                                    "closure_len", "distinct_count"]

    def test_table_matches_jsonl(self):
        as_table = invoke(["run"], input=REFERENCE_WORD.encode())
        as_jsonl = invoke(["run", "--format", "jsonl"],
                          input=REFERENCE_WORD.encode())
        assert as_table.exit_code == 0
        assert table_records(as_table.stdout) == jsonl_records(as_jsonl.stdout)

    def test_table_dash_for_no_detection(self):
        result = invoke(["run"], input=REFERENCE_WORD.encode())
        rows = result.stdout.splitlines()
        assert rows[-1].split()[3] == "-"
        assert rows[-2].split()[3] == "-"

    def test_empty_input(self):
        result = invoke(["run"], input=b"")
        assert result.exit_code == 0
        assert result.stdout == ""

    def test_uniform_jsonl(self):
        result = invoke(["run", "--format", "jsonl"], input=b"aaaa")
        counts = [r["distinct_count"] for r in jsonl_records(result.stdout)]
        assert counts == [1, 2, 3, 4]

    def test_file_argument(self, tmp_path):
        path = tmp_path / "input.txt"
        path.write_bytes(REFERENCE_WORD.encode())
        result = invoke(["run", "--format", "jsonl", str(path)])
        assert result.exit_code == 0
        assert jsonl_records(result.stdout) == EXPECTED_RECORDS

    def test_missing_file_exits_1(self, tmp_path):
        result = invoke(["run", str(tmp_path / "nope")])
        assert result.exit_code == 1
        assert "error" in result.stderr

    def test_tokens_mode(self):
        result = invoke(["run", "--tokens", "--format", "jsonl"],
                        input=b"foo bar\n  foo")
        records = jsonl_records(result.stdout)
        assert len(records) == 3
        # the token sequence foo, bar, foo is itself a palindrome
        assert records[2]["max_pal"] == 3
        assert records[2]["new"] == "1-3"

    def test_output_for_prefix_is_prefix_of_output(self):
        full = invoke(["run", "--format", "jsonl"],
                      input=REFERENCE_WORD.encode())
        part = invoke(["run", "--format", "jsonl"],
                      input=REFERENCE_WORD[:5].encode())
        full_lines = full.stdout.splitlines()
        part_lines = part.stdout.splitlines()
        assert full_lines[:5] == part_lines

    def test_closed_stdin_is_one_error_line(self, env):
        proc = run_with_closed_fd(0, env)
        lines = proc.stderr.decode().splitlines()
        assert proc.returncode == 1
        assert len(lines) == 1 and lines[0].startswith("error: cannot read"), lines

    def test_closed_stderr_keeps_errors_off_stdout(self, tmp_path, env):
        proc = run_with_closed_fd(2, env, str(tmp_path / "nope"))
        assert proc.returncode == 1
        assert proc.stdout == b""

    def test_ctrl_c_keeps_the_records_and_aborts(self, env):
        # Ctrl-C while the run waits on an open pipe, after the records of
        # "ab" are out.  The child gets SIGINT's default disposition, which
        # makes Python raise KeyboardInterrupt, even where this process
        # was started with SIGINT ignored
        proc = subprocess.Popen(
            [sys.executable, "-m", "palstream.cli", "run", "--format", "jsonl"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        try:
            proc.stdin.write(b"ab")
            proc.stdin.flush()
            records = lines_within(proc, 2)
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=60)  # stdin stays open: the signal ends the run
            rest, stderr = proc.stdout.read(), proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for pipe in (proc.stdin, proc.stdout, proc.stderr):
                pipe.close()
        assert [json.loads(line)["n"] for line in records] == [1, 2]
        assert rest == b""
        assert proc.returncode == 1
        assert stderr.endswith(b"Aborted!\n"), stderr

    @pytest.mark.parametrize("fmt", ["table", "jsonl"])
    def test_full_text_keeps_its_records_and_is_one_error_line(self, monkeypatch, fmt):
        limit_symbols(monkeypatch, 5)
        result = invoke(["run", "--format", fmt], input=b"abcdefg")
        full = invoke(["run", "--format", fmt], input=b"abcde")
        assert (result.exit_code, full.exit_code) == (1, 0)
        assert result.stdout == full.stdout
        assert len(full.stdout.splitlines()) == 5 + (fmt == "table")
        assert result.stderr == "error: symbol limit reached: at most 5 symbols\n"

    def test_undecodable_tokens_are_an_input_error(self):
        result = invoke(["run", "--tokens"], input=b"ok \xff\xfe")
        assert result.exit_code == 1
        assert "failed reading input" in result.stderr

    @pytest.mark.parametrize("stream", [bytes, ShortReads])
    def test_truncated_utf8_at_eof_is_an_input_error(self, stream):
        result = invoke(["run", "--tokens"], input=stream(b"ok \xc3"))
        assert result.exit_code == 1
        assert "failed reading input" in result.stderr

    @pytest.mark.parametrize("data", ["h\u00e9llo w\u00f6rld  h\u00e9llo\n\u00e9 x \u00e9",
                                      "\u20ac\U0001f600 \u20ac"])
    def test_tokens_split_across_reads(self, data):
        data = data.encode()
        one_shot = invoke(["run", "--tokens", "--format", "jsonl"], input=data)
        by_byte = invoke(["run", "--tokens", "--format", "jsonl"],
                         input=ShortReads(data))
        assert one_shot.exit_code == by_byte.exit_code == 0
        assert len(jsonl_records(one_shot.stdout)) == len(data.decode().split())
        assert by_byte.stdout == one_shot.stdout

    def test_a_token_spans_three_reads(self):
        data = b"ab cdefghij k"  # read as "ab c", "defg", "hij ", "k", then EOF
        lists = list(_token_lists(ShortReads(data, 4), NoFlush()))
        assert lists == [["ab"], [], ["cdefghij"], [], ["k"]]
        one_shot = invoke(["run", "--tokens", "--format", "jsonl"], input=data)
        by_four = invoke(["run", "--tokens", "--format", "jsonl"],
                         input=ShortReads(data, 4))
        assert one_shot.exit_code == by_four.exit_code == 0
        assert by_four.stdout == one_shot.stdout

    def test_a_long_token_costs_linear_time(self):
        # splitting the whole open token again on each 64 KiB read would
        # make a doubling of its length take 4x the time.  Process CPU time,
        # so that time the host gives to other processes is not counted
        def seconds(data):
            start = time.process_time()
            for _ in _token_lists(io.BytesIO(data), NoFlush()):
                pass
            return time.process_time() - start

        sizes = (b"x" * (8 << 20), b"x" * (16 << 20))
        for data in sizes:  # a first run pays for the allocator's growth
            seconds(data)
        # a sample of each size is the sum of 4 passes, interleaved pass by
        # pass: back-to-back passes of one size reuse its freed memory and
        # skip page faults that alternating sizes pay every time
        samples = []
        for _ in range(5):
            sample = [0.0, 0.0]
            for _ in range(4):
                for j, data in enumerate(sizes):
                    sample[j] += seconds(data)
            samples.append(sample)
        # other work on the host only adds time, so the fastest sample of
        # each size is the one it disturbed least
        short, long = map(min, zip(*samples))
        assert long <= 2.5 * short

    def test_bytes_split_across_reads(self):
        result = invoke(["run", "--format", "jsonl"],
                        input=ShortReads(REFERENCE_WORD.encode()))
        assert result.exit_code == 0
        assert jsonl_records(result.stdout) == EXPECTED_RECORDS

    def test_jsonl_bytes_equal_json_dumps(self):
        data = random.Random(5).randbytes(500)
        for symbols in (REFERENCE_WORD.encode(), data):
            result = invoke(["run", "--format", "jsonl"], input=symbols)
            assert result.exit_code == 0
            assert result.stdout_bytes == dumps_records(symbols).encode()
        # both forms of "new" were pinned
        assert b'"new": null' in result.stdout_bytes
        assert b'"new": "' in result.stdout_bytes

    def test_table_bytes_equal_format_spec(self):
        data = bytes(random.Random(7).choices(b"abcdefghijklmnopqrstuvwxyz", k=5000))
        outputs = []
        for symbols in (data, b"a" * 5000):
            result = invoke(["run"], input=symbols)
            assert result.exit_code == 0
            assert result.stdout_bytes == table_text(symbols).encode()
            outputs.append(result.stdout_bytes)
        # both forms of "new" were pinned
        assert b"              - " in outputs[0]
        assert b" 1-5000 " in outputs[1]

    @pytest.mark.parametrize("fmt", ["table", "jsonl"])
    def test_writes_do_not_depend_on_interpreter_buffering(self, monkeypatch, tmp_path, fmt):
        # the layout of sys.stdout under `python -u` or PYTHONUNBUFFERED
        raw = CountingRaw()
        monkeypatch.setattr(sys, "stdout",
                            io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
        data = bytes(random.Random(11).choices(b"abcdefghijklmnopqrstuvwxyz", k=2000))
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        main(["run", "--format", fmt, str(path)], standalone_mode=False)
        expected = (table_text if fmt == "table" else dumps_records)(data).encode()
        assert bytes(raw.data) == expected
        assert raw.writes <= len(expected) // 4096 + 2


class TestFormats:
    """Each ``_FORMATS`` entry makes the text of one piece's reports in one
    call: the records' lines, each made on its own, joined."""

    # 300 symbols, whose palindromes after the first 260 are new again
    REPORTS = pushed_reports(REFERENCE_WORD * 26 + "ab" * 20)

    @pytest.mark.parametrize("fmt", list(_FORMATS))
    @pytest.mark.parametrize("start, stop", [(0, 0), (0, 256), (0, 1), (3, 10), (256, 300)],
                             ids=["empty", "first_piece", "first_record_alone",
                                  "mid_stream", "second_piece"])
    def test_a_piece_is_its_records_lines_joined(self, fmt, start, stop):
        reports = self.REPORTS[start:stop]
        text = _FORMATS[fmt](reports)
        assert text == "".join(record_line(fmt, r) for r in reports)
        # the table header goes before the first record of the stream only
        headers = text.count(TABLE_HEADER)
        assert headers == (fmt == "table" and start == 0 < stop)
        if stop - start > 1:  # new palindromes and steps without one
            assert {r.new_palindrome is None for r in reports} == {True, False}


class TestRunBuffering(RunInChildChecks):
    """The child-process checks with stdout buffered and write-through
    (`python -u`), whatever this process was started with."""

    @pytest.fixture(params=[None, "1"], ids=["PYTHONUNBUFFERED_unset", "PYTHONUNBUFFERED_1"])
    def env(self, request):
        return cli_env(PYTHONUNBUFFERED=request.param)


class TestBench:
    def test_small_run_emits_json_per_size(self):
        result = invoke(["bench", "--gen", "random", "--sigma", "4",
                         "--sizes", "200,400", "--reps", "2", "--seed", "7"])
        assert result.exit_code == 0
        records = jsonl_records(result.stdout)
        assert [r["n"] for r in records] == [200, 400]
        for record in records:
            assert record["manacher_loop_iters"] <= record["manacher_loop_bound"]
            assert record["nodes"] <= 2 * record["n"]
            assert record["transitions"] <= 3 * record["n"] - 4
            assert record["child_probes"] > 0
            assert record["mode"] == "ordered"

    def test_json_keys_in_order(self):
        result = invoke(["bench", "--gen", "paper_example"])
        assert result.exit_code == 0
        assert list(json.loads(result.stdout.splitlines()[0])) == [
            "gen", "sigma", "n", "mode", "reps", "seed", "wall_best", "wall_mean",
            "symbols_per_sec", "manacher_loop_iters", "manacher_loop_bound",
            "nodes", "transitions", "child_probes", "suffix_link_hops",
            "distinct_count"]

    def test_mode_given_as_string(self):
        [measurement] = run_config("random", sigma=4, sizes=(100,), mode="unordered")
        assert measurement.mode == "unordered"

    def test_seed_reproducibility(self):
        args = ["bench", "--gen", "random", "--sigma", "8", "--sizes", "300",
                "--seed", "42"]
        first = jsonl_records(invoke(args).stdout)
        second = jsonl_records(invoke(args).stdout)
        for record in (*first, *second):
            del record["wall_best"], record["wall_mean"], record["symbols_per_sec"]
        assert first == second

    def test_paper_example_generator(self):
        result = invoke(["bench", "--gen", "paper_example"])
        assert result.exit_code == 0
        record = jsonl_records(result.stdout)[0]
        assert record["n"] == 10
        assert record["distinct_count"] == 8

    def test_paper_example_ignores_sizes(self):
        result = invoke(["bench", "--gen", "paper_example", "--sizes", "5,3"])
        assert result.exit_code == 0, result.stderr
        [record] = jsonl_records(result.stdout)
        assert record["n"] == 10

    def test_unordered_mode(self):
        result = invoke(["bench", "--gen", "random", "--sigma", "16",
                         "--sizes", "500", "--mode", "unordered"])
        assert result.exit_code == 0
        assert jsonl_records(result.stdout)[0]["mode"] == "unordered"

    def test_decreasing_sizes_rejected(self):
        result = invoke(["bench", "--gen", "random", "--sizes", "400,200"])
        assert result.exit_code == 1
        assert "increasing" in result.stderr

    def test_bad_reps_rejected(self):
        result = invoke(["bench", "--gen", "random", "--sizes", "100", "--reps", "0"])
        assert result.exit_code == 1

    def test_abx_needs_three_symbols(self):
        result = invoke(["bench", "--gen", "abx", "--sigma", "2", "--sizes", "100"])
        assert result.exit_code == 1

    def test_unknown_generator_rejected(self):
        result = invoke(["bench", "--gen", "bogus", "--sizes", "10"])
        assert result.exit_code == 2

    def test_abx_generator(self):
        result = invoke(["bench", "--gen", "abx", "--sigma", "5", "--sizes", "99",
                         "--seed", "3"])
        assert result.exit_code == 0
        [record] = jsonl_records(result.stdout)
        assert record["n"] == 99
        assert record["manacher_loop_bound"] == 4 * 99
        # abx words hold only one-letter palindromes: a, b and some of 2..4
        assert 3 <= record["distinct_count"] <= 5

    def test_uniform_a_counts_every_step(self):
        result = invoke(["bench", "--gen", "uniform_a", "--sizes", "50,100"])
        assert result.exit_code == 0
        records = jsonl_records(result.stdout)
        assert [r["n"] for r in records] == [50, 100]
        assert all(r["distinct_count"] == r["n"] for r in records)

    def test_non_integer_sizes_rejected(self):
        result = invoke(["bench", "--gen", "random", "--sizes", "1,x"])
        assert result.exit_code == 1
        assert "comma-separated integers" in result.stderr

    def test_bound_violation_exits_1(self, monkeypatch):
        monkeypatch.setattr(DetectorSummary, "bound_problems",
                            lambda self: ["planted bound problem"])
        result = invoke(["bench", "--gen", "random", "--sizes", "10"])
        assert result.exit_code == 1
        assert ("error: bound violated: planted bound problem "
                "(gen=random, n=10, rep=0)") in result.stderr

    @pytest.mark.parametrize("kwargs, message", [
        ({"generator": "bogus"}, "unknown generator"),
        ({"generator": "random", "sizes": ()}, "at least one size"),
        ({"generator": "random", "sizes": (0,)}, "positive"),
        ({"generator": "random", "sigma": 0}, "sigma >= 1"),
    ], ids=["generator", "no_sizes", "size_below_1", "random_sigma_0"])
    def test_bad_config_raises(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            run_config(**kwargs)

    def test_unordered_probe_excess_grows_with_sigma(self):
        # directional: the unordered/ordered probe factor widens as the
        # alphabet grows
        factors = []
        for sigma in ("64", "65536"):
            counts = {}
            for mode in ("ordered", "unordered"):
                result = invoke(["bench", "--gen", "random", "--sigma", sigma,
                                 "--sizes", "3000", "--mode", mode, "--seed", "3"])
                assert result.exit_code == 0
                counts[mode] = jsonl_records(result.stdout)[0]["child_probes"]
            factors.append(counts["unordered"] / counts["ordered"])
        assert factors[1] > factors[0] > 1.0


class TestSelftest:
    def test_passes_on_fresh_build(self):
        result = invoke(["selftest"])
        assert result.exit_code == 0
        assert "FAIL" not in result.output

    def test_inverted_detection_is_caught(self, monkeypatch):
        # mutation sanity: flip the detection verdict and the self-test must
        # exit nonzero with a counterexample
        import palstream.selftest as selftest_module
        from palstream.detector import PalindromeDetector, StepReport

        class Inverted(PalindromeDetector):
            def push(self, c):
                r = super().push(c)
                flipped = None if r.new_palindrome else (r.n, r.n)
                return StepReport(
                    n=r.n, max_pal_odd=r.max_pal_odd,
                    max_pal_even=r.max_pal_even, max_pal=r.max_pal,
                    min_unique_suff=r.min_unique_suff, new_palindrome=flipped,
                    closure_len=r.closure_len, distinct_count=r.distinct_count)

        monkeypatch.setattr(selftest_module, "PalindromeDetector", Inverted)
        result = invoke(["selftest"])
        assert result.exit_code == 2
        assert "FAIL" in result.output

    def test_engine_exception_is_a_failure(self, monkeypatch):
        # a push that raises fails the self-test (exit 2) with the error in
        # the report, rather than ending it with a traceback
        import palstream.selftest as selftest_module
        from palstream.detector import PalindromeDetector

        class RaisesOnEighth(PalindromeDetector):
            def push(self, c):
                if self.n == 7:
                    raise IndexError("planted")
                return super().push(c)

        monkeypatch.setattr(selftest_module, "PalindromeDetector", RaisesOnEighth)
        result = invoke(["selftest"])
        assert result.exit_code == 2
        assert ("FAIL reference example (ordered): 'abadaadcaa' step 8 (ordered): "
                "push raised IndexError('planted')") in result.output
        assert "FAIL oracle sweep: counterexample 'aaaaaaaa'" in result.output

    def test_unordered_only_fault_is_caught(self, monkeypatch):
        # a detector that miscounts only in unordered mode: both the
        # reference example and the sweep must run that mode
        import palstream.selftest as selftest_module
        from palstream.detector import PalindromeDetector

        class UnorderedMiscounts(PalindromeDetector):
            def push(self, c):
                r = super().push(c)
                if self.mode is ChildStorageMode.UNORDERED:
                    r = r._replace(distinct_count=r.distinct_count + 1)
                return r

        monkeypatch.setattr(selftest_module, "PalindromeDetector", UnorderedMiscounts)
        result = invoke(["selftest"])
        assert result.exit_code == 2
        assert "ok   reference example (ordered)" in result.stdout
        assert "FAIL reference example (unordered)" in result.stdout
        assert "FAIL oracle sweep" in result.stdout
        assert "(unordered): distinct_count" in result.stdout

    def test_bound_violation_is_caught(self, monkeypatch):
        monkeypatch.setattr(DetectorSummary, "bound_problems",
                            lambda self: ["planted bound problem"])
        result = invoke(["selftest"])
        assert result.exit_code == 2
        assert "FAIL reference example (ordered)" in result.stdout
        assert "FAIL oracle sweep" in result.stdout
        assert "planted bound problem" in result.stdout

    def test_passes_without_asserts(self):
        # `python -O` strips assert statements; no check may depend on one
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "palstream.cli", "selftest"],
            capture_output=True, env=cli_env(), timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert b"FAIL" not in proc.stdout

    def test_package_has_no_assert_statement(self):
        # so that no check anywhere in the package vanishes under `python -O`
        for path in sorted(Path(palstream.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            lines = [node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.Assert)]
            assert lines == [], f"assert statement in {path.name} at lines {lines}"


class TestUsage:
    """Usage errors exit 2 with a usage message on stderr and nothing on
    stdout; every `--help` exits 0 and names every option."""

    @pytest.mark.parametrize("args", [
        ["run", "--format", "bogus"],
        ["bench", "--gen", "bogus"],
        ["run", "--nope"],
        ["run", "--form", "jsonl"],
        [],
        ["frob"],
    ], ids=["bad_format", "bad_generator", "unknown_option", "abbreviated_option",
            "no_command", "unknown_command"])
    def test_usage_error_exits_2(self, args):
        result = invoke(args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "usage:" in result.stderr.lower()

    @pytest.mark.parametrize("args, command, unknown", [
        (["run", "--nope"], "run", "--nope"),
        (["selftest", "extra"], "selftest", "extra"),
    ], ids=["run_unknown_option", "selftest_extra_argument"])
    def test_unknown_argument_is_its_commands_usage_error(self, args, command, unknown):
        result = invoke(args)
        assert result.exit_code == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert lines[0].startswith(f"usage: palstream {command} [--help]")
        assert lines[-1] == f"palstream {command}: error: unrecognized arguments: {unknown}"

    @pytest.mark.parametrize("args, names", [
        ([], ["--version", "run", "bench", "selftest"]),
        (["run"], ["--format", "--tokens", "[default: table]"]),
        (["bench"], ["--gen", "--sigma", "--sizes", "--mode", "--reps", "--seed",
                     "[default: 2]", "[default: 1000]", "[default: ordered]",
                     "[default: 1]", "[default: 0]"]),
        (["selftest"], []),
    ], ids=["top", "run", "bench", "selftest"])
    def test_help_names_every_option(self, args, names):
        result = invoke([*args, "--help"])
        assert result.exit_code == 0
        shown = " ".join(result.stdout.split())  # however the lines wrap
        for name in [*names, "--help"]:
            assert name in shown, name


class TestClosedPipe:
    @pytest.mark.parametrize("unbuffered", [None, "1"],
                             ids=["PYTHONUNBUFFERED_unset", "PYTHONUNBUFFERED_1"])
    @pytest.mark.parametrize("args", [["bench", "--gen", "paper_example"], ["selftest"]],
                             ids=["bench", "selftest"])
    def test_reader_gone_exits_1_quietly(self, args, unbuffered):
        # stdout is a pipe whose reader has left, so the first write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "palstream.cli", *args], stdout=write_end,
                stderr=subprocess.PIPE, env=cli_env(PYTHONUNBUFFERED=unbuffered), timeout=300)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""


class TestVersion:
    expected = f"palstream, version {palstream.__version__}\n"

    def test_version_in_process(self):
        result = invoke(["--version"])
        assert result.exit_code == 0
        assert result.stdout == self.expected

    def test_version_from_checkout(self):
        # the package is imported from its source tree, not installed, so
        # the version must not come from installed metadata
        proc = subprocess.run(
            [sys.executable, "-m", "palstream.cli", "--version"],
            capture_output=True, env=cli_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode() == self.expected


class TestTracedCli:
    """perfbench/traced_cli.py swaps in its own `cli.PalindromeDetector`,
    which forwards only positional arguments and relies on `run` calling
    `feed`; its records and spans must stay those of `palstream run`."""

    def test_records_and_spans(self, tmp_path):
        data = tmp_path / "word.txt"
        data.write_bytes(REFERENCE_WORD.encode())
        spans = tmp_path / "spans.bin"
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans),
             "--format", "jsonl", str(data)],
            capture_output=True, env=cli_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        untraced = invoke(["run", "--format", "jsonl", str(data)])
        assert proc.stdout.decode() == untraced.stdout
        tracer, _ = tracing.Tracer.load(spans)
        counts = {name: row[0] for name, row in tracer.totals().items()}
        for name in ("detector.push", "manacher.odd.add_letter",
                     "manacher.even.add_letter", "ukkonen.add_letter"):
            assert counts[name] == len(REFERENCE_WORD), name


class TestCliRss:
    """perfbench/cli_rss.py launches the `palstream run` passes behind
    setup_s, cli_sym_per_s and cli_peak_rss_mb; it must pass the output
    through untouched and leave a peak RSS in its file."""

    def test_output_and_peak(self, tmp_path):
        data = tmp_path / "word.txt"
        data.write_bytes(REFERENCE_WORD.encode())
        rss = tmp_path / "rss.txt"
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "cli_rss.py"), str(rss),
             "palstream.cli", "run", "--format", "jsonl", str(data)],
            capture_output=True, env=cli_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == b""
        untraced = invoke(["run", "--format", "jsonl", str(data)])
        assert proc.stdout.decode() == untraced.stdout
        assert int(rss.read_text()) > 0


class TestImports:
    def test_run_imports_neither_the_tools_nor_json(self):
        # `palstream run` needs the engine and `bench` (for --gen's choices);
        # the self-test, its oracle and json load with their commands.  The
        # arguments are parsed by argparse, not click, and the package's
        # records are named tuples, so `run` loads no dataclasses either
        code = ("import sys; before = set(sys.modules); import palstream.cli; "
                "print(*sorted(set(sys.modules) - before))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env=cli_env(), timeout=60, check=True)
        added = set(proc.stdout.decode().split())
        assert "palstream.cli" in added
        assert not added & {"palstream.selftest", "palstream.oracle", "json",
                            "dataclasses", "click"}
