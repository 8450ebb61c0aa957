"""End-to-end tests of the command-line interface."""

import io
import json
import os
import random
import select
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import palstream
from palstream import PalindromeDetector
from palstream.bench import BenchConfig, run_config
from palstream.cli import main

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


@pytest.fixture
def runner():
    return CliRunner()


def jsonl_records(text):
    return [json.loads(line) for line in text.splitlines() if line]


def cli_env():
    """Environment for a `python -m palstream.cli` child that imports this
    palstream."""
    env = dict(os.environ)
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


class OneByteReads(io.BytesIO):
    """An input stream whose every ``read1`` returns at most one byte, as a
    pipe can when the writer is slow."""

    def read1(self, size=-1):
        return super().read1(1)


def dumps_records(symbols):
    """`run --format jsonl` output as ``json.dumps`` writes each record."""
    lines = []
    for r in PalindromeDetector().feed(symbols):
        new = None if r.new_palindrome is None else "%d-%d" % r.new_palindrome
        lines.append(json.dumps({
            "n": r.n, "max_pal": r.max_pal, "min_unique_suff": r.min_unique_suff,
            "new": new, "closure_len": r.closure_len,
            "distinct_count": r.distinct_count}) + "\n")
    return "".join(lines)


def records_before_eof(args, data, want, timeout=10.0):
    """Start `palstream run ARGS`, write ``data`` to its stdin and keep stdin
    open; return the lines that arrive before ``want`` of them or the
    timeout, whichever comes first."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "palstream.cli", "run", *args],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env=cli_env())
    try:
        proc.stdin.write(data)
        proc.stdin.flush()
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
        proc.stdin.close()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return received.splitlines()


def run_with_closed_fd(fd):
    """`palstream run` on the input "ab" with descriptor ``fd`` closed in the
    child before Python starts, as `<&-` or `>&-` does."""
    return subprocess.run(
        [sys.executable, "-m", "palstream.cli", "run"], input=b"ab",
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=cli_env(),
        preexec_fn=lambda: os.close(fd), timeout=60)


class TestRun:
    def test_jsonl_reference_word(self, runner):
        result = runner.invoke(main, ["run", "--format", "jsonl"],
                               input=REFERENCE_WORD.encode())
        assert result.exit_code == 0
        assert jsonl_records(result.stdout) == EXPECTED_RECORDS

    def test_jsonl_keys_are_exact(self, runner):
        result = runner.invoke(main, ["run", "--format", "jsonl"], input=b"ab")
        for record in jsonl_records(result.stdout):
            assert list(record) == ["n", "max_pal", "min_unique_suff", "new",
                                    "closure_len", "distinct_count"]

    def test_table_matches_jsonl(self, runner):
        as_table = runner.invoke(main, ["run"], input=REFERENCE_WORD.encode())
        as_jsonl = runner.invoke(main, ["run", "--format", "jsonl"],
                                 input=REFERENCE_WORD.encode())
        assert as_table.exit_code == 0
        assert table_records(as_table.stdout) == jsonl_records(as_jsonl.stdout)

    def test_table_dash_for_no_detection(self, runner):
        result = runner.invoke(main, ["run"], input=REFERENCE_WORD.encode())
        rows = result.stdout.splitlines()
        assert rows[-1].split()[3] == "-"
        assert rows[-2].split()[3] == "-"

    def test_empty_input(self, runner):
        result = runner.invoke(main, ["run"], input=b"")
        assert result.exit_code == 0
        assert result.stdout == ""

    def test_uniform_jsonl(self, runner):
        result = runner.invoke(main, ["run", "--format", "jsonl"], input=b"aaaa")
        counts = [r["distinct_count"] for r in jsonl_records(result.stdout)]
        assert counts == [1, 2, 3, 4]

    def test_file_argument(self, runner, tmp_path):
        path = tmp_path / "input.txt"
        path.write_bytes(REFERENCE_WORD.encode())
        result = runner.invoke(main, ["run", "--format", "jsonl", str(path)])
        assert result.exit_code == 0
        assert jsonl_records(result.stdout) == EXPECTED_RECORDS

    def test_missing_file_exits_1(self, runner, tmp_path):
        result = runner.invoke(main, ["run", str(tmp_path / "nope")])
        assert result.exit_code == 1
        assert "error" in result.stderr

    def test_tokens_mode(self, runner):
        result = runner.invoke(main, ["run", "--tokens", "--format", "jsonl"],
                               input=b"foo bar\n  foo")
        records = jsonl_records(result.stdout)
        assert len(records) == 3
        # the token sequence foo, bar, foo is itself a palindrome
        assert records[2]["max_pal"] == 3
        assert records[2]["new"] == "1-3"

    def test_output_for_prefix_is_prefix_of_output(self, runner):
        full = runner.invoke(main, ["run", "--format", "jsonl"],
                             input=REFERENCE_WORD.encode())
        part = runner.invoke(main, ["run", "--format", "jsonl"],
                             input=REFERENCE_WORD[:5].encode())
        full_lines = full.stdout.splitlines()
        part_lines = part.stdout.splitlines()
        assert full_lines[:5] == part_lines

    def test_output_closed_early_ends_cleanly(self, tmp_path):
        # `palstream run FILE | head -2`: the reader leaves after two records
        path = tmp_path / "input.txt"
        path.write_bytes(b"ab" * 50_000)
        proc = subprocess.Popen(
            [sys.executable, "-m", "palstream.cli", "run", "--format", "jsonl", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env())
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

    def test_write_failure_is_not_reported_as_input_error(self, tmp_path):
        if not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        path = tmp_path / "input.txt"
        path.write_bytes(REFERENCE_WORD.encode())
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "palstream.cli", "run", str(path)],
                stdout=full, stderr=subprocess.PIPE, env=cli_env(), timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.decode().startswith("error: failed writing output:")

    def test_closed_stdin_is_one_error_line(self):
        proc = run_with_closed_fd(0)
        lines = proc.stderr.decode().splitlines()
        assert proc.returncode == 1
        assert len(lines) == 1 and lines[0].startswith("error: cannot read"), lines

    def test_closed_stdout_is_one_error_line(self):
        proc = run_with_closed_fd(1)
        lines = proc.stderr.decode().splitlines()
        assert proc.returncode == 1
        assert len(lines) == 1 and lines[0].startswith("error: failed writing output"), lines

    def test_undecodable_tokens_are_an_input_error(self, runner):
        result = runner.invoke(main, ["run", "--tokens"], input=b"ok \xff\xfe")
        assert result.exit_code == 1
        assert "failed reading input" in result.stderr

    @pytest.mark.parametrize("stream", [bytes, OneByteReads])
    def test_truncated_utf8_at_eof_is_an_input_error(self, runner, stream):
        result = runner.invoke(main, ["run", "--tokens"], input=stream(b"ok \xc3"))
        assert result.exit_code == 1
        assert "failed reading input" in result.stderr

    def test_records_arrive_before_stdin_closes(self):
        lines = records_before_eof(["--format", "jsonl"], b"aba", 3)
        assert [json.loads(line)["n"] for line in lines] == [1, 2, 3]

    def test_token_records_arrive_before_stdin_closes(self):
        lines = records_before_eof(["--format", "jsonl", "--tokens"], b"foo bar \n", 2)
        assert [json.loads(line)["n"] for line in lines] == [1, 2]

    @pytest.mark.parametrize("data", ["h\u00e9llo w\u00f6rld  h\u00e9llo\n\u00e9 x \u00e9",
                                      "\u20ac\U0001f600 \u20ac"])
    def test_tokens_split_across_reads(self, runner, data):
        data = data.encode()
        one_shot = runner.invoke(main, ["run", "--tokens", "--format", "jsonl"], input=data)
        by_byte = runner.invoke(main, ["run", "--tokens", "--format", "jsonl"],
                                input=OneByteReads(data))
        assert one_shot.exit_code == by_byte.exit_code == 0
        assert len(jsonl_records(one_shot.stdout)) == len(data.decode().split())
        assert by_byte.stdout == one_shot.stdout

    def test_bytes_split_across_reads(self, runner):
        result = runner.invoke(main, ["run", "--format", "jsonl"],
                               input=OneByteReads(REFERENCE_WORD.encode()))
        assert result.exit_code == 0
        assert jsonl_records(result.stdout) == EXPECTED_RECORDS

    def test_jsonl_bytes_equal_json_dumps(self, runner):
        data = random.Random(5).randbytes(500)
        for symbols in (REFERENCE_WORD.encode(), data):
            result = runner.invoke(main, ["run", "--format", "jsonl"], input=symbols)
            assert result.exit_code == 0
            assert result.stdout_bytes == dumps_records(symbols).encode()
        # both forms of "new" were pinned
        assert b'"new": null' in result.stdout_bytes
        assert b'"new": "' in result.stdout_bytes


class TestBench:
    def test_small_run_emits_json_per_size(self, runner):
        result = runner.invoke(
            main, ["bench", "--gen", "random", "--sigma", "4",
                   "--sizes", "200,400", "--reps", "2", "--seed", "7"])
        assert result.exit_code == 0
        records = jsonl_records(result.stdout)
        assert [r["n"] for r in records] == [200, 400]
        for record in records:
            assert record["manacher_loop_iters"] <= record["manacher_loop_bound"]
            assert record["nodes"] <= 2 * record["n"]
            assert record["child_probes"] > 0
            assert record["mode"] == "ordered"

    def test_json_keys_in_order(self, runner):
        result = runner.invoke(main, ["bench", "--gen", "paper_example"])
        assert result.exit_code == 0
        assert list(json.loads(result.stdout.splitlines()[0])) == [
            "gen", "sigma", "n", "mode", "reps", "seed", "wall_best", "wall_mean",
            "symbols_per_sec", "manacher_loop_iters", "manacher_loop_bound",
            "nodes", "child_probes", "suffix_link_hops", "distinct_count"]

    def test_mode_given_as_string(self):
        [measurement] = run_config(
            BenchConfig("random", sigma=4, sizes=(100,), mode="unordered"))
        assert measurement.mode == "unordered"

    def test_seed_reproducibility(self, runner):
        args = ["bench", "--gen", "random", "--sigma", "8", "--sizes", "300",
                "--seed", "42"]
        first = jsonl_records(runner.invoke(main, args).stdout)
        second = jsonl_records(runner.invoke(main, args).stdout)
        for record in (*first, *second):
            del record["wall_best"], record["wall_mean"], record["symbols_per_sec"]
        assert first == second

    def test_paper_example_generator(self, runner):
        result = runner.invoke(main, ["bench", "--gen", "paper_example"])
        assert result.exit_code == 0
        record = jsonl_records(result.stdout)[0]
        assert record["n"] == 10
        assert record["distinct_count"] == 8

    def test_unordered_mode(self, runner):
        result = runner.invoke(
            main, ["bench", "--gen", "random", "--sigma", "16",
                   "--sizes", "500", "--mode", "unordered"])
        assert result.exit_code == 0
        assert jsonl_records(result.stdout)[0]["mode"] == "unordered"

    def test_decreasing_sizes_rejected(self, runner):
        result = runner.invoke(
            main, ["bench", "--gen", "random", "--sizes", "400,200"])
        assert result.exit_code == 1
        assert "increasing" in result.stderr

    def test_bad_reps_rejected(self, runner):
        result = runner.invoke(
            main, ["bench", "--gen", "random", "--sizes", "100", "--reps", "0"])
        assert result.exit_code == 1

    def test_abx_needs_three_symbols(self, runner):
        result = runner.invoke(
            main, ["bench", "--gen", "abx", "--sigma", "2", "--sizes", "100"])
        assert result.exit_code == 1

    def test_unknown_generator_rejected(self, runner):
        result = runner.invoke(main, ["bench", "--gen", "bogus", "--sizes", "10"])
        assert result.exit_code != 0

    def test_unordered_probe_excess_grows_with_sigma(self, runner):
        # directional: the unordered/ordered probe factor widens as the
        # alphabet grows
        factors = []
        for sigma in ("64", "65536"):
            counts = {}
            for mode in ("ordered", "unordered"):
                result = runner.invoke(
                    main, ["bench", "--gen", "random", "--sigma", sigma,
                           "--sizes", "3000", "--mode", mode, "--seed", "3"])
                assert result.exit_code == 0
                counts[mode] = jsonl_records(result.stdout)[0]["child_probes"]
            factors.append(counts["unordered"] / counts["ordered"])
        assert factors[1] > factors[0] > 1.0


class TestSelftest:
    def test_passes_on_fresh_build(self, runner):
        result = runner.invoke(main, ["selftest"])
        assert result.exit_code == 0
        assert "FAIL" not in result.output

    def test_inverted_detection_is_caught(self, runner, monkeypatch):
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
        result = runner.invoke(main, ["selftest"])
        assert result.exit_code == 2
        assert "FAIL" in result.output

    def test_passes_without_asserts(self):
        # `python -O` strips assert statements; no check may depend on one
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "palstream.cli", "selftest"],
            capture_output=True, env=cli_env(), timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert b"FAIL" not in proc.stdout
