"""The README's examples stay true: its library snippet runs, and the CLI
output it shows is what the CLI prints."""

import re
from pathlib import Path

import pytest
from support import invoke

README = (Path(__file__).parents[1] / "README.md").read_text()


def code_blocks(markdown):
    """(language, body) of every fenced code block, in order."""
    return re.findall(r"^```(\w*)\n(.*?)^```$", markdown, re.M | re.S)


def shown_output(command):
    """The lines the README shows after ``$ command``, up to the end of its
    code block or an elided ``...`` line."""
    for _, block in code_blocks(README):
        lines = block.splitlines()
        if lines[0] == f"$ {command}":
            shown = []
            for line in lines[1:]:
                if line.strip() == "...":
                    break
                shown.append(line)
            return shown
    raise AssertionError(f"the README shows no `$ {command}`")


def test_library_example_runs(capsys):
    library = README.split("\n## Library\n", 1)[1]
    code = next(block for lang, block in code_blocks(library) if lang == "python")
    exec(compile(code, "README.md", "exec"), {})
    assert "new palindrome at 1-1" in capsys.readouterr().out


@pytest.mark.parametrize("args", [[], ["--format", "jsonl"]], ids=["table", "jsonl"])
def test_run_output_is_a_prefix_of_the_real_one(args):
    shown = shown_output(" ".join(["printf abadaadcaa | palstream run", *args]))
    result = invoke(["run", *args], input=b"abadaadcaa")
    assert result.exit_code == 0
    assert shown
    assert result.stdout.splitlines()[:len(shown)] == shown


def test_selftest_output_matches():
    result = invoke(["selftest"])
    assert result.exit_code == 0
    assert result.stdout.splitlines() == shown_output("palstream selftest")
