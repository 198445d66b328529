"""The README's Library example runs and prints what its comments say, and
its Command line block runs as written."""
import contextlib
import io
import re
import shlex
from pathlib import Path

from proxcycle.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_library_example_prints_its_comments():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    code = blocks[0]
    expected = [line.partition("#")[2].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert expected == ["converged_t 2.0000000055879354", "coupled_bpp 2.0000000055879354"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_command_line_block_runs_as_written(tmp_path, monkeypatch):
    section = README.read_text().split("## Command line\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```$", section, re.S | re.M).group(1)
    commands = []  # (argv, the exit code the line's comment gives, else 0)
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        exits = re.search(r"#.*\bexits (\d)", line)
        for prefix in (["proxcycle"], ["python", "-m", "proxcycle"]):
            if words[:len(prefix)] == prefix:
                commands.append((words[len(prefix):], int(exits.group(1)) if exits else 0))
    assert {argv[0] for argv, _ in commands} == {"run", "verify", "certify"}
    monkeypatch.chdir(ROOT)
    for i, (argv, code) in enumerate(commands):
        if argv[0] != "certify":
            argv += ["--out", str(tmp_path / f"out{i}")]
        assert main(argv) == code, argv
