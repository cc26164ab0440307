"""The README's library example and CLI tour run against the current code."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from nmprune.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.DOTALL)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert "ExpansionReport(" in out.getvalue()


def test_cli_tour_matches_readme(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## CLI quick tour", 1)[1]
    commands = re.findall(r"```sh\n(.*?)```", section, re.DOTALL)[0].splitlines()
    (report,) = re.findall(r"```json\n(.*?)```", section.split("\n## ", 1)[0], re.DOTALL)
    monkeypatch.chdir(tmp_path)
    for line in commands:
        capsys.readouterr()
        argv = shlex.split(line)
        assert argv[0] == "nmprune"
        assert main(argv[1:]) == 0
    assert argv[1] == "verify"
    assert json.loads(capsys.readouterr().out) == json.loads(report)
