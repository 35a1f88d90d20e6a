"""Golden CLI reports: every case in golden/cases.txt must reproduce its
stdout (minus the elapsed_ms line), stderr, exit code and written files
byte for byte."""

from __future__ import annotations

import re
import shutil
from pathlib import Path

import pytest

from hermpd.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = [line.split() for line in (GOLDEN / "cases.txt").read_text(encoding="utf-8").splitlines() if line.strip()]


def expected(name: str) -> str:
    path = GOLDEN / name
    return path.read_text(encoding="utf-8") if path.exists() else ""


@pytest.mark.parametrize("name, code, argv", [(c[0], int(c[1]), c[2:]) for c in CASES], ids=[c[0] for c in CASES])
def test_golden_report(name, code, argv, tmp_path, monkeypatch, capsys):
    work = tmp_path / "golden"
    shutil.copytree(GOLDEN, work)
    written = [path for path in GOLDEN.glob(f"{name}.*") if path.suffix not in (".out", ".err")]
    for path in written:
        (work / path.name).unlink()
    monkeypatch.chdir(work)
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert re.sub(r'(?m)^  "elapsed_ms": \d+,\n', "", out) == expected(f"{name}.out")
    assert err == expected(f"{name}.err")
    for path in written:
        assert (work / path.name).read_bytes() == path.read_bytes()
