"""Golden CLI reports: every case in golden/cases.txt must reproduce its
stdout (minus the elapsed_ms line), stderr, exit code and written files
byte for byte.  The cases whose reports hold float lists run with
schema.FLOAT_BLOCK_CUTOFF at 1 and at 2**62, so that every float block is
written once with and once without formatting each magnitude once."""

from __future__ import annotations

import re
import shutil
from pathlib import Path

import pytest

import hermpd.schema
from hermpd.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = [line.split() for line in (GOLDEN / "cases.txt").read_text(encoding="utf-8").splitlines() if line.strip()]
FLOAT_CASES = [c for c in CASES if c[2] in ("counterexample", "gram", "oracle", "split")]


def expected(name: str) -> str:
    path = GOLDEN / name
    return path.read_text(encoding="utf-8") if path.exists() else ""


def params(cases):
    return pytest.mark.parametrize("name, code, argv", [(c[0], int(c[1]), c[2:]) for c in cases], ids=[c[0] for c in cases])


@params(CASES)
def test_golden_report(name, code, argv, tmp_path, monkeypatch, capsys):
    check_report(name, code, argv, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("cutoff", [1, 2**62], ids=["cutoff1", "cutoff_huge"])
@params(FLOAT_CASES)
def test_golden_report_float_cutoff(name, code, argv, cutoff, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(hermpd.schema, "FLOAT_BLOCK_CUTOFF", cutoff)
    check_report(name, code, argv, tmp_path, monkeypatch, capsys)


def check_report(name, code, argv, tmp_path, monkeypatch, capsys):
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
