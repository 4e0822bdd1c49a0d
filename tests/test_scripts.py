"""The scripts under scripts/ run against the current library."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_scripts_run(monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        run_script(
            monkeypatch,
            "certify_weight.py",
            "--builtin", "dihedral:3", "--random", "--seed", "7",
        )
    assert exc.value.code == 0
    assert "status: certified" in capsys.readouterr().out.splitlines()

    run_script(monkeypatch, "run_dihedral_battery.py", "--start", "3", "--stop", "4")
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert all("certified=True" in line for line in lines)
