"""Golden reports: the default stdout of the CLI is a byte-level wire format.

Each file under tests/golden/ holds the exact stdout of one command.  A change
that alters any byte of these reports, or an exit code, changes the wire
format and must say so; regenerate a file only for such a deliberate change,
e.g. `PYTHONPATH=src python -m refleig verify-all --builtin dihedral:3 >
tests/golden/verify-all-dihedral-3.json`.
"""

from pathlib import Path

import pytest

from refleig.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = (
    ("verify-all-dihedral-3.json", 0, ["verify-all", "--builtin", "dihedral:3"]),
    ("verify-all-symmetric-3.json", 0, ["verify-all", "--builtin", "symmetric:3"]),
    ("verify-all-trivial-2.json", 0, ["verify-all", "--builtin", "trivial:2"]),
    ("verify-all-cyclic-3.json", 1, ["verify-all", "--builtin", "cyclic:3"]),
    (
        "verify-all-dihedral-4-max-degree-40.txt",
        0,
        ["verify-all", "--builtin", "dihedral:4", "--max-degree", "40",
         "--output", "text"],
    ),
    (
        "eigenspace-dihedral-5.json",
        0,
        ["eigenspace", "--builtin", "dihedral:5",
         "--weight", "i*1, i*3", "--weight", "E(5)-E(5)^4, 0"],
    ),
    (
        "eigenspace-dihedral-7.json",
        0,
        ["eigenspace", "--builtin", "dihedral:7",
         "--weight", "i/3, (E(7)-E(7)^6)/5"],
    ),
    (
        "invariants-hyperoctahedral-4.json",
        0,
        ["invariants", "--builtin", "hyperoctahedral:4"],
    ),
    (
        "molien-hyperoctahedral-4.json",
        0,
        ["molien", "--builtin", "hyperoctahedral:4"],
    ),
    ("harmonics-symmetric-4.json", 0, ["harmonics", "--builtin", "symmetric:4"]),
    (
        "invariants-symmetric-5.json",
        0,
        ["invariants", "--builtin", "symmetric:5"],
    ),
    ("molien-dihedral-7.json", 0, ["molien", "--builtin", "dihedral:7"]),
    ("verify-all-symmetric-4.json", 0, ["verify-all", "--builtin", "symmetric:4"]),
    ("verify-all-dihedral-7.json", 0, ["verify-all", "--builtin", "dihedral:7"]),
)


@pytest.mark.parametrize(
    "name, code, argv", CASES, ids=[case[0] for case in CASES]
)
def test_golden_report(capsys, name, code, argv):
    assert main(argv) == code
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / name).read_bytes()
