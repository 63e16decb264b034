"""Golden corpus: the CLI's stdout bytes, stderr text and exit code, frozen.

Every case in ``CASES`` runs ``amplecheck.cli.main`` in-process and is
compared byte for byte with ``tests/golden/<name>.stdout`` and with the exit
code and stderr recorded in its manifest, ``tests/golden/cases.json`` or
``tests/golden/branches.json``, by ``tests/replay.py``, which replays the
whole corpus without pytest.  The corpus covers the 20-case acceptance
corpus and ``gieseker --d 4..50`` in both formats, inputs rejected with
exit 2 or 3 (one at least for every precondition the procedures check), and
full reports whose sections come out ``skipped``.  ``branches.json`` holds
the cases added later, one for each branch of the CLI no other test runs; a
manifest of its own leaves the files of the first corpus as they were.
``help.json`` holds ``--help`` of the program and of each subcommand at
``COLUMNS=80``, the texts argparse writes.

The files record behaviour, so they are regenerated only when an output
change is intended, from the root of a checkout::

    PYTHONPATH=src python3 tests/test_golden.py

which rewrites ``tests/golden/`` from the current sources; review the
diff before committing it.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys

import pytest

import replay
from replay import GOLDEN, run_cli
from test_acceptance import CORPUS

FORMATS = ("text", "structured")

REJECTED = [
    # delta = -1/2 < 0
    ["gg", "--surface", "P2", "--ch", "2:0:1"],
    ["asymptotic", "--surface", "P2", "--ch", "2:0:1"],
    ["bad-curves", "--surface", "P2", "--ch", "2:0:1"],
    # rank 1
    ["gg", "--surface", "P2", "--ch", "1:1:1/2"],
    ["bad-curves", "--surface", "F1", "--ch", "1:3,5:5/2"],
    # nu not nef
    ["gg", "--surface", "F2", "--ch", "2:-1,0:-1"],
    # slope hypotheses, with the s check firing first when both fail
    ["asymptotic", "--surface", "P2", "--ch", "2:2:0"],
    ["asymptotic", "--surface", "P2", "--ch", "2:2:0", "--s", "1"],
    ["asymptotic", "--surface", "F0", "--ch", "2:2,2:0"],
    ["bad-curves", "--surface", "P2", "--ch", "2:3:1/2"],
    # not globally generated
    ["bad-curves", "--surface", "P2", "--ch", "2:5:-27/2"],
    ["gieseker", "--d", "3"],
    # malformed input
    ["invariants", "--surface", "F2", "--ch", "2:3,5:1/3"],
    ["invariants", "--surface", "Q3", "--ch", "2:3:1"],
    ["invariants", "--surface", "P2", "--ch", "2:x:1"],
    ["gg", "--surface", "F1", "--ch", "2:2,4"],
    ["ample-gg", "--surface", "P2", "--ch", "0:1:0"],
    ["obstructions", "--surface", "P2", "--log-ch", "2:1/3:0"],
]

SKIPPED_SECTIONS = [
    ["report", "--surface", "P2", "--ch", "2:0:1", "--format", "structured"],
    ["report", "--surface", "P2", "--ch", "1:1:1/2", "--format", "structured"],
    ["report", "--surface", "F2", "--ch", "2:-1,0:-1", "--format", "structured"],
]


BRANCHES = [
    # chi(v*(H-L)) > 0 stops the direct mode
    ["asymptotic", "--surface", "P2", "--ch", "2:6:8", "--direct"],
    # both ruling degrees below -rank
    ["invariants", "--surface", "F0", "--ch", "1:-6,-6:36"],
    # the tangent bundle's note
    ["obstructions", "--surface", "P2", "--ch", "2:3:3/2"],
    # a rendered failed_condition, and a rendered chi_twist_second
    ["gg", "--surface", "P2", "--ch", "2:5:-27/2"],
    ["gg", "--surface", "F0", "--ch", "2:3,3:1"],
    # a logarithmic form with two fields, and with two nu coordinates on P2
    ["invariants", "--surface", "P2", "--log-ch", "2:1"],
    ["invariants", "--surface", "P2", "--log-ch", "2:1,2:0"],
    # the --option=value form, which the CLI reads through argparse, not its canonical path
    ["report", "--surface=F2", "--ch=2:3,8:2", "--format=structured"],
]


def _cases() -> list[list[str]]:
    cases = []
    for command, surface, ch in CORPUS:
        for fmt in FORMATS:
            cases.append([command, "--surface", surface, "--ch", ch, "--format", fmt])
    for d in range(4, 51):
        for fmt in FORMATS:
            cases.append(["gieseker", "--d", str(d), "--format", fmt])
    return cases + REJECTED + SKIPPED_SECTIONS


def case_name(argv: list[str]) -> str:
    """The file name of a case; ``=`` is kept, so ``--option=value`` and ``--option value``
    name different files."""
    return re.sub(r"[^A-Za-z0-9=-]+", "_", " ".join(arg.lstrip("-") for arg in argv))


MANIFESTS = dict(zip(replay.MANIFESTS, (_cases(), BRANCHES)))
CASES = {case_name(argv): argv for argvs in MANIFESTS.values() for argv in argvs}
assert len(CASES) == sum(map(len, MANIFESTS.values())), "two cases share a file name"


MANIFEST = {entry["name"]: entry for entry in replay.manifest()}


def test_corpus_files_match_case_list():
    assert list(MANIFEST) == list(CASES)
    assert {p.stem for p in GOLDEN.glob("*.stdout")} == set(CASES)
    assert sum(entry["exit"] != 0 for entry in MANIFEST.values()) >= 12


@pytest.mark.parametrize("name", list(CASES))
def test_golden(name):
    expected = MANIFEST[name]
    assert expected["argv"] == CASES[name]
    assert replay.case_failures(expected) == []


HELP = replay.help_golden()
COMMANDS = ("invariants", "obstructions", "gg", "ample-gg", "asymptotic", "bad-curves", "gieseker",
            "report")


def test_help_covers_every_subcommand():
    assert list(HELP["help"]) == ["--help", *(f"{name} --help" for name in COMMANDS)]


@pytest.mark.parametrize("argv", list(HELP["help"]))
def test_help(argv):
    """Byte for byte on the Python minor version the texts were captured with, word for
    word on another one (``replay.help_failures``), which leaves ``COLUMNS`` as it was."""
    before = dict(os.environ), sys.stdout, sys.stderr
    assert replay.help_failures(argv) == []
    assert (dict(os.environ), sys.stdout, sys.stderr) == before


def test_replay_names_the_case_and_the_file_that_differ(tmp_path, monkeypatch, capsys):
    """On a copy of the corpus with one stdout byte flipped and one census sha256
    altered, the replay's functions give one failure line each, naming them, and
    ``--processes`` names the case and exits 1."""
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN, golden)
    name = "report_surface_P2_ch_2_3_1_2_format_structured"
    stdout = bytearray((golden / f"{name}.stdout").read_bytes())
    stdout[100] ^= 1
    (golden / f"{name}.stdout").write_bytes(stdout)
    census = json.loads((golden / "gg_census.json").read_text())
    (golden / "gg_census.json").write_text(json.dumps(dict(census, sha256="0" * 64)))
    monkeypatch.setattr(replay, "GOLDEN", golden)
    failures = [line for entry in replay.manifest() for line in replay.case_failures(entry)]
    assert failures == [f"{name}.stdout: differs at byte 100 of {len(stdout)}"]
    assert replay.replay_processes([MANIFEST[name]]) == 1
    assert capsys.readouterr().out == f"{failures[0]}\nreplay --processes: 1 cases, 1 failures\n"
    assert replay.census_failures("gg_census.json", census) == [
        f"gg_census.json: sha256 {census['sha256']!r}, golden {'0' * 64!r}"
    ]


PROCESS_CASES = [
    "report_surface_F2_ch_2_3_8_2_format_structured",
    "report_surface=F2_ch=2_3_8_2_format=structured",
    "report_surface_F2_ch_2_3_8_2_format_text",
    "asymptotic_surface_P2_ch_2_6_8_direct",
]


def test_named_cases_replay_as_processes(capsys):
    """``replay.py --processes`` on a few cases: one report by its canonical argv, its ``=``
    form and as text, and the direct mode's refusal (exit 3, stderr)."""
    assert replay.replay_processes([MANIFEST[name] for name in PROCESS_CASES]) == 0
    assert capsys.readouterr().out == "replay --processes: 4 cases, 0 failures\n"


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.stdout"):
        stale.unlink()
    for file, argvs in MANIFESTS.items():
        manifest = []
        for argv in argvs:
            name = case_name(argv)
            code, out, err = run_cli(argv)
            (GOLDEN / f"{name}.stdout").write_bytes(out)
            manifest.append({"name": name, "argv": argv, "exit": code, "stderr": err})
        (GOLDEN / file).write_text(json.dumps(manifest, indent=1) + "\n")
    texts = {argv: run_cli(argv.split(), columns=80)[1].decode("utf-8") for argv in HELP["help"]}
    python = "%d.%d" % sys.version_info[:2]
    help_golden = {"python": python, "columns": 80, "help": texts}
    (GOLDEN / "help.json").write_text(json.dumps(help_golden, indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
