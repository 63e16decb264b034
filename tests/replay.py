"""The frozen corpus replayed without pytest: from the root of a checkout, ``PYTHONPATH=src
python3 [-O] tests/replay.py`` runs every case of ``golden/cases.json`` and
``golden/branches.json`` (exit code, stderr text, stdout bytes), the ``--help`` texts of
``golden/help.json`` and the three census goldens of ``test_census``.  It prints a line per
failure, naming the case or the file, then a summary line with the counts and ``__debug__``,
and exits 1 if anything failed.  ``test_golden`` and ``test_census`` compare through these
functions, which leave ``os.environ``, ``sys.stdout`` and ``sys.stderr`` as they found them.

``tests/replay.py --processes`` runs every case instead as a child process, ``python -S -m
amplecheck.cli <argv>``, one at a time, and compares it the same way: a real CLI process,
started without ``site``, writes what the goldens hold.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from collections.abc import Callable
from pathlib import Path

import amplecheck
import test_census
from amplecheck.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFESTS = ("cases.json", "branches.json")


def run_cli(argv: list[str], columns: int | None = None) -> tuple[int, bytes, str]:
    """``main(argv)``'s exit code, stdout bytes and stderr text, as a process writes them."""
    out, err = io.BytesIO(), io.BytesIO()
    saved, environ = (sys.stdout, sys.stderr), dict(os.environ)
    sys.stdout = io.TextIOWrapper(out, encoding="utf-8")
    sys.stderr = io.TextIOWrapper(err, encoding="utf-8")
    if columns is not None:
        os.environ["COLUMNS"] = str(columns)
    try:
        code = main(list(argv))
        sys.stdout.flush()
        sys.stderr.flush()
        return code, out.getvalue(), err.getvalue().decode("utf-8")
    finally:
        sys.stdout, sys.stderr = saved
        os.environ.clear()
        os.environ.update(environ)


def run_process(argv: list[str]) -> tuple[int, bytes, str]:
    """The exit code, stdout bytes and stderr text of a ``python -S -m amplecheck.cli``
    child, which imports this ``amplecheck``."""
    env = dict(os.environ, PYTHONPATH=str(Path(amplecheck.__file__).resolve().parents[1]))
    child = subprocess.run([sys.executable, "-S", "-m", "amplecheck.cli", *argv],
                           stdin=subprocess.DEVNULL, capture_output=True, env=env, timeout=60)
    return child.returncode, child.stdout, child.stderr.decode("utf-8")


def manifest() -> list[dict]:
    return [entry for name in MANIFESTS for entry in json.loads((GOLDEN / name).read_text())]


def case_failures(entry: dict, run: Callable[[list[str]], tuple] = run_cli) -> list[str]:
    """How one golden case's run (in-process, or by ``run_process``) differs from its
    manifest entry and stdout file."""
    name, (code, out, err) = entry["name"], run(entry["argv"])
    golden = (GOLDEN / f"{name}.stdout").read_bytes()
    failures = []
    if code != entry["exit"]:
        failures.append(f"{name}: exit {code}, golden {entry['exit']}")
    if err != entry["stderr"]:
        failures.append(f"{name}: stderr {err!r}, golden {entry['stderr']!r}")
    if out != golden:
        at = len(os.path.commonprefix([out, golden]))
        failures.append(f"{name}.stdout: differs at byte {at} of {len(golden)}")
    return failures


def help_golden() -> dict:
    return json.loads((GOLDEN / "help.json").read_text())


def help_failures(argv: str) -> list[str]:
    """How ``argv``'s help text differs from ``help.json``: byte for byte on the minor
    version it was captured with; on another one, whose argparse words and wraps a little
    differently, word for word, 3.10's ``optional arguments:`` read as ``options:``."""
    golden = help_golden()
    code, out, err = run_cli(argv.split(), columns=golden["columns"])
    text, expected = out.decode("utf-8"), golden["help"][argv]
    if golden["python"] != "%d.%d" % sys.version_info[:2]:
        words = lambda t: t.replace("optional arguments:", "options:").split()  # noqa: E731
        text, expected = words(text), words(expected)
    failures = []
    if (code, err) != (0, ""):
        failures.append(f"help.json: {argv!r} exits {code}, stderr {err!r}")
    if text != expected:
        failures.append(f"help.json: {argv!r} text differs")
    return failures


def census_failures(file: str, summary: dict) -> list[str]:
    """One line per key in which a census ``summary`` differs from its golden ``file``."""
    golden = json.loads((GOLDEN / file).read_text())
    keys = sorted(golden.keys() | summary.keys())
    return [f"{file}: {key} {summary.get(key)!r}, golden {golden.get(key)!r}"
            for key in keys if summary.get(key) != golden.get(key)]


def replay() -> int:
    entries, helps = manifest(), list(help_golden()["help"])
    summary, violations = test_census.census()
    failures = [line for entry in entries for line in case_failures(entry)]
    failures += [line for argv in helps for line in help_failures(argv)]
    failures += [f"census.json: {violation}" for violation in violations]
    failures += census_failures("census.json", summary)
    failures += census_failures("gg_census.json", test_census.gg_census())
    failures += census_failures("report_census.json", test_census.report_census())
    for line in failures:
        print(line)
    print(f"replay: {len(entries)} cases, {len(helps)} help texts, 3 censuses, "
          f"{len(failures)} failures, __debug__ {__debug__}")
    return 1 if failures else 0


def replay_processes(entries: list[dict]) -> int:
    """``case_failures`` of each entry run as a child process, printed as ``replay`` does."""
    failures = [line for entry in entries for line in case_failures(entry, run_process)]
    for line in failures:
        print(line)
    print(f"replay --processes: {len(entries)} cases, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--processes"]):
        sys.exit("usage: replay.py [--processes]")
    sys.exit(replay_processes(manifest()) if sys.argv[1:] else replay())
