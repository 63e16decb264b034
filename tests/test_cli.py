import contextlib
import io
import json
import os
import subprocess
import sys
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from amplecheck import ampleness
from amplecheck.cli import _canonical, build_parser
from amplecheck.report import (
    VERDICT_TAGS, command_report, parse_structured, render_structured, run_report, to_json)
from amplecheck import (
    EnumerationLimitError, PreconditionError, Surface, make_character, parse_character)
import oracles
from replay import run_cli
from test_acceptance import CORPUS
from test_golden import CASES, SKIPPED_SECTIONS


class TestParsing:
    def test_plane_character(self):
        code, out, _ = run_cli(["invariants", "--surface", "P2", "--ch", "2:3:3/2"])
        assert code == 0
        assert b"delta: 3/8" in out

    def test_hirzebruch_character(self):
        code, out, _ = run_cli(["invariants", "--surface", "F1", "--ch", "2:3,5:5/2"])
        assert code == 0
        assert b"11/8" in out  # delta

    def test_logarithmic_form(self):
        code, out, _ = run_cli(["obstructions", "--surface", "P2", "--log-ch", "2:3/2:7/8"])
        assert code == 0
        assert b"2:3:1/2" in out

    def test_integrality_error_is_parse_error(self):
        code, _, err = run_cli(["invariants", "--surface", "F2", "--ch", "2:3,5:1/3"])
        assert code == 2
        assert "integer" in err

    def test_malformed_surface(self):
        code, _, err = run_cli(["invariants", "--surface", "Q7", "--ch", "2:3:0"])
        assert code == 2

    def test_malformed_character(self):
        code, _, _ = run_cli(["invariants", "--surface", "P2", "--ch", "nope"])
        assert code == 2

    def test_unknown_subcommand(self):
        assert run_cli(["frobnicate"])[0] == 2

    def test_float_notation_rejected(self):
        code, _, _ = run_cli(["invariants", "--surface", "P2", "--ch", "2:3:1.5"])
        assert code == 2

    def test_log_ch_must_clear_denominators(self):
        code, _, err = run_cli(["invariants", "--surface", "P2", "--log-ch", "2:1/3:0"])
        assert code == 2
        assert "denominators" in err


class TestNumberForms:
    """Numbers are ``p`` or ``p/q`` in ASCII digits; any other form exits 2 at once."""

    @pytest.mark.parametrize("token", ["1e2000000", "1e20000000"])
    def test_exponent_is_rejected_before_it_is_expanded(self, token):
        # Fraction() used to expand these: 5.6 s to exit 2 for the first, and
        # the second was still running after 60 s
        start = time.perf_counter()
        code, out, err = run_cli(["report", "--surface", "P2", "--ch", f"2:{token}:0"])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, b"")
        assert err == f"input error: malformed rational '{token}'\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            # each of these used to exit 0
            (["--ch", "2:1e5:0"], "input error: malformed rational '1e5'"),
            (["--ch", "2:1_0:0"], "input error: malformed rational '1_0'"),
            (["--ch", "\u0662:4:0"], "input error: malformed rank '\u0662'"),
            (["--log-ch", "2:1e1:0"], "input error: malformed rational '1e1'"),
            (["--log-ch", "1_0:1:0"], "input error: malformed rank '1_0'"),
            # the log form's rank used to be reported by int() itself
            (["--log-ch", "x:1:0"], "input error: malformed rank 'x'"),
            (["--ch", "2:3:1.5e3"], "input error: decimal notation not accepted (use p/q): '1.5e3'"),
        ],
    )
    def test_loose_forms_exit_two(self, argv, message):
        code, out, err = run_cli(["invariants", "--surface", "P2", *argv])
        assert (code, out) == (2, b"")
        assert err == f"{message}\n"

    def test_loose_surfaces_and_integers_exit_two(self):
        code, _, err = run_cli(["invariants", "--surface", "F\u0661", "--ch", "2:1,1:0"])
        assert code == 2
        assert err == "input error: malformed surface 'F\u0661': expected 'P2' or 'F<e>'\n"
        for argv in (["gieseker", "--d", "1_2"], ["gieseker", "--d", "\u0661\u0662"],
                     ["asymptotic", "--surface", "P2", "--ch", "2:20:-142", "--s", "1_0"]):
            code, out, err = run_cli(argv)
            assert (code, out) == (2, b"")
            assert f"invalid integer value: {argv[-1]!r}" in err


COMMANDS = ("invariants", "obstructions", "gg", "ample-gg", "asymptotic", "bad-curves", "report")
# these enumerate bad curves, whose number grows with the coordinates
ENUMERATING = ("ample-gg", "bad-curves", "report")

LOOSE = st.one_of(
    # past the digit budget by a little, or just within it
    st.tuples(st.sampled_from(["", "-", "+"]), st.integers(1990, 2010)).map(
        lambda t: t[0] + "7" * t[1]
    ),
    st.tuples(st.integers(-9, 9), st.integers(0, 3000)).map(lambda t: f"{t[0]}e{t[1]}"),
    st.sampled_from(["1_0", "1.5", "\u0663", "\u00b2", "\uff11\uff12", "1/0", "-", "", " 7 "]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
)


def _numbers(small: bool):
    whole = st.integers(-12, 30) if small else st.integers(-(10**2000), 10**2000)
    return st.one_of(
        whole.map(str),
        st.tuples(whole, st.integers(1, 4)).map(lambda t: f"{t[0]}/{t[1]}"),
        LOOSE,
    )


@st.composite
def cli_argv(draw):
    """An argv of any subcommand, mostly well formed; enumerating commands get small numbers.

    Values are passed as ``--flag=value``, so a leading ``-`` reaches the parser of
    the value instead of being taken for an option.
    """
    command = draw(st.sampled_from(COMMANDS + ("gieseker",)))
    if command == "gieseker":
        return [command, "--d=" + draw(st.one_of(st.integers(-2, 60).map(str), LOOSE))]
    numbers = _numbers(command in ENUMERATING)
    surface = draw(st.one_of(
        st.sampled_from(["P2", "F0", "F1", "F2", "F3"]),
        st.sampled_from(["f1", "F7", "Q3", "F", "F-1", "F\u0661", "F\u00b2", ""]),
    ))
    count = draw(st.sampled_from([1 if surface == "P2" else 2, 1, 2, 3]))
    fields = [
        draw(st.one_of(st.integers(1, 4).map(str), numbers)),
        ",".join(draw(st.lists(numbers, min_size=count, max_size=count))),
        draw(numbers),
    ]
    text = ":".join(fields[: draw(st.sampled_from([3, 3, 2, 4]))])
    flag = draw(st.sampled_from(["--ch", "--log-ch"]))
    argv = [command, "--surface", surface, f"{flag}={text}"]
    if command in ("asymptotic", "report"):
        if draw(st.booleans()):
            argv.append("--s=" + draw(st.one_of(st.integers(-1, 6).map(str), LOOSE)))
        if draw(st.booleans()):
            argv.append("--direct")
    return argv + ["--format", draw(st.sampled_from(["text", "structured"]))]


@settings(max_examples=250, deadline=timedelta(seconds=2))
@given(cli_argv())
def test_cli_fuzz_exits_zero_two_or_three(argv):
    """Every argv ends in 0, 2 or 3, within the deadline, with no exception escaping."""
    code, out, err = run_cli(argv)
    assert code in (0, 2, 3), (argv, err)
    assert (code == 0) == (out != b""), (argv, err)
    assert "Traceback" not in err


# The canonical fast path of ``main`` against ``build_parser().parse_args``.
OPTIONS = ("--surface", "--ch", "--log-ch", "--format", "--s", "--direct", "--d")
OWN = {
    **{name: ("--surface", "--ch", "--log-ch", "--format") for name in COMMANDS},
    "asymptotic": ("--surface", "--ch", "--log-ch", "--format", "--s", "--direct"),
    "report": ("--surface", "--ch", "--log-ch", "--format", "--s", "--direct"),
    "gieseker": ("--d", "--format"),
}
GOOD = {
    "--surface": ["P2", "F1", "F2"],
    "--ch": ["2:3,8:2", "2:3:1/2", "2:20:-142"],
    "--log-ch": ["2:3/2:1/8"],
    "--format": ["text", "structured"],
    "--s": ["2", "3", "12"],
    "--d": ["4", "12"],
}
VALUES = st.one_of(
    st.sampled_from([
        "Q3", "json", "TEXT", "text ", "", " ", "0", "+4", " 5", "5 ", " -2", "-", "-3",
        "-1:2:0", "--ch", "-h", "\u0661\u0662", "\u00b2", "4_0", "0x1f", "3.5", "junk",
        "1" * 2000, "1" * 2001, " " * 2001 + "7",
    ]),
    st.text(max_size=3),
)
TOKENS = st.one_of(
    st.sampled_from(OPTIONS),
    # abbreviations, help and other options
    st.sampled_from(["--sur", "--c", "--log", "--form", "--di", "-h", "--help", "--", "-s", "--x"]),
    st.tuples(st.sampled_from(OPTIONS), VALUES).map("=".join),
    VALUES,
)


@st.composite
def grammar_argv(draw):
    """Mostly a subcommand with its required options and some others, in any order; else
    any options.  At most one option gets any value, the others good ones; then up to two
    tokens are put in or written over."""
    command = draw(st.sampled_from([*OWN, "frobnicate", "repor", "-h", "--help", "--surface"]))
    own = OWN.get(command, OPTIONS)
    if draw(st.sampled_from([True, True, False])):
        character = ["--surface", draw(st.sampled_from(own[1:3]))]
        required = ["--d"] if command == "gieseker" else character
        others = [o for o in own if o not in ("--d", "--surface", "--ch", "--log-ch")]
        others = draw(st.lists(st.sampled_from(others), unique=True))
        options = draw(st.permutations(required + others))
    else:
        pool = own if draw(st.booleans()) else OPTIONS
        options = draw(st.lists(st.sampled_from(pool), max_size=6, unique=draw(st.booleans())))
    bad = draw(st.sampled_from([None, None, *options]))  # the one option given any value
    argv = [command]
    for option in options:
        argv.append(option)
        if option != "--direct":
            argv.append(draw(VALUES if option == bad else st.sampled_from(GOOD[option])))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(argv)))
        argv[at:at + draw(st.integers(0, 1))] = [draw(TOKENS)]
    return argv


def parsed(argv: list[str]) -> dict | None:
    """``vars`` of argparse's namespace for ``argv``, or None where argparse exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(build_parser().parse_args(argv))
    except SystemExit:
        return None


@settings(max_examples=400, deadline=None)
@given(grammar_argv())
def test_fast_path_declines_or_agrees_with_argparse(argv):
    fast = _canonical(argv)
    assert fast is None or vars(fast) == parsed(argv), argv


def test_fast_path_on_the_golden_argvs():
    """Each golden argv in canonical form that argparse accepts is read directly, to the
    same namespace; every other one is declined."""
    for argv in CASES.values():
        fast, expected = _canonical(argv), parsed(argv)
        canonical = all(a in OWN.get(argv[0], ()) or not a.startswith("-") for a in argv)
        assert (None if fast is None else vars(fast)) == (expected if canonical else None), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--surface", "P2", "--surface", "F1", "--ch", "2:3:1/2"],  # a repeat
        ["report", "--surface", "P2", "--ch", "2:3:1/2", "--direct", "--direct"],
        ["report", "--surface", "P2", "--ch", "-1:3:1/2"],  # a value that starts with -
        ["asymptotic", "--surface", "P2", "--ch", "2:20:-142", "--s", "-3"],
        ["report", "--surface", "P2", "--ch", "2:3:1/2", "--format", "json"],  # not a choice
        ["report", "--surface", "P2", "--ch=2:3:1/2"],  # = form
        ["report", "--surf", "P2", "--ch", "2:3:1/2"],  # abbreviation
        ["report", "--surface", "P2", "--ch", "2:3:1/2", "--d", "4"],  # abbreviates --direct
        ["report", "--surface", "P2", "--ch", "2:3:1/2", "-h"],
        ["report", "--surface", "P2", "--ch", "2:3:1/2", "extra"],
        ["report", "--surface", "P2", "--ch"],
        ["report", "--surface", "P2"],
        ["report", "--ch", "2:3:1/2"],
        ["report", "--surface", "P2", "--ch", "2:3:1/2", "--log-ch", "2:3/2:1/8"],
        ["gieseker", "--d", "4", "--s", "2"],
        ["gieseker", "--d", "1" * 2001],
        ["gieseker", "--d", "1_2"],
        ["gieseker", "--d", "\u0661\u0662"],
        ["gieseker", "--format", "text"],
        ["--help"],
        ["frobnicate"],
        [],
    ],
)
def test_fast_path_declines(argv):
    assert _canonical(argv) is None


class TestExitContract:
    def test_completed_report_is_zero(self):
        code, _, _ = run_cli(["report", "--surface", "P2", "--ch", "2:4:0"])
        assert code == 0

    def test_precondition_is_three(self):
        # nu.H = 1 violates the asymptotic slope hypothesis
        code, _, err = run_cli(["asymptotic", "--surface", "P2", "--ch", "2:2:0"])
        assert code == 3
        assert "precondition" in err

    def test_gg_precondition_is_three(self):
        # delta = -1/2 < 0
        code, _, _ = run_cli(["gg", "--surface", "P2", "--ch", "2:0:1"])
        assert code == 3

    def test_bad_curves_precondition_is_three(self):
        code, _, _ = run_cli(["bad-curves", "--surface", "P2", "--ch", "2:3:3/2"])
        assert code == 3

    def test_bad_curve_cap_is_three(self):
        # one family of this F0 character has 100004 bad members
        code, out, err = run_cli(["bad-curves", "--surface", "F0", "--ch", "2:600000,3:-300009"])
        assert (code, out) == (3, b"")
        assert err == (
            "precondition error: 100004 bad members in one family exceeds the cap 100000\n"
        )

    def test_the_cap_error_is_a_precondition_error(self):
        # so ``cli.main`` maps exit 3 from one class, as it does exits 1 and 2
        assert issubclass(EnumerationLimitError, PreconditionError)

    def test_failed_obligation_is_one(self, monkeypatch):
        # a failed proof obligation is a defect of amplecheck, not of the input
        obligation = ampleness._obligation
        monkeypatch.setattr(
            ampleness, "_obligation", lambda holds, text, v: obligation(False, text, v)
        )
        code, out, err = run_cli(
            ["asymptotic", "--surface", "P2", "--ch", "2:20:-142", "--direct"]
        )
        assert (code, out) == (1, b"")
        assert err.startswith("certificate error: certificate obligation fails for 2:20:-142: ")
        assert "Traceback" not in err


ONE_AND_2200_ZEROS = "1" + "0" * 2200
ONE_AND_3000_ZEROS = "1" + "0" * 3000


class TestInputDigitBudget:
    """Inputs over ``DIGIT_BUDGET`` digits exit 2 with the field and the limit named."""

    def test_coordinate_of_2201_digits(self):
        # used to end in a traceback: c2 has about 4400 digits, past the
        # interpreter's integer-to-string limit, and was rendered outside the try
        for fmt in ("text", "structured"):
            code, out, err = run_cli(
                ["invariants", "--surface", "P2", "--ch", f"2:{ONE_AND_2200_ZEROS}:0",
                 "--format", fmt]
            )
            assert (code, out) == (2, b"")
            assert err == "input error: c1 coordinate has more than 2000 digits, the input limit\n"

    def test_s_of_3001_digits(self):
        # used to end in a traceback when the kernel character was rendered
        code, out, err = run_cli(
            ["asymptotic", "--surface", "P2", "--ch", "2:20:-142", "--s", ONE_AND_3000_ZEROS]
        )
        assert (code, out) == (2, b"")
        assert err.endswith("argument --s: the value has more than 2000 digits, the input limit\n")

    def test_every_field_is_budgeted(self):
        big = ONE_AND_2200_ZEROS
        cases = [
            (["invariants", "--surface", "P2", "--ch", f"{big}:0:0"], "rank"),
            (["invariants", "--surface", "P2", "--ch", f"2:0:{big}"], "ch2"),
            (["invariants", "--surface", f"F{big}", "--ch", "2:0,0:0"], "surface parameter e"),
            (["invariants", "--surface", "P2", "--log-ch", f"{big}:1:0"], "rank"),
            (["invariants", "--surface", "P2", "--log-ch", f"2:{big}:0"], "nu coordinate"),
            (["invariants", "--surface", "P2", "--log-ch", f"2:1:1/{big}"], "delta"),
            (["gieseker", "--d", big], "argument --d: the value"),
        ]
        for argv, field in cases:
            code, out, err = run_cli(argv)
            assert (code, out) == (2, b""), argv[:3]
            assert f"{field} has more than 2000 digits, the input limit" in err

    def test_budget_is_inclusive(self):
        code, out, _ = run_cli(
            ["invariants", "--surface", "P2", "--ch", "2:" + "1" * 1999 + "0:0"]
        )
        assert code == 0 and b"verdict: computed" in out

    def test_oversized_derived_value_is_an_input_error(self):
        # every field is within the budget, but the kernel's c2 outgrows the
        # interpreter's integer-to-string limit while the report is rendered
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no integer-to-string limit")
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            nines = "9" * 1999
            code, out, err = run_cli(
                ["report", "--surface", "P2", "--ch", f"2:{nines}8:-{nines}", "--s", nines]
            )
        finally:
            sys.set_int_max_str_digits(saved)
        assert (code, out) == (2, b"")
        assert err == (
            "input error: a derived value of the report exceeds the interpreter's "
            "limit of 4300 digits for integer-to-string conversion\n"
        )


class TestStructuredOutput:
    def test_round_trip(self):
        code, out, _ = run_cli(
            ["report", "--surface", "P2", "--ch", "2:4:0", "--format", "structured"]
        )
        assert code == 0
        report = command_report("report", parse_character("2:4:0", Surface.projective_plane()))
        assert render_structured(report) == out
        assert to_json(report) == oracles.layout(report) == parse_structured(out)

    def test_no_floats_anywhere(self):
        def walk(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                for item in node:
                    walk(item)

        for command, surface, ch in CORPUS:
            code, out, _ = run_cli(
                [command, "--surface", surface, "--ch", ch, "--format", "structured"]
            )
            assert code == 0
            walk(json.loads(out))

    def test_schema_version_present(self):
        _, out, _ = run_cli(["gieseker", "--d", "12", "--format", "structured"])
        assert json.loads(out)["schema_version"] == "1"

    def test_tags_come_from_the_published_set(self):
        """The corpus and the reports that skip sections: every tag a section or a
        ``skipped`` entry carries is one of the tags the layouts publish."""
        tags, skipped = set(), set()

        def collect(node):
            if isinstance(node, dict):
                if "tag" in node:
                    tags.add(node["tag"])
                    if "skipped" in node:
                        skipped.add(node["tag"])
                for value in node.values():
                    collect(value)
            elif isinstance(node, list):
                for item in node:
                    collect(item)

        for command, surface, ch in CORPUS:
            _, out, _ = run_cli(
                [command, "--surface", surface, "--ch", ch, "--format", "structured"]
            )
            collect(json.loads(out))
        for argv in SKIPPED_SECTIONS:
            collect(json.loads(run_cli(argv)[1]))
        assert tags <= VERDICT_TAGS
        assert "riemann-roch" in tags and "asymptotic-ampleness" in tags
        assert skipped == {"weak-brill-noether", "gg-classification", "gg-quick-criterion",
                           "asymptotic-ampleness"}  # the four sections ``_section`` may skip


class TestTextOutput:
    def test_verdict_line_exactly_once(self):
        for command, surface, ch in CORPUS:
            code, out, _ = run_cli([command, "--surface", surface, "--ch", ch])
            assert code == 0
            lines = out.decode().splitlines()
            assert sum(1 for line in lines if line.startswith("verdict:")) == 1

    def test_no_decimal_notation(self):
        import re

        for command, surface, ch in CORPUS:
            _, out, _ = run_cli([command, "--surface", surface, "--ch", ch])
            assert not re.search(rb"\d+\.\d+", out)

    def test_report_narrative_for_intro_character(self):
        _, out, _ = run_cli(
            ["report", "--surface", "P2", "--ch", "2:3:1/2", "--format", "structured"]
        )
        report = json.loads(out)
        conditions = {c["id"]: c["holds"] for c in report["obstructions"]["conditions"]}
        assert conditions["fulton-lazarsfeld"]
        assert not conditions["slope-exceeds-one-plus-inverse-rank"]
        assert "skipped" not in report["asymptotic"]
        assert report["asymptotic"]["n_min"] == 6
        assert report["verdict"] == "hypotheses-fail"

    def test_report_worked_example_is_ample(self):
        code, out, _ = run_cli(["report", "--surface", "P2", "--ch", "2:4:0"])
        assert code == 0
        assert out.decode().strip().endswith("verdict: ample-general")


class TestGiesekerCommand:
    def test_n_min_two(self):
        code, out, _ = run_cli(["gieseker", "--d", "12"])
        assert code == 0
        assert b"verdict: asymptotically-ample(n_min=2)" in out

    def test_small_d_rejected(self):
        code, _, _ = run_cli(["gieseker", "--d", "3"])
        assert code == 3


def test_run_report_is_pure():
    surface = Surface.projective_plane()
    v = make_character(2, surface.divisor(4), 0)
    assert run_report(surface, v) == run_report(surface, v)
    assert render_structured(run_report(surface, v)) == render_structured(run_report(surface, v))


def _replay(python: str) -> None:
    """``tests/replay.py`` under ``python -O -W error``: the frozen corpus holds with
    ``assert`` stripped, and no warning is raised on the way."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"))
    argv = [python, "-O", "-W", "error", str(tests / "replay.py")]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith(" 0 failures, __debug__ False\n"), proc.stdout


def test_golden_corpus_under_optimize():
    """The frozen corpus holds byte for byte with ``assert`` statements stripped."""
    _replay(sys.executable)


def _patch_level(python: Path) -> int:
    patch = python.parent.parent.name.split(".")[2]
    return int(patch) if patch.isdigit() else -1


@pytest.mark.parametrize("minor", [m for m in (10, 11, 12, 13) if m != sys.version_info[1]])
def test_golden_corpus_under_optimize_on_other_interpreters(minor):
    """The same replay on every other CPython the README promises, found as pyenv
    installs them: the ``eval``'d report templates and ``_json``'s accelerator are
    version-specific, and a release must not change a byte."""
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    found = list(root.glob(f"versions/3.{minor}.*/bin/python"))
    if not found:
        pytest.skip(f"no CPython 3.{minor} under {root}/versions")
    _replay(str(max(found, key=_patch_level)))
