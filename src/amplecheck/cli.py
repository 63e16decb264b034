"""Command-line front end: it parses the argv and the character, asks
``report.command_report`` for the subcommand's report once and renders it::

    amplecheck invariants  --surface P2 --ch 2:3:3/2
    amplecheck obstructions --surface P2 --ch 2:3:1/2
    amplecheck gg          --surface F1 --ch 2:2,4:3
    amplecheck ample-gg    --surface P2 --ch 2:4:0
    amplecheck asymptotic  --surface P2 --ch 2:20:-142 --direct
    amplecheck bad-curves  --surface F1 --ch 2:3,5:5/2
    amplecheck gieseker    --d 12
    amplecheck report      --surface P2 --ch 2:3:1/2

Characters are written ``r:c1:ch2`` with ``c1 = a`` on the plane or
``a,b`` (meaning ``aE + bF``) on ``F_e``, rationals as ``p/q``.  The
``--log-ch r:nu:delta`` alternative accepts the logarithmic form and
clears denominators.  ``--format structured`` emits the stable JSON tree
with every rational as ``{"num": ..., "den": ...}``.

Exit status: 0 for any completed report, 2 for malformed input (an input
field of more than ``DIGIT_BUDGET`` digits among them), 3 when the
hypotheses of the requested procedure fail for the given character, and 1
when a certificate's proof obligation fails, which is a defect of
amplecheck, not of the input.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from . import report as rpt
from .characters import ChernCharacter, parse_character, parse_log_character
from .errors import CertificateError, PreconditionError
from .rationals import INTEGER, check_digits
from .surfaces import parse_surface

EXIT_OK = 0
EXIT_DEFECT = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3


def integer(text: str) -> int:
    """Type of ``--s`` and ``--d``: an integer of at most ``DIGIT_BUDGET`` ASCII digits."""
    try:
        check_digits(text, "the value")
    except ValueError as exc:
        import argparse
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not INTEGER.fullmatch(text.strip()):
        raise ValueError(text)  # argparse reports an invalid integer value
    return int(text)


# The grammar read by ``build_parser`` and ``_canonical``: each option's ``add_argument``
# keywords and each subcommand's options; ``_EXCLUSIVE`` is a required exclusive group.
_OPTIONS = {
    "--surface": {"required": True, "help": "P2 or F<e>"},
    "--ch": {"help": "character r:c1:ch2"},
    "--log-ch": {"help": "character r:nu:delta (logarithmic form)"},
    "--format": {"choices": ("text", "structured"), "default": "text",
                 "help": "output format (default: text)"},
    "--s": {"type": integer, "default": 2, "help": "kernel rank parameter (>= 2)"},
    "--direct": {"action": "store_true", "default": False,
                 "help": "run the multiplier bound on the character as given, without normalizing"},
    "--d": {"type": integer, "required": True, "help": "cokernel parameter (>= 4)"},
}
_EXCLUSIVE = ("--ch", "--log-ch")
_CHARACTER = ("--surface", *_EXCLUSIVE, "--format")
_COMMANDS = {
    name: (*_CHARACTER, "--s", "--direct") if name in ("asymptotic", "report") else _CHARACTER
    for name in "invariants obstructions gg ample-gg asymptotic bad-curves report".split()
} | {"gieseker": ("--d", "--format")}


def build_parser():
    """The ``argparse`` parser of ``_COMMANDS``, for every argv ``_canonical`` declines."""
    import argparse

    about = "exact positivity verdicts for Chern characters on rational surfaces"
    parser = argparse.ArgumentParser(prog="amplecheck", description=about)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in _COMMANDS.items():
        p = sub.add_parser(name)
        group = p.add_mutually_exclusive_group(required=True) if _EXCLUSIVE[0] in options else None
        for option in options:
            (group if option in _EXCLUSIVE else p).add_argument(option, **_OPTIONS[option])
    return parser


def _canonical(argv: list[str]) -> SimpleNamespace | None:
    """``build_parser().parse_args(argv)`` for a subcommand and its own options, each
    spelled in full and given once as ``--option value`` (``--direct`` bare), with no
    value that starts with ``-`` or that argparse rejects; None for any other argv."""
    options = _COMMANDS.get(argv[0]) if argv else None
    if options is None:
        return None
    given, tokens = {}, iter(argv[1:])
    for option in tokens:
        if option not in options or option in given:
            return None
        kw = _OPTIONS[option]
        value = True if "action" in kw else next(tokens, "-")  # --direct is a bare flag
        if value is not True and (value.startswith("-") or value not in kw.get("choices", [value])):
            return None
        try:
            given[option] = kw["type"](value) if "type" in kw else value
        except Exception:  # integer's ValueError or ArgumentTypeError: argparse reports it
            return None
    missing = any(_OPTIONS[o].get("required") and o not in given for o in options)
    if missing or sum(o in given for o in _EXCLUSIVE) != (_EXCLUSIVE[0] in options):
        return None
    fields = {o[2:].replace("-", "_"): given.get(o, _OPTIONS[o].get("default")) for o in options}
    return SimpleNamespace(command=argv[0], **fields)


def _parse_inputs(args) -> ChernCharacter:
    surface = parse_surface(args.surface)
    if args.ch is not None:
        return parse_character(args.ch, surface)
    return parse_log_character(args.log_ch, surface)


def main(argv: list[str] | None = None) -> int:
    args = _canonical(sys.argv[1:] if argv is None else argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        v = None if args.command == "gieseker" else _parse_inputs(args)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        options = {o: getattr(args, o) for o in ("s", "direct", "d") if hasattr(args, o)}
        report = rpt.command_report(args.command, v, **options)
        structured = args.format == "structured"
        out = rpt.render_structured(report) if structured else rpt.render_text(report)
    except PreconditionError as exc:  # an EnumerationLimitError among them
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except CertificateError as exc:  # a proof obligation failed: a defect, not the input
        print(f"certificate error: {exc}", file=sys.stderr)
        return EXIT_DEFECT
    except ValueError:  # past parsing, only the integer-to-string limit raises one
        limit = sys.get_int_max_str_digits()
        print(f"input error: a derived value of the report exceeds the interpreter's limit of "
              f"{limit} digits for integer-to-string conversion", file=sys.stderr)
        return EXIT_PARSE
    if structured:
        sys.stdout.buffer.write(out)
        sys.stdout.buffer.flush()
    else:
        sys.stdout.write(out)
    return EXIT_OK


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
