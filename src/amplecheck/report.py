"""Report assembly: one deterministic, exactly-rational view of all verdicts.

A report is a ``Report`` record: the envelope, and one section or None in each
of ``SECTIONS``.  A section is the character itself (``invariants``, laid out
by its ``mu``, ``nu``, ``delta`` and Euler characteristic), a record
(``CohomologyTriple``, ``ObstructionReport``, ``GGSection``,
``AmpleGGCertificate``, ``AsymptoticCertificate``), the ``bad_curves`` tuple of
``BadCurve``s or the ``warnings`` tuple, read by attribute as in
``report.asymptotic.n_min``; a section whose preconditions fail is not omitted:
``_section``, the one place this rule is written, gives it a ``Skipped`` entry
naming the failing precondition.  Each record is laid out by its table in
``_LAYOUTS``, a rational as ``{"num", "den"}`` (no floating point value ever
appears), and each format has one writer of the tables; both take a record of
``_LAYOUTS`` and nothing else, any other value raising json's ``TypeError``.
``render_structured`` writes a record with the cached filler of its type and
pad, compiled from the type's table by ``_template``: a ``%`` template that
inlines the record and row tables it holds, writes a record tuple as its item
template in a comprehension and a "?" row as one slot, empty when the value is
absent.  No value picks a template, so the cache holds one filler per (record
type, pad) met; a report is one fill, which calls the filler of the record in
each ANY row.  ``render_text`` walks the same rows into lines, compiling nothing.
``to_json(report)``, the JSON-native form that ``default=to_json`` serialises, is
``parse_structured(render_structured(report))``; the reference walks of the tables
that both writers are tested against are in ``tests/oracles.py``.  Each section
carries a ``tag`` naming the criterion that backs its verdict;
``VERDICT_TAGS`` collects them from the tables.

``command_report`` picks each CLI subcommand's sections and verdict.  The
envelope writes ``schema_version``, ``command``, ``d`` (``gieseker`` only),
``surface`` (the character's) and ``character`` first, then the sections in
the order of ``SECTIONS``, then ``verdict`` last, which ``render_text``
writes as its final ``verdict:`` line.
"""

from __future__ import annotations

from _json import encode_basestring_ascii as _ascii  # json.encoder's C accelerator
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter

from .ampleness import (
    AmpleGGCertificate,
    AsymptoticCertificate,
    BadCurve,
    ample_gg_verdict,
    asymptotic_ample_certificate,
    enumerate_bad_curves,
    gieseker_character,
)
from .characters import ChernCharacter
from .cohomology import CohomologyTriple, NonspecialTrace, wbn_cohomology
from .errors import PreconditionError, SurfaceMismatchError
from .positivity import (
    Condition,
    GGClassification,
    ObstructionReport,
    classify_global_generation,
    gg_quick_criterion,
    necessary_obstructions,
)
from .records import Record
from .surfaces import DivisorClass, Surface

SCHEMA_VERSION = "1"

SECTIONS = ("invariants", "general_cohomology", "obstructions", "global_generation", "ample_gg",
            "asymptotic", "bad_curves", "warnings")


class Report(Record):
    """A command's report on ``character``, with each of ``SECTIONS`` it has."""

    __slots__ = ("command", "character", "verdict", "d", *SECTIONS)
    _defaults = (None,) * (1 + len(SECTIONS))


class Skipped(Record):
    """The ``tag`` section's entry when its preconditions fail: the failing one."""

    __slots__ = ("tag", "skipped")


class GGSection(Record):
    """The ``global_generation`` section: a classification and its quick criterion's entry."""

    __slots__ = ("classification", "quick_criterion")


class QuickCriterion(Record):
    __slots__ = ("sufficient",)


def cohomology_section(v: ChernCharacter) -> CohomologyTriple | Skipped:
    return _section("weak-brill-noether", lambda: wbn_cohomology(v))


def _section(tag: str, build):
    """``build()``, or the ``tag`` section's ``Skipped`` entry if a precondition fails."""
    try:
        return build()
    except PreconditionError as exc:
        return Skipped(tag, str(exc))


def classified_gg_section(v: ChernCharacter, gg: GGClassification) -> GGSection:
    """The ``global_generation`` section of ``v`` from its classification ``gg``."""
    return GGSection(gg, _section(
        "gg-quick-criterion", lambda: QuickCriterion(gg_quick_criterion(v))))


def _check_surface(surface: Surface, v: ChernCharacter) -> None:
    if surface != v.surface:
        raise SurfaceMismatchError(f"a report on {surface} of a character on {v.surface}")


def run_report(surface: Surface, v: ChernCharacter, *, s: int = 2, direct: bool = False) -> Report:
    """The full pipeline: invariants, obstructions, gg, ampleness, asymptotics.

    The ampleness certificate carries the global-generation classification
    whenever it got that far, and the ``global_generation`` section reuses it.
    """
    _check_surface(surface, v)
    ample = ample_gg_verdict(v)
    return Report(
        "report", v, ample.verdict, invariants=v,
        general_cohomology=cohomology_section(v), obstructions=necessary_obstructions(v),
        global_generation=_section(
            "gg-classification",
            lambda: classified_gg_section(v, ample.gg or classify_global_generation(v))),
        ample_gg=ample,
        asymptotic=_section(
            "asymptotic-ampleness", lambda: asymptotic_ample_certificate(v, s, direct=direct)),
        warnings=("stability of the input character is assumed, not verified",))


def bad_curves_report(surface: Surface, v: ChernCharacter) -> Report:
    _check_surface(surface, v)
    bad = enumerate_bad_curves(v)
    verdict = f"{len(bad)} bad curve class(es); " + (
        "all dimension counts pass" if all(b.passes for b in bad) else "some dimension count fails"
    )
    return Report("bad-curves", v, verdict, bad_curves=bad)


def gieseker_report(d: int) -> Report:
    v = gieseker_character(d)
    cert = asymptotic_ample_certificate(v, 2, direct=True)
    return Report("gieseker", v, cert.verdict, d=d, invariants=v, asymptotic=cert)


def command_report(command: str, v: ChernCharacter | None, *, s: int = 2,
                   direct: bool = False, d: int | None = None) -> Report:
    """The report of the CLI subcommand ``command`` on ``v``, or on ``d`` for ``gieseker``
    (``v`` None).  It raises what the procedure raises: ``PreconditionError`` (an
    ``EnumerationLimitError`` among them) or ``CertificateError``."""
    if command == "gieseker":
        return gieseker_report(d)
    if command == "bad-curves":
        return bad_curves_report(v.surface, v)
    if command == "report":
        return run_report(v.surface, v, s=s, direct=direct)
    if command == "invariants":
        return Report(command, v, "computed", invariants=v,
                      general_cohomology=cohomology_section(v))
    if command == "obstructions":
        key, section = "obstructions", necessary_obstructions(v)
        verdict = section.verdict.value
    elif command == "gg":
        gg = classify_global_generation(v)
        key, section = "global_generation", classified_gg_section(v, gg)
        verdict = (f"globally-generated(case {gg.case})" if gg.globally_generated
                   else f"not-globally-generated: {gg.failed_condition}")
    elif command == "ample-gg":
        key, section = "ample_gg", ample_gg_verdict(v)
        verdict = section.verdict
    else:  # the one left: asymptotic
        key, section = "asymptotic", asymptotic_ample_certificate(v, s, direct=direct)
        verdict = section.verdict
    return Report(command, v, verdict, **{key: section})


# Rows are (key, part, kind).  ``part`` reads the value from the object the table lays out:
# an attribute path, "" for the object itself, an index or the builtin ``str``; in a CONST
# row it is the value.  INT, BOOL and STR values fill a slot; COORDS is a tuple of one
# or two rationals, each laid out as a Fraction; STRS, a tuple of strings from a fixed set,
# is written once per tuple and pad.  A record type (Fraction for a rational, held as an
# int or a Fraction) is its own table inlined, a tuple of rows a nested dict, ``[Condition]``
# a tuple of Condition records; an ANY value is laid out, and written, by its own type's
# table, or as null when it is None.  A key ending in "?" is left out when its value is
# None (a STR value: when it is empty).
CONST, INT, BOOL, STR, COORDS, STRS, ANY = "const", "int", "bool", "str", "coords", "strs", "any"
_BAD_CURVES = (("tag", "bad-curves", CONST), ("classes", "", [BadCurve]))  # of BadCurves
_INVARIANTS = (("tag", "riemann-roch", CONST), ("mu", "mu", Fraction),  # of a character
               ("nu", "nu", DivisorClass), ("delta", "delta", Fraction),
               ("euler_characteristic", "_chi", INT))
_LAYOUTS: dict[type, tuple] = {
    Fraction: (("num", "numerator", INT), ("den", "denominator", INT)),
    Condition: (("id", "id", STR), ("text", "text", STR), ("holds", "holds", BOOL),
                ("margin", "margin", Fraction)),
    DivisorClass: (("basis", "surface.basis", STRS), ("coords", "coords", COORDS),
                   ("text", str, STR)),
    ChernCharacter: (("rank", "rank", INT), ("c1", "c1", DivisorClass), ("ch2", "ch2", Fraction),
                     ("c2", "c2", INT), ("text", str, STR)),
    BadCurve: (("tag", "dimension-count", CONST), ("curve", "curve", DivisorClass),
               ("chi_twist", "chi_twist", INT), ("d", "d", INT), ("c", "c", Fraction),
               ("passes", "passes", BOOL)),
    ObstructionReport: (
        ("tag", "ampleness-obstructions", CONST), ("stability_assumed", "stability_assumed", BOOL),
        ("conditions", "conditions", [Condition]), ("verdict", "verdict.value", STR),
        ("note?", "note", STR)),
    GGClassification: (
        ("tag", "gg-classification", CONST), ("globally_generated", "globally_generated", BOOL),
        ("case?", "case", INT), ("case_description?", "description", STR),
        ("failed_condition?", "failed_condition", STR), ("chi?", "chi", INT),
        ("chi_twist?", "chi_twist", INT), ("chi_twist_second?", "chi_twist_second", INT),
        ("balanced_split?", "balanced_split", (("a", 0, INT), ("m", 1, INT)))),
    NonspecialTrace: (
        ("tag", "nonspecial-twists", CONST), ("delta", "delta", Fraction),
        ("fiber_margin?", "fiber_margin", Fraction),
        ("section_margin?", "section_margin", Fraction),
        ("note", "note", STR), ("holds", "holds", BOOL)),
    AmpleGGCertificate: (
        ("tag", "ample-globally-generated", CONST),
        ("slope_conditions", "slope_conditions", [Condition]),
        ("global_generation?", "gg", GGClassification),
        ("nonspecial_twists?", "nonspecial", NonspecialTrace),
        ("bad_curves", "bad_curves", _BAD_CURVES),
        ("verdict", "verdict", STR), ("failure_reason?", "failure_reason", STR),
        ("notes", "notes", STRS)),
    AsymptoticCertificate: (
        ("tag", "asymptotic-ampleness", CONST), ("mode", "mode", STR),
        ("slope_conditions", "slope_conditions", [Condition]),
        ("base_character", "base", ChernCharacter), ("twist_used", "twist_used", DivisorClass),
        ("s", "s", INT), ("B", "b", DivisorClass), ("B_squared", "b_squared", Fraction),
        ("bound", "bound", Fraction), ("n_min", "n_min", INT),
        ("kernel", "", (("tag", "kernel-discriminant", CONST),
                        ("character", "kernel", ChernCharacter),
                        ("delta", "kernel.delta", Fraction),
                        ("delta_at_previous_n", "delta_kernel_prev", ANY))),
        ("chi_dual_twist", "chi_dual_twist", INT),
        ("chi_kernel_dual_twist", "chi_kernel_dual_twist", INT),
        ("kernel_twist_nu", "kernel_twist_nu", DivisorClass),
        ("kernel_twist_globally_generated", "kernel_twist_gg", BOOL),
        # only the applicability: the certificate that renders it requires it
        ("wbn_kernel_dual_twist", "wbn_kernel",
         (("applicable", "applicable", BOOL), ("failures", "failures", STRS))),
        ("notes", "notes", STRS), ("verdict", "verdict", STR)),
    Skipped: (("tag", "tag", STR), ("skipped", "skipped", STR)),
    CohomologyTriple: (
        ("tag", "weak-brill-noether", CONST),
        ("general_bundle", "cohomology of the general prioritary bundle", CONST),
        ("h0", "h0", INT), ("h1", "h1", INT), ("h2", "h2", INT)),
    QuickCriterion: (("tag", "gg-quick-criterion", CONST), ("sufficient", "sufficient", BOOL)),
    Report: (
        ("schema_version", SCHEMA_VERSION, CONST), ("command", "command", STR), ("d?", "d", INT),
        ("surface", "character.surface.name", STR), ("character", "character", ChernCharacter),
        ("invariants?", "invariants", _INVARIANTS),
        *((f"{key}?", key, ANY) for key in SECTIONS[1:-2]),  # the sections held as records
        ("bad_curves?", "bad_curves", _BAD_CURVES), ("warnings?", "warnings", STRS),
        ("verdict", "verdict", STR)),
}
_LAYOUTS[GGSection] = (  # the classification's rows, read through it, and the criterion
    *((k, p if kind == CONST else f"classification.{p}", kind)
      for k, p, kind in _LAYOUTS[GGClassification]),
    ("quick_criterion", "quick_criterion", ANY))


def _tags(rows) -> set[str]:
    """The CONST ``tag`` values of ``rows`` and of the row tables nested in them."""
    return {tag for key, part, kind in rows
            for tag in ([part] if key == "tag" and kind == CONST
                        else _tags(kind) if type(kind) is tuple else ())}


VERDICT_TAGS = frozenset().union(*map(_tags, _LAYOUTS.values()))
_FILLERS: dict[tuple, object] = {}  # (record type, pad) -> its compiled filler


def _get(obj, part):
    if callable(part):
        return part(obj)
    return obj[part] if type(part) is int else attrgetter(part)(obj) if part else obj


def _code(expr: str, part) -> str:
    """The code reading ``part`` of the object that the code ``expr`` reads."""
    if callable(part):
        return f"{part.__name__}({expr})"
    return f"{expr}[{part}]" if type(part) is int else f"{expr}.{part}" if part else expr


def _rows(x) -> tuple:
    """The table of ``x``'s type: a value with no table raises json's ``TypeError``."""
    rows = _LAYOUTS.get(type(x))
    if rows is None:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    return rows


def _literal(text: str) -> str:
    """``text`` written as a JSON string into a template, its ``%`` doubled."""
    return _ascii(text).replace("%", "%%")


def _filled(template: str, slots: list[str]) -> str:
    """The code filling ``template`` with the values of the code ``slots``."""
    return f"{template!r} % ({''.join(slot + ', ' for slot in slots)})"


def _items(texts, pad: str) -> str:
    """The written ``texts`` as the items of a list on a line at ``pad``."""
    if not texts:
        return "[]"
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join(texts) + f"\n{pad}]"


# the slot of a value of each kind read by the code {0}, written on a line at the pad {1}
_SLOTS = {INT: "{0}", BOOL: "('true' if {0} else 'false')", STR: "_ascii({0})",
          STRS: "_texts({0}, {1!r})", ANY: "('null' if {0} is None else _fill({0}, {1!r}))"}


def _template(rows, expr: str, pad: str) -> tuple[str, list[str]]:
    """The ``%`` template of the object that the code ``expr`` reads, laid out by ``rows`` on
    a line at ``pad``, and the code of its slots in order.  A record's table (a rational
    may be an int) and a nested row table are inlined; a record tuple is its item template
    in a comprehension, COORDS a choice between a one-class and a two-class basis, and a
    "?" row one slot, empty when its value is absent."""
    inner = pad + "  "
    text, slots = "{", []
    for key, part, kind in rows:
        code = _code(expr, part)
        if kind == CONST:
            value, codes = _literal(part), []
        elif kind == COORDS:
            (fraction, first), (_, second) = (
                _template(_LAYOUTS[Fraction], f"{code}[{i}]", inner + "  ") for i in (0, 1))
            one, two = (_filled(_items([fraction], inner), first),
                        _filled(_items([fraction, fraction], inner), first + second))
            value, codes = "%s", [f"({one} if len({code}) == 1 else {two})"]
        elif type(kind) is str:
            value, codes = "%s", [_SLOTS[kind].format(code, inner)]
        elif type(kind) is list:
            item = f"x{len(pad)}"  # the comprehension's variable, one per depth
            fill = _filled(*_template(_LAYOUTS[kind[0]], item, inner + "  "))
            value, codes = "%s", [f"_items([{fill} for {item} in {code}], {inner!r})"]
        else:
            value, codes = _template(kind if type(kind) is tuple else _LAYOUTS[kind], code, inner)
        row = f"{',' if text != '{' else ''}\n{inner}{_literal(key.rstrip('?'))}: {value}"
        if key[-1] == "?":  # never a table's first row, so a comma always leads it
            absent = f"not {code}" if kind == STR else f"{code} is None"
            text += "%s"
            slots.append(f"('' if {absent} else {_filled(row, codes)})")
        else:
            text += row
            slots += codes
    return text + f"\n{pad}}}", slots


def _fill(record, pad: str) -> str:
    """``record`` written on a line at ``pad`` by the filler of its type and ``pad``,
    compiled on first use (a record's values are only ever arguments, never code)."""
    fill = _FILLERS.get((type(record), pad))
    if fill is None:
        names = {"_ascii": _ascii, "_fill": _fill, "_items": _items, "_texts": _texts}
        code = _filled(*_template(_rows(record), "r", pad))
        fill = _FILLERS[type(record), pad] = eval(f"lambda r: {code}", names)
    return fill(record)


@lru_cache(maxsize=128)  # the library's reports fill 13 keys; a caller's warnings may add more
def _texts(strs: tuple, pad: str) -> str:
    """A STRS tuple written on a line at ``pad``: mostly one of a fixed set, so written once."""
    return _items([_ascii(text) for text in strs], pad)


def render_structured(report) -> bytes:
    """Stable machine-readable rendering of a record; deterministic field order.

    The bytes are those of ``json.dumps(report, indent=2, ensure_ascii=True,
    default=layout)``, with ``layout`` of ``tests/oracles.py``, plus a newline,
    written in one fill: ``indent`` turns off the C encoder of ``json.dumps``.
    A value with no layout raises the ``TypeError`` of ``json.dumps``.
    """
    return (_fill(report, "") + "\n").encode("ascii")


def parse_structured(payload: bytes) -> dict:
    import json  # here, so that a process that only writes reports never loads it

    return json.loads(payload.decode("ascii"))


def to_json(x) -> dict:
    """A record's JSON-native form, its structured bytes read back (reference: ``layout`` in
    ``tests/oracles.py``); ``default=to_json`` serialises a report."""
    return parse_structured(render_structured(x))


# each character that ends a line for ``str.splitlines``, written as its JSON escape
_LINE_BREAKS = {ord(c): _ascii(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _text_lines(rows, obj, pad: str, lines: list[str]) -> None:
    """The lines of ``obj`` by ``rows``, keys at ``pad``; a nested ``verdict`` is ``outcome``."""
    for key, part, kind in rows:
        value = part if kind == CONST else _get(obj, part)
        if key[-1] == "?":
            if not value if kind == STR else value is None:
                continue
            key = key[:-1]
        _text_value(f"{pad}{'outcome' if key == 'verdict' and pad else key}:", value, kind,
                    pad + "  ", lines)


def _text_value(head: str, value, kind, pad: str, lines: list[str]) -> None:
    """``head`` with ``value`` of ``kind`` on one line, or then its items or rows at ``pad``."""
    if kind == ANY and value is not None:  # laid out by its own type's table
        _rows(value)  # raises json's TypeError
        kind = type(value)
    if kind is Fraction:
        den = value.denominator
        lines.append(f"{head} {value.numerator}" + ("" if den == 1 else f"/{den}"))
    elif kind in (STRS, COORDS) or type(kind) is list:
        lines.append(head)
        item = STR if kind == STRS else Fraction if kind == COORDS else kind[0]
        for x in value:
            _text_value(pad + "-", x, item, pad + "  ", lines)
    elif type(kind) is str:  # CONST, INT, BOOL, STR, or ANY holding None
        if type(value) is str and not value.isprintable():  # any line break is in here
            value = value.translate(_LINE_BREAKS)
        lines.append(f"{head} {value}")
    else:  # a record, or a nested row table
        lines.append(head)
        _text_lines(kind if type(kind) is tuple else _LAYOUTS[kind], value, pad, lines)


def render_text(report) -> str:
    """Human-readable rendering of a record, walked from its table (reference: ``text_of_tree``
    in ``tests/oracles.py``), with exactly one final verdict line: a line break inside a text
    value is written as its JSON escape (``\\n``, ``\\u2028``)."""
    lines: list[str] = []
    _text_lines(_rows(report), report, "", lines)
    return "\n".join(lines) + "\n"
