"""Report assembly: one deterministic, exactly-rational view of all verdicts.

A report is a dict built in a fixed key order.  Its values are JSON-native,
or they are the library's records and rationals as they are: ``DivisorClass``,
``ChernCharacter``, ``Condition``, ``BadCurve`` and ``Fraction``.  ``to_json``
lays each out, a rational as ``{"num", "den"}`` (no floating point value ever
appears), so ``json.dumps(report, default=to_json)`` serialises a report and
``parse_structured(render_structured(report))`` is its JSON-native form.  The
renderers write those layouts by filling one cached template per record type,
basis and indentation.  Each section carries a ``tag`` naming the criterion
that backs its verdict, drawn from ``VERDICT_TAGS``.

Every report, of the full pipeline or of one command, is wrapped by
``build_report``: ``schema_version``, ``command``, ``surface`` and
``character`` first, then the sections, then ``verdict`` last, which
``render_text`` writes as its final ``verdict:`` line.  A section whose
preconditions fail is not omitted: ``_section``, the one place this rule is
written, gives it a ``skipped`` entry naming the failing precondition.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _ascii

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
from .cohomology import NonspecialTrace, wbn_applicable, wbn_cohomology
from .errors import PreconditionError
from .positivity import (
    Condition,
    GGClassification,
    ObstructionReport,
    classify_global_generation,
    gg_quick_criterion,
    necessary_obstructions,
)
from .rationals import rational_to_json
from .surfaces import DivisorClass, Surface

SCHEMA_VERSION = "1"

VERDICT_TAGS = frozenset(
    {
        "riemann-roch",
        "weak-brill-noether",
        "ampleness-obstructions",
        "gg-classification",
        "gg-quick-criterion",
        "nonspecial-twists",
        "bad-curves",
        "dimension-count",
        "ample-globally-generated",
        "asymptotic-ampleness",
        "kernel-discriminant",
    }
)


def divisor_to_json(d: DivisorClass) -> dict:
    return {
        "basis": list(d.surface.basis),
        "coords": [rational_to_json(c) for c in d.coords],
        "text": str(d),
    }


def character_to_json(v: ChernCharacter) -> dict:
    return {
        "rank": v.rank,
        "c1": divisor_to_json(v.c1),
        "ch2": rational_to_json(v.ch2),
        "c2": v.c2,
        "text": str(v),
    }


def condition_to_json(c: Condition) -> dict:
    return {
        "id": c.id,
        "text": c.text,
        "holds": c.holds,
        "margin": rational_to_json(c.margin),
    }


def invariants_section(v: ChernCharacter) -> dict:
    return {
        "tag": "riemann-roch",
        "mu": v.mu,
        "nu": v.nu,
        "delta": v.delta,
        "euler_characteristic": v.euler_characteristic(),
    }


def cohomology_section(v: ChernCharacter) -> dict:
    applicability = wbn_applicable(v)
    if not applicability:
        return {
            "tag": "weak-brill-noether",
            "skipped": "hypotheses fail: " + ", ".join(applicability.failures),
        }
    triple = wbn_cohomology(v)
    return {
        "tag": "weak-brill-noether",
        "general_bundle": "cohomology of the general prioritary bundle",
        "h0": triple.h0,
        "h1": triple.h1,
        "h2": triple.h2,
    }


def obstructions_section(report: ObstructionReport) -> dict:
    out = {
        "tag": "ampleness-obstructions",
        "stability_assumed": report.stability_assumed,
        "conditions": report.conditions,
        "verdict": report.verdict.value,
    }
    if report.note:
        out["note"] = report.note
    return out


def _section(tag: str, build) -> dict:
    """``build()``, or the ``tag`` section's ``skipped`` entry if a precondition fails."""
    try:
        return build()
    except PreconditionError as exc:
        return {"tag": tag, "skipped": str(exc)}


def classified_gg_section(v: ChernCharacter, gg: GGClassification) -> dict:
    """The ``global_generation`` section of ``v`` from its classification ``gg``."""
    out = gg_to_json(gg)
    out["quick_criterion"] = _section(
        "gg-quick-criterion",
        lambda: {"tag": "gg-quick-criterion", "sufficient": gg_quick_criterion(v)},
    )
    return out


def gg_to_json(gg: GGClassification) -> dict:
    out: dict = {"tag": "gg-classification", "globally_generated": gg.globally_generated}
    if gg.globally_generated:
        out["case"] = gg.case
        out["case_description"] = gg.description
    else:
        out["failed_condition"] = gg.failed_condition
    if gg.chi is not None:
        out["chi"] = gg.chi
    if gg.chi_twist is not None:
        out["chi_twist"] = gg.chi_twist
    if gg.chi_twist_second is not None:
        out["chi_twist_second"] = gg.chi_twist_second
    if gg.balanced_split is not None:
        out["balanced_split"] = {"a": gg.balanced_split[0], "m": gg.balanced_split[1]}
    return out


def nonspecial_to_json(trace: NonspecialTrace) -> dict:
    out: dict = {"tag": "nonspecial-twists", "delta": trace.delta}
    if trace.fiber_margin is not None:
        out["fiber_margin"] = trace.fiber_margin
    if trace.section_margin is not None:
        out["section_margin"] = trace.section_margin
    out["note"] = trace.note
    out["holds"] = trace.holds
    return out


def bad_curve_to_json(bad: BadCurve) -> dict:
    return {
        "tag": "dimension-count",
        "curve": divisor_to_json(bad.curve),
        "chi_twist": bad.chi_twist,
        "d": bad.d,
        "c": rational_to_json(bad.c),
        "passes": bad.passes,
    }


def ample_gg_to_json(cert: AmpleGGCertificate) -> dict:
    out: dict = {
        "tag": "ample-globally-generated",
        "slope_conditions": cert.slope_conditions,
    }
    if cert.gg is not None:
        out["global_generation"] = gg_to_json(cert.gg)
    if cert.nonspecial is not None:
        out["nonspecial_twists"] = nonspecial_to_json(cert.nonspecial)
    out["bad_curves"] = {"tag": "bad-curves", "classes": cert.bad_curves}
    out["verdict"] = cert.verdict
    if cert.failure_reason:
        out["failure_reason"] = cert.failure_reason
    out["notes"] = list(cert.notes)
    return out


def asymptotic_to_json(cert: AsymptoticCertificate) -> dict:
    return {
        "tag": "asymptotic-ampleness",
        "mode": cert.mode,
        "slope_conditions": cert.slope_conditions,
        "base_character": cert.base,
        "twist_used": cert.twist_used,
        "s": cert.s,
        "B": cert.b,
        "B_squared": cert.b.self_intersection,
        "bound": cert.bound,
        "n_min": cert.n_min,
        "kernel": {
            "tag": "kernel-discriminant",
            "character": cert.kernel,
            "delta": cert.delta_kernel,
            "delta_at_previous_n": cert.delta_kernel_prev,
        },
        "chi_dual_twist": cert.chi_dual_twist,
        "chi_kernel_dual_twist": cert.chi_kernel_dual_twist,
        "kernel_twist_nu": cert.kernel_twist_nu,
        "kernel_twist_globally_generated": cert.kernel_twist_gg,
        # only the applicability: the certificate that renders it requires it
        "wbn_kernel_dual_twist": {
            "applicable": cert.wbn_kernel.applicable,
            "failures": list(cert.wbn_kernel.failures),
        },
        "notes": list(cert.notes),
        "verdict": f"asymptotically-ample(n_min={cert.n_min})",
    }


def build_report(
    command: str,
    surface: Surface,
    v: ChernCharacter,
    sections: dict,
    verdict: str,
    *,
    d: int | None = None,
) -> dict:
    """The envelope every command's report shares, with the verdict last."""
    report: dict = {"schema_version": SCHEMA_VERSION, "command": command}
    if d is not None:
        report["d"] = d
    report["surface"] = surface.name
    report["character"] = v
    report.update(sections)
    report["verdict"] = verdict
    return report


def run_report(surface: Surface, v: ChernCharacter, *, s: int = 2, direct: bool = False) -> dict:
    """The full pipeline: invariants, obstructions, gg, ampleness, asymptotics.

    The ampleness certificate carries the global-generation classification
    whenever it got that far, and the ``global_generation`` section reuses it.
    """
    ample = ample_gg_verdict(v)
    sections = {
        "invariants": invariants_section(v),
        "general_cohomology": cohomology_section(v),
        "obstructions": obstructions_section(necessary_obstructions(v)),
        "global_generation": _section(
            "gg-classification",
            lambda: classified_gg_section(v, ample.gg or classify_global_generation(v)),
        ),
        "ample_gg": ample_gg_to_json(ample),
        "asymptotic": _section(
            "asymptotic-ampleness",
            lambda: asymptotic_to_json(asymptotic_ample_certificate(v, s, direct=direct)),
        ),
        "warnings": ["stability of the input character is assumed, not verified"],
    }
    return build_report("report", surface, v, sections, sections["ample_gg"]["verdict"])


def bad_curves_report(surface: Surface, v: ChernCharacter) -> dict:
    bad = enumerate_bad_curves(v)
    section = {"tag": "bad-curves", "classes": bad}
    verdict = f"{len(bad)} bad curve class(es); " + (
        "all dimension counts pass" if all(b.passes for b in bad) else "some dimension count fails"
    )
    return build_report("bad-curves", surface, v, {"bad_curves": section}, verdict)


def gieseker_report(d: int) -> dict:
    v = gieseker_character(d)
    cert = asymptotic_ample_certificate(v, 2, direct=True)
    sections = {"invariants": invariants_section(v), "asymptotic": asymptotic_to_json(cert)}
    verdict = sections["asymptotic"]["verdict"]
    return build_report("gieseker", v.surface, v, sections, verdict, d=d)


def _write_json(node, pad: str, out: list[str]) -> None:
    """Append the pieces of ``json.dumps(node, indent=2, ensure_ascii=True, default=to_json)``.

    ``pad`` is the indentation of the line ``node`` starts on.  Only the
    values reports are built from are accepted: dicts with string keys,
    lists (and tuples, written as lists), strings, ints, bools, None, and
    the records of ``_RECORDS``, each filled into its cached template.
    """
    if isinstance(node, str):
        out.append(_ascii(node))
    elif node is None:
        out.append("null")
    elif node is True:
        out.append("true")
    elif node is False:
        out.append("false")
    elif isinstance(node, int):
        out.append(int.__repr__(node))
    elif isinstance(node, dict):
        if not node:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key, value in node.items():
            out.append(sep + _ascii(key) + ": ")
            _write_json(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(node, (list, tuple)):
        if not node:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        cls = type(node[0])
        if cls in _RECORDS:  # records of one type and basis share one template
            _, basis, slots, _ = _RECORDS[cls]
            key = basis(node[0])
            if all(type(item) is cls and basis(item) == key for item in node):
                template = _template(node[0], inner)
                out += (sep, (",\n" + inner).join([template % slots(item) for item in node]))
                out.append("\n" + pad + "]")
                return
        for item in node:
            out.append(sep)
            _write_json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    elif type(node) in _RECORDS:
        out.append(_template(node, pad) % _RECORDS[type(node)][2](node))
    else:
        raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")


def _template(record, pad: str | int) -> str:
    """``record``'s layout, a ``%s`` slot per value of its ``_RECORDS`` entry, written at
    ``pad`` (at ``render_text``'s indent ``pad`` if an int); cached per type, basis, pad."""
    layout, basis, *_ = _RECORDS[type(record)]
    key = (type(record), basis(record), pad)
    if key not in _TEMPLATES:
        written: list[str] = []
        if isinstance(pad, str):
            _write_json(_slotted(layout(record)), pad, written)
            text = "".join(written).replace("%", "%%").replace('"\\u0000"', "\x00")
        else:  # where a rational is written n/d, one slot
            _render_lines(_slotted(layout(record)), pad, written)
            text = "\n".join(written).replace("%", "%%").replace("\x00/\x00", "\x00")
        _TEMPLATES[key] = text.replace("\x00", "%s")
    return _TEMPLATES[key]


def _slotted(layout):
    """``layout`` with a sentinel in place of each int, bool and ``id`` or ``text`` string."""
    if isinstance(layout, dict):
        return {k: "\x00" if k in ("id", "text") else _slotted(v) for k, v in layout.items()}
    if isinstance(layout, list):
        return [_slotted(item) for item in layout]
    return "\x00" if isinstance(layout, int) else layout


def _nums(coords: tuple) -> list:
    return [n for q in coords for n in (q.numerator, q.denominator)]


# record type -> (its layout, the basis that layout depends on, the slots of its structured
# template and of its text template, in document order); a structured ``%s`` writes an int
# as int.__repr__ does, a text one writes an exact rational as _fmt_rat does
_RECORDS = {
    Fraction: (rational_to_json, lambda q: None,
               lambda q: (q.numerator, q.denominator),
               None),  # written inline in text
    Condition: (condition_to_json, lambda c: None,
                lambda c: (_ascii(c.id), _ascii(c.text), "true" if c.holds else "false",
                           c.margin.numerator, c.margin.denominator),
                lambda c: (c.id, c.text, c.holds, c.margin)),
    DivisorClass: (divisor_to_json, lambda d: d.surface.basis,
                   lambda d: (*_nums(d.coords), _ascii(str(d))),
                   lambda d: (*d.coords, d)),
    ChernCharacter: (character_to_json, lambda v: v.surface.basis,
                     lambda v: (v.rank, *_nums(v.c1.coords), _ascii(str(v.c1)),
                                v.ch2.numerator, v.ch2.denominator, v.c2, _ascii(str(v))),
                     lambda v: (v.rank, *v.c1.coords, v.c1, v.ch2, v.c2, v)),
    BadCurve: (bad_curve_to_json, lambda b: b.curve.surface.basis,
               lambda b: (*_nums(b.curve.coords), _ascii(str(b.curve)), b.chi_twist, b.d,
                          b.c.numerator, b.c.denominator, "true" if b.passes else "false"),
               lambda b: (*b.curve.coords, b.curve, b.chi_twist, b.d, b.c, b.passes)),
}
_TEMPLATES: dict[tuple, str] = {}  # (record type, basis, pad) -> template


def to_json(x) -> dict:
    """The layout of a record or ``Fraction``; ``default=to_json`` serialises a report."""
    if type(x) not in _RECORDS:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    return _RECORDS[type(x)][0](x)


def render_structured(report: dict) -> bytes:
    """Stable machine-readable rendering; deterministic field order.

    The bytes are those of ``json.dumps(report, indent=2, ensure_ascii=True,
    default=to_json)`` plus a newline, written in one pass: ``indent`` turns
    off the C encoder of ``json.dumps``.
    """
    out: list[str] = []
    _write_json(report, "", out)
    out.append("\n")
    return "".join(out).encode("ascii")


def parse_structured(payload: bytes) -> dict:
    return json.loads(payload.decode("ascii"))


def _fmt_rat(value: dict) -> str:
    if value["den"] == 1:
        return str(value["num"])
    return f"{value['num']}/{value['den']}"


def _render_lines(node, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    if isinstance(node, dict):
        # the envelope's verdict, its last key, is the one "verdict:" line
        heads = [f"{pad}{'outcome' if key == 'verdict' and indent else key}:" for key in node]
        node = node.values()
    else:
        heads = [pad + "-"] * len(node)
    for head, value in zip(heads, node):
        if type(value) in _RECORDS and type(value) is not Fraction:
            lines += (head, _template(value, indent + 1) % _RECORDS[type(value)][3](value))
        elif isinstance(value, dict) and set(value) == {"num", "den"}:
            lines.append(f"{head} {_fmt_rat(value)}")
        elif isinstance(value, (dict, list, tuple)):
            lines.append(head)
            _render_lines(value, indent + 1, lines)
        else:
            lines.append(f"{head} {value}")


def render_text(report: dict) -> str:
    """Human-readable rendering with exactly one final verdict line."""
    lines: list[str] = []
    _render_lines(report, 0, lines)
    return "\n".join(lines) + "\n"
