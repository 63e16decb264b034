"""Checks on the library's source text."""

import ast
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import amplecheck
from amplecheck import report
from amplecheck.records import Record

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "amplecheck"

# Proof obligations must raise explicitly, since ``python -O`` strips
# ``assert``.
MAX_ASSERTS = 0


def test_no_new_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(found) <= MAX_ASSERTS, f"{len(found)} assert statements: {found}"


def test_no_debug_name():
    """``python -O`` sets ``__debug__`` to False as well as stripping ``assert``, so no
    library code may name it, as a name or an attribute: ``-O`` then cannot change what
    the library does."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if "__debug__" in (getattr(node, "id", None), getattr(node, "attr", None))
    ]
    assert not found, f"__debug__ read at {found}"


def _is_intersection_number(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute) and node.attr == "self_intersection":
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dot", "pair")
    )


def test_intersection_numbers_are_not_divided_with_slash():
    """``pair`` is an ``int`` on integral classes, and ``int / int`` is a float.

    Intersection numbers are halved (or otherwise divided) through
    ``Fraction(x, n)``, so no quotient of one can become inexact.
    """
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Div)
        and any(_is_intersection_number(n) for n in ast.walk(node.left))
    ]
    assert not found, f"'/' applied to an intersection number: {found}"


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """Records are plain slotted classes, so a CLI process never imports
    ``dataclasses`` and, through it, ``inspect``, ``ast`` and ``dis``.

    ``-S`` keeps a site ``.pth`` file from importing these modules first.
    """
    probe = (
        "import sys; import amplecheck.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SOURCE.parent)},
    ).stdout
    assert out.strip() == "[]"


def _imports_of_child(*args: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run ``python -S -X importtime *args`` on the checkout, with the modules it imported."""
    done = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *args],
        capture_output=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SOURCE.parent)},
    )
    lines = [line for line in done.stderr.decode().splitlines() if line.startswith("import time:")]
    return done, {line.rpartition("|")[2].strip() for line in lines}


@pytest.mark.parametrize(
    "ch, fmt, declined",
    [(["--ch", "2:3,8:2"], "structured", False), (["--ch=2:3,8:2"], "structured", True),
     (["--ch", "2:3,8:2"], "text", False)],
    ids=["canonical", "declined", "text"],
)
def test_cli_process_loads_argparse_only_for_a_declined_argv(ch, fmt, declined):
    """A request in canonical form is read without ``argparse``; one in any other form, here
    ``--ch=``, goes through it; each writes the golden bytes, a text request included, and
    none loads ``json``."""
    argv = ["report", "--surface", "F2", *ch, "--format", fmt]
    done, imported = _imports_of_child("-m", "amplecheck.cli", *argv)
    golden = ROOT / "tests" / "golden" / f"report_surface_F2_ch_2_3_8_2_format_{fmt}.stdout"
    assert (done.returncode, done.stdout) == (0, golden.read_bytes())
    assert ("argparse" in imported, "json" in imported) == (declined, False)


@pytest.mark.parametrize(
    "fmt, compiled", [([], False), (["--format", "structured"], True)], ids=["text", "structured"])
def test_only_a_structured_cli_process_compiles_templates(fmt, compiled):
    """``render_text`` walks the layout rows of each record itself, so a text request
    compiles no filler; a structured one compiles some."""
    argv = ["report", "--surface", "F2", "--ch", "2:3,8:2", *fmt]
    probe = ("import sys; from amplecheck import cli, report; "
             f"code = cli.main({argv!r}); "
             "print(code, len(report._FILLERS), file=sys.stderr)")
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SOURCE.parent)},
    )
    name = "structured" if compiled else "text"
    golden = ROOT / "tests" / "golden" / f"report_surface_F2_ch_2_3_8_2_format_{name}.stdout"
    assert (done.returncode, done.stdout) == (0, golden.read_bytes())
    code, fillers = map(int, done.stderr.split())
    assert code == 0 and (fillers > 0) == compiled


def test_a_structured_cli_request_compiles_few_templates():
    """A filler is compiled once per record type and pad, so a structured F2 ``report``
    request makes 8 ``eval`` compiles: the report, whose template inlines its character,
    invariants and bad curves, its 5 section records and the quick criterion held in an
    ANY row, and the ``Fraction`` of ``delta_at_previous_n``, another ANY row.  It
    made 9 when each whole-report shape had its own template and each record type its own
    shape function, and 17 when the envelope was walked and each section had its own
    template."""
    argv = ["report", "--surface", "F2", "--ch", "2:3,8:2", "--format", "structured"]
    probe = ("import sys; from amplecheck import cli, report; compiles = []; "
             "report.eval = lambda *a: compiles.append(1) or eval(*a); "
             f"code = cli.main({argv!r}); "
             "print(code, len(compiles), len(report._FILLERS), file=sys.stderr)")
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SOURCE.parent)},
    )
    golden = ROOT / "tests" / "golden" / "report_surface_F2_ch_2_3_8_2_format_structured.stdout"
    assert (done.returncode, done.stdout) == (0, golden.read_bytes())
    assert list(map(int, done.stderr.split())) == [0, 8, 8]


def test_cli_import_compiles_one_constructor_per_template_and_field_count():
    """``records`` compiles a constructor once per template and field count, so importing
    ``amplecheck.cli`` makes 10 ``compile`` calls on ``"<record>"`` sources for its 16
    record classes.  Only those are counted: without a bytecode cache the module sources
    go through ``compile`` as well."""
    probe = ("import builtins; compiles = []; original = builtins.compile\n"
             "def counted(source, filename, *args, **kwargs):\n"
             "    compiles.append(filename)\n"
             "    return original(source, filename, *args, **kwargs)\n"
             "builtins.compile = counted\n"
             "import amplecheck.cli\n"
             "print(compiles.count('<record>'))")
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SOURCE.parent), "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert (done.returncode, done.stdout) == (0, "10\n"), done.stderr


def test_cli_import_leaves_out_argparse_and_json():
    done, imported = _imports_of_child("-c", "import amplecheck.cli")
    assert done.returncode == 0 and "amplecheck.cli" in imported
    assert not {"argparse", "json"} & imported


def test_cli_imports_no_procedure():
    """``cli`` parses, asks ``report.command_report`` for the report and renders it; which
    procedures a command runs is decided in ``report``, so ``cli`` imports none."""
    tree = ast.parse((SOURCE / "cli.py").read_text())
    names = [
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
    ]
    found = [n for n in names if {"ampleness", "positivity", "cohomology"} & set(n.split("."))]
    assert not found, f"cli imports {found}"


def _unread_imports(path: Path) -> list[str]:
    """``file:line name`` for each name an import binds in ``path`` but no
    expression reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and type(n.ctx) is ast.Load}
    return [
        f"{path.name}:{node.lineno} {name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        for name in [alias.asname or alias.name.partition(".")[0]]
        if name not in read
    ]


def test_every_import_is_read():
    """A module reads every name it imports; ``__init__`` re-exports, so it is left out."""
    found = [
        entry
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "__init__.py"
        for entry in _unread_imports(path)
    ]
    assert not found, f"imported but never read: {found}"


def _names_read(path: Path) -> set[str]:
    """Every name and attribute that an expression in ``path`` reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute)) and type(n.ctx) is ast.Load
    }


def test_every_function_is_read():
    """Each function or method the library defines, dunders aside, is read by name in
    ``src/`` (``__init__``'s re-exports left out), ``tests/`` or ``perfbench/``, or it
    is a ``pyproject.toml`` entry point: a helper nothing calls is deleted, not kept."""
    readers = [p for p in SOURCE.glob("*.py") if p.name != "__init__.py"]
    readers += [*(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    read = set().union(*map(_names_read, readers))
    scripts = (ROOT / "pyproject.toml").read_text().partition("[project.scripts]")[2]
    read |= set(re.findall(r'^[\w.-]+\s*=\s*"[\w.]+:(\w+)"', scripts.partition("\n[")[0], re.M))
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read
    ]
    assert not found, f"defined but never read: {found}"


def _rendered(rows) -> set[str]:
    """The attribute each row of ``rows`` reads first, nested row tables included."""
    names = set()
    for key, part, kind in rows:
        if kind != report.CONST and type(part) is str:
            names.add(part.partition(".")[0])
        if type(kind) is tuple:
            names |= _rendered(kind)
    return names


def _kinds_used(rows) -> set[str]:
    """The kind constants the rows of ``rows`` name, nested row tables included."""
    kinds = set()
    for _, _, kind in rows:
        if type(kind) is str:
            kinds.add(kind)
        elif type(kind) is tuple:
            kinds |= _kinds_used(kind)
    return kinds


def test_every_layout_kind_is_used():
    """Each kind constant ``report`` binds, in the one assignment that binds ``CONST``, is
    the kind of at least one ``_LAYOUTS`` row: a kind that no row names is deleted, with
    its slot, as the walked kind was."""
    tree = ast.parse((SOURCE / "report.py").read_text())
    targets = next(
        node.targets[0].elts for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple)
        and "CONST" in [t.id for t in node.targets[0].elts]
    )
    kinds = {getattr(report, t.id) for t in targets}
    used = set().union(*map(_kinds_used, report._LAYOUTS.values()))
    assert len(kinds) == len(targets) >= 7
    assert kinds - used == set(), f"kinds no row uses: {sorted(kinds - used)}"


def test_every_record_field_is_read():
    """Each field of a record class in ``src/`` is rendered by a row of its own class's
    ``_LAYOUTS`` table (nested row tables, and ``GGSection``'s ``classification.`` rows,
    included) or read as an attribute in ``src/``: a field that no report shows and no
    code reads is deleted, not stored.  The check is by name, so a field named like an
    attribute read elsewhere passes unread: ``NonspecialTrace`` kept a ``surface`` that
    nothing read, but ``.surface`` is read on characters and classes everywhere."""
    read = {
        n.attr
        for path in SOURCE.glob("*.py")
        for n in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(n, ast.Attribute) and type(n.ctx) is ast.Load
    }
    found = [
        f"{cls.__name__}.{field}"
        for cls in Record.__subclasses__()
        if cls.__module__.startswith("amplecheck.")
        for field in cls._fields
        if field not in read | _rendered(report._LAYOUTS.get(cls, ()))
    ]
    assert not found, f"record fields neither rendered nor read: {found}"


def _is_dict(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "__dict__"


def _writes_a_dict(node: ast.AST) -> bool:
    """A store or delete through ``x.__dict__[...]``, a mutating call on ``x.__dict__``,
    or a name bound to ``x.__dict__`` (``facts = self.__dict__``), which is then written."""
    if isinstance(node, ast.Subscript):
        return type(node.ctx) is not ast.Load and _is_dict(node.value)
    if isinstance(node, ast.Call):
        mutators = ("update", "setdefault", "pop", "popitem", "clear", "__setitem__")
        return isinstance(node.func, ast.Attribute) and node.func.attr in mutators and _is_dict(
            node.func.value)
    return isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)) and _is_dict(node.value)


def _dict_writers(tree: ast.AST, scope: str) -> set[str]:
    """The qualified names of the functions in ``tree`` that write a ``__dict__``."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found |= _dict_writers(node, f"{scope}.{node.name}")
        else:
            if _writes_a_dict(node):
                found.add(scope)
            found |= _dict_writers(node, scope)
    return found


# Where a record's ``__dict__`` is written past ``Record.__setattr__``: the lazy values, the
# facts the constructors set, a twist's carried ``delta``, the builder's ``B_squared`` and
# the stored slope conditions.  A new cache is added here on purpose.
DICT_WRITERS = {
    "records.lazy.__get__", "surfaces.Surface.__init__", "characters.ChernCharacter.__init__",
    "characters.ChernCharacter._keeping_delta", "ampleness.asymptotic_ample_certificate",
    "positivity.slope_conditions",
}


def test_record_dicts_are_written_in_known_places():
    sample = ast.parse("def f(r):\n    r.__dict__['k'] = 1\n"
                       "class C:\n    def g(self):\n        self.__dict__.update(k=1)\n"
                       "    def h(self):\n        facts = self.__dict__\n"
                       "def k(r):\n    return 'k' in r.__dict__ and r.__dict__['k']\n")
    assert _dict_writers(sample, "m") == {"m.f", "m.C.g", "m.C.h"}  # k only reads
    found = set().union(*(
        _dict_writers(ast.parse(path.read_text(), filename=str(path)), path.stem)
        for path in sorted(SOURCE.glob("*.py"))))
    assert found == DICT_WRITERS


# The package's public names, written out: ``__all__`` is computed from the imports of
# ``__init__``, so deleting an import would drop an export without this list.
EXPORTS = [
    "AmpleGGCertificate", "AmplecheckError", "AsymptoticCertificate", "BadCurve",
    "CertificateError", "ChernCharacter", "CohomologyTriple", "Condition", "DivisorClass",
    "EnumerationLimitError", "GGClassification", "InvalidCharacterError",
    "InvalidDivisorError", "NonspecialTrace", "ObstructionReport", "ObstructionVerdict",
    "PreconditionError", "Surface", "SurfaceKind", "SurfaceMismatchError",
    "WbnApplicability", "ample_gg_verdict", "asymptotic_ample_certificate",
    "classify_global_generation", "dimension_count", "effective_n_bound",
    "enumerate_bad_curves", "from_log_invariants", "gg_quick_criterion",
    "gieseker_character", "h0_line_bundle", "is_big_and_nef", "is_irreducible_curve_class",
    "is_nef", "kernel_character", "make_character", "multiplier_lower_bound",
    "necessary_obstructions", "nonspecial_all_twists", "normalize_character",
    "parse_character", "parse_surface", "slope_conditions", "wbn_applicable",
    "wbn_cohomology",
]


def test_the_exported_names_are_pinned():
    """``from amplecheck import *`` binds exactly the public names: no submodule and no
    ``__version__``."""
    namespace: dict = {}
    exec("from amplecheck import *", namespace)
    assert amplecheck.__all__ == EXPORTS
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)


def test_readme_examples_print_what_they_show():
    """Each ``python`` block of the README is followed by a ``text`` block of what it prints:
    running the block in a fresh namespace prints exactly that."""
    readme = (ROOT / "README.md").read_text()
    examples = re.findall(r"```python\n(.*?)```\n\nprints\n\n```text\n(.*?)```", readme, re.S)
    assert len(examples) == readme.count("```python") >= 1
    for code, shown in examples:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(code, "README.md", "exec"), {})
        assert out.getvalue() == shown
