"""Every function, method, class and field that perclab defines has a
reader in perclab or in the benchmark (perfbench/), not only in the tests.

A def or class name counts as read when it occurs in the source of
src/perclab or perfbench/ anywhere other than its own definition: as a
name token, or inside a string, since the benchmark's tracer wraps names by
string.  Comments do not count, and dunder names are exempt.  A field (an
annotated name in a class body, of a dataclass or a NamedTuple) counts as
read when an attribute of that name is loaded somewhere in the same
sources.  src/perclab/__init__.py does not count either: a re-export is not
a use."""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

import perclab

PACKAGE = Path(perclab.__file__).resolve().parent
ROOT = PACKAGE.parents[1]

# qualified name -> why it stays without a reader
ALLOWED = {
    "pairing.format_multigraph": "writes the edge-list format that the CLI reads, "
    "and the tests build their fixtures with it",
}

# qualified class name -> the output that reads every field of it at once
WRITTEN_WHOLE = {
    "harness.TrialRecord": "report.json, trials.csv and the benchmark's vars(rec)",
    "harness.ExperimentConfig": "report.json",
    "harness.ExperimentReport": "report.json",
    "expansion.ExpansionCertificate": "perclab expansion's JSON",
}


def sources():
    """The files whose reads count: src/perclab without __init__.py, and
    perfbench/."""
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    return [*modules, *(ROOT / "perfbench").rglob("*.py")]


def definitions():
    """(qualified name, name) of every def and class in src/perclab."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((f"{prefix}.{child.name}", child.name))
                walk(child, f"{prefix}.{child.name}")
            else:
                walk(child, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem)
    return out


def occurrences():
    """Counts of name tokens and of words inside strings over src/perclab
    and perfbench, leaving out the package's __init__.py and the name that a
    def or class defines."""
    counts = Counter()
    for path in sources():
        tokens = list(tokenize.generate_tokens(io.StringIO(path.read_text()).readline))
        for prev, tok in zip([None, *tokens], tokens):
            if tok.type == tokenize.NAME:
                defining = prev is not None and prev.string in ("def", "class")
                counts[tok.string] += 0 if defining else 1
            elif tok.type == tokenize.STRING:
                counts.update(re.findall(r"[A-Za-z_]\w*", tok.string))
    return counts


def fields():
    """(qualified class name, field name) of every annotated name in the
    body of a class in src/perclab."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                out += [
                    (f"{path.stem}.{node.name}", item.target.id)
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
    return out


def attribute_reads():
    """Names of the attributes loaded anywhere in the sources that count."""
    return {
        node.attr
        for path in sources()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_definition_has_a_reader():
    counts = occurrences()
    unread = [
        qual
        for qual, name in definitions()
        if not (name.startswith("__") and name.endswith("__"))
        and counts[name] == 0
        and qual not in ALLOWED
    ]
    assert unread == [], f"defined but never read outside the tests: {unread}"


def test_every_field_has_a_reader():
    reads = attribute_reads()
    unread = [
        f"{cls}.{name}"
        for cls, name in fields()
        if cls not in WRITTEN_WHOLE and name not in reads
    ]
    assert unread == [], f"fields that nothing reads outside the tests: {unread}"


def test_allowed_names_exist():
    quals = {qual for qual, _ in definitions()}
    assert set(ALLOWED) <= quals
    assert set(WRITTEN_WHOLE) <= quals
