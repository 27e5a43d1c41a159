"""Every function, method and class that perclab defines has a reader in
perclab or in the benchmark (perfbench/), not only in the tests.

A name counts as read when it occurs in the source of src/perclab or
perfbench/ anywhere other than its own definition: as a name token, or
inside a string, since the benchmark's tracer wraps names by string.
Comments do not count, and dunder names are exempt.  src/perclab/__init__.py
does not count either: a re-export is not a use."""

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
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for path in [*modules, *(ROOT / "perfbench").rglob("*.py")]:
        tokens = list(tokenize.generate_tokens(io.StringIO(path.read_text()).readline))
        for prev, tok in zip([None, *tokens], tokens):
            if tok.type == tokenize.NAME:
                defining = prev is not None and prev.string in ("def", "class")
                counts[tok.string] += 0 if defining else 1
            elif tok.type == tokenize.STRING:
                counts.update(re.findall(r"[A-Za-z_]\w*", tok.string))
    return counts


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


def test_allowed_names_exist():
    quals = {qual for qual, _ in definitions()}
    assert set(ALLOWED) <= quals
