"""Every public class, function and method of the package is named where the
program runs: in the package itself, the benchmark, pyproject.toml or
README's library example.  A classmethod counts as named only where it is
called through a class, as Class.method or cls.method: an attribute or word
of the same spelling, such as np.zeros or rng.random(), is not a use.  A name
that only tests reach is API nobody runs, and is removed rather than kept for
its tests.  Every private module-level
class and function is likewise named by the package or the benchmark: a
private route that only tests reach is code the program never runs.  An
exception class must moreover be raised by the package, or be the base of
one that is: one that is only caught or imported is never seen."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "nilclean"

# public names kept although only tests name them: {name: the reason}
ALLOWED: dict = {}


def _docstrings(tree):
    """The docstring nodes of a module and of its classes and functions."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def _uses(tree):
    """(name, line) of every identifier a module uses: names, attributes,
    imported names, keyword arguments, and the words of its strings other
    than docstrings (a benchmark table names what it wraps in strings).  An
    attribute of a plain name is also yielded with it, as "name.attr"."""
    skip = {id(node) for node in _docstrings(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
            if isinstance(node.value, ast.Name):
                yield f"{node.value.id}.{node.attr}", node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.value.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            yield from ((word, node.lineno) for word in re.findall(r"\w+", node.value))


def public_defs():
    """(path, name, first line, last line) of each public module-level class
    and function of the package and each public method of its public classes;
    a classmethod is named Class.method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                yield path, node.name, node.lineno, node.end_lineno
                defs = node.body
            else:
                defs = [node]
            for item in defs:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    classmethod = any(isinstance(d, ast.Name) and d.id == "classmethod"
                                      for d in item.decorator_list)
                    name = f"{node.name}.{item.name}" if classmethod else item.name
                    yield path, name, item.lineno, item.end_lineno


def private_defs():
    """(path, name, first line, last line) of each private module-level class
    and function of the package; a dunder such as a module's __getattr__ is
    called by Python, not named, and is not private."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name.startswith("_") \
                    and not node.name.startswith("__"):
                yield path, node.name, node.lineno, node.end_lineno


def program_uses():
    """{name: [(path, line), ...]} over every place the program runs from."""
    uses: dict = {}
    sources = [(path, path.read_text()) for folder in ("src", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    sources.append((ROOT / "README.md", re.search(r"^## Library\n+```python\n(.*?)^```", readme, re.M | re.S).group(1)))
    for path, text in sources:
        for name, line in _uses(ast.parse(text)):
            uses.setdefault(name, []).append((path, line))
    for word in re.findall(r"\w+", (ROOT / "pyproject.toml").read_text()):
        uses.setdefault(word, []).append((ROOT / "pyproject.toml", 0))
    return uses


def test_every_public_name_is_used_outside_tests():
    # an allowed name that is gone, or that the program now uses, is stale
    uses = program_uses()

    def callers(name):  # a classmethod Class.method is also called as cls.method
        method = name.partition(".")[2]
        return uses.get(name, []) + (uses.get("cls." + method, []) if method else [])

    unused = {name for path, name, first, last in public_defs()
              if all(where == path and first <= line <= last for where, line in callers(name))}
    assert sorted(unused - ALLOWED.keys()) == []
    assert sorted(ALLOWED.keys() - unused) == []


def test_every_private_name_is_used_by_the_program():
    # only the Python sources of src/ and perfbench/ count here
    uses = program_uses()
    unused = {name for path, name, first, last in private_defs()
              if all(where.suffix != ".py" or where == path and first <= line <= last
                     for where, line in uses.get(name, ()))}
    assert sorted(unused) == []


def test_every_error_class_is_raised_or_a_base_of_one():
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for node in errors.body if isinstance(node, ast.ClassDef) and not node.name.startswith("_")}
    raised = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.append(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    seen = set()
    while raised:
        name = raised.pop()
        if name in bases and name not in seen:
            seen.add(name)
            raised.extend(bases[name])
    assert sorted(bases.keys() - seen) == []
