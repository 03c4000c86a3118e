"""Static checks of the package source, made with ast (no linter needed).

Checks written as ``assert`` vanish under ``python -O``, so the package raises
instead; every import is used; every function and class has a caller; no
module but ``cli.py`` touches the environment; no function but ``cli.main``
writes output; no function writes into its caller's arguments; and no result
class renders itself as JSON.
"""
import ast
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
MODULES = sorted((TESTS.parent / "src" / "signject").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert unused == [], f"{path.name}: unused imports (line, name) {unused}"


def _named(node):
    """How often each name is read in node, as a variable or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_definition_has_a_caller():
    """Each top-level function and class is named in the package outside its
    own definition, exported in ``__all__`` or used by the acceptance criteria.
    oracle.py is exempt: its functions are the tests' reference implementations."""
    trees = {path.name: _tree(path) for path in MODULES}
    named = sum(map(_named, trees.values()), Counter())
    exported = next(ast.literal_eval(node.value) for node in trees["__init__.py"].body
                    if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets))
    criteria = _named(_tree(TESTS / "test_acceptance.py"))
    uncalled = [f"{name}:{node.lineno} {node.name}"
                for name, tree in trees.items() if name != "oracle.py"
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and named[node.name] == _named(node)[node.name]
                and node.name not in exported and node.name not in criteria]
    assert uncalled == [], f"defined but never called: {uncalled}"


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"], ids=lambda p: p.name)
def test_only_the_cli_reads_the_environment(path):
    """The library reads no environment variable: precision and every other
    setting arrive as parameters, and only cli.py maps the environment onto them."""
    lines = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
            alias.name in ENVIRONMENT_NAMES for alias in node.names
        ):
            lines.append(node.lineno)
    assert lines == [], f"{path.name}: environment access at lines {lines}"


OUTPUT_STREAMS = {"stdout", "stderr", "__stdout__", "__stderr__"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_cli_main_writes_output(path):
    """No function but cli.main calls print or touches sys.stdout / sys.stderr,
    so the JSON payload, the summary and the error lines have one writer."""
    tree = _tree(path)
    allowed = set()
    if path.name == "cli.py":
        main = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main")
        allowed = {id(node) for node in ast.walk(main)}
    lines = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Name) and node.id == "print":
            lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr in OUTPUT_STREAMS
              and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "sys" and any(
            alias.name in OUTPUT_STREAMS for alias in node.names
        ):
            lines.append(node.lineno)
    assert lines == [], f"{path.name}: output written outside cli.main at lines {lines}"


MUTATING_METHODS = {"append", "extend", "insert", "pop", "clear", "update", "add", "discard", "remove", "sort",
                    "reverse"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_mutates_its_arguments(path):
    """No function calls a mutating method on a parameter or assigns to a
    subscript of one, so a function's results come back in its return value.
    A parameter the function re-binds first (``grid = list(grid)``) is its own copy."""
    lines = []
    for func in ast.walk(_tree(path)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = func.args
        params = {arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if arg}
        rebound = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id in params:
                rebound[node.id] = min(rebound.get(node.id, node.lineno), node.lineno)
        for node in ast.walk(func):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATING_METHODS):
                target = node.func.value
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            else:
                continue
            if (isinstance(target, ast.Name) and target.id in params
                    and rebound.get(target.id, node.lineno) >= node.lineno):
                lines.append(node.lineno)
    assert lines == [], f"{path.name}: a parameter mutated at lines {sorted(set(lines))}"


def test_only_the_matrix_file_format_has_a_to_json_dict():
    """Results keep exact values and the CLI renders them (``cli._json_value``),
    so the one ``to_json_dict`` is RationalMatrix's: the matrix input format.
    Verdict's is the one other, for the benchmark's tamper check, and it only
    hands the verdict to ``cli._json_value``; it goes when that check reads
    the counterexample's fields."""
    found = {}
    for path in MODULES:
        tree = _tree(path)
        owner = {id(item): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                 for item in node.body}
        found.update({f"{path.name}:{owner.get(id(node), node.lineno)}": node for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "to_json_dict"})
    assert sorted(found) == ["engine.py:Verdict", "ratmat.py:RationalMatrix"]
    delegate = found["engine.py:Verdict"]
    assert ast.unparse(delegate.body[-1]) == "return _json_value(self)"
