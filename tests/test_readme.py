import ast
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "heckespecht"


def test_library_example_runs():
    # the python block of the "Library" section, statement by statement,
    # keeping the value of each bare expression
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    values = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), str(README), "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
    verdict, dim = values[:2]
    assert verdict.nonzero and verdict.lands_in_specht  # nonzero, lands in S^(2,1,1)
    assert dim == 1


def test_library_imports_only_the_standard_library():
    # "No dependencies outside the standard library": every absolute import
    # of the package names a standard module or the package itself
    allowed = set(sys.stdlib_module_names) | {"heckespecht"}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, (path.name, name)
