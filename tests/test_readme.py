import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


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
