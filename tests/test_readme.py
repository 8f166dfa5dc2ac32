import ast
import sys
from pathlib import Path

from heckespecht import cli

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


def test_command_lines_run(readme_commands, tmp_path, monkeypatch, capsys):
    # each line of the Command line block, in a fresh directory; the
    # cp-verify --hom-json line reads the map.json that the JSON cp-map
    # line writes
    monkeypatch.chdir(tmp_path)
    cp_map = next(argv for argv in readme_commands if argv[:3] == ["--format", "json", "cp-map"])
    assert cli.main(cp_map) == 0
    (tmp_path / "map.json").write_text(capsys.readouterr().out, encoding="utf-8")
    assert any("--hom-json" in argv for argv in readme_commands)
    for argv in readme_commands:
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().err == "", argv


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
