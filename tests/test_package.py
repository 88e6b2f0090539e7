"""Package-wide contracts: every exported name resolves, the package imports
nothing outside the standard library, and the README's library example runs
as written."""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import codeword_paradoxes


def test_every_exported_name_exists():
    modules = [codeword_paradoxes] + [
        importlib.import_module(f"codeword_paradoxes.{info.name}")
        for info in pkgutil.iter_modules(codeword_paradoxes.__path__)]
    missing = {m.__name__: [name for name in getattr(m, "__all__", ())
                            if not hasattr(m, name)]
               for m in modules}
    assert len(modules) > 10
    assert {k: v for k, v in missing.items() if v} == {}


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_package_imports_only_the_standard_library():
    sources = sorted(Path(codeword_paradoxes.__file__).parent.glob("*.py"))
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert len(sources) > 10
    assert outside == []
