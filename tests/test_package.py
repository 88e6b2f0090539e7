"""Package-wide contracts: every exported name resolves, and the README's
library example runs as written."""

import importlib
import pkgutil
import re
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
