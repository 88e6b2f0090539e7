"""Package-wide contracts: every exported name resolves, the package imports
nothing outside the standard library, nor dataclasses, its modules keep their
import boundaries, its read-only records refuse assignment, the README's
library example runs as written, and every row of the mutation table still
applies."""

import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import codeword_paradoxes
from codeword_paradoxes.codes import five_qubit_code
from codeword_paradoxes.kochen_specker import (KSVertex,
                                               build_orthogonality_graph)
from codeword_paradoxes.paradoxes import (build_canonical_array,
                                          canonical_pentagon_instance,
                                          find_determinations)
from codeword_paradoxes.statevector import inner
from mutants import MUTANTS, ROOT, occurrences

PACKAGE = Path(codeword_paradoxes.__file__).parent

# (module, module it must not import from, names it may still import).
# The dense oracle checks the state-vector route, so it must not use it.
# Amplitudes, dense entries and inner products are integer (re, im) pairs,
# so no module imports dyadic, which is kept only for perfbench.
IMPORT_BOUNDARIES = [("dense", "statevector", ())] + [
    (path.stem, "dyadic", ()) for path in sorted(PACKAGE.glob("*.py"))
    if path.stem != "dyadic"]


def _tree(module):
    path = PACKAGE / f"{module}.py"
    return ast.parse(path.read_text(), str(path))


def _imports_from(module, source):
    """What module imports from source: its names, or "*" for the module."""
    found = []
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == source:
                found += [alias.name for alias in node.names]
            else:
                found += ["*" for alias in node.names if alias.name == source]
        elif isinstance(node, ast.Import):
            found += ["*" for alias in node.names
                      if alias.name.split(".")[-1] == source]
    return found


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


def test_package_does_not_import_dataclasses():
    # every CLI call imports the package; dataclasses would bring inspect,
    # ast, dis and tokenize with it, which no command needs
    sources = sorted(PACKAGE.glob("*.py"))
    users = [path.name for path in sources
             if _imports_from(path.stem, "dataclasses")]
    assert len(sources) > 10
    assert users == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # nor selftest and the dense oracle, which only the selftest command uses
    script = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import codeword_paradoxes.cli; "
              "print(codeword_paradoxes.cli.__file__); "
              "print(sorted({'dataclasses', 'inspect', "
              "'codeword_paradoxes.selftest', 'codeword_paradoxes.dense'} "
              "& set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", script, str(PACKAGE.parent)],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [str(PACKAGE / "cli.py"), "[]"]


def _ket_vertex():
    return KSVertex(("classical", "00000"), ((1,) + (0,) * 31,))


# (record type, a function that makes one, one of its fields) for each
# read-only record: those that were frozen dataclasses, StateVector and the
# orthogonality graph.
READ_ONLY_RECORDS = [
    ("CodeDefinition", five_qubit_code, "name"),
    ("StabilizerElement", lambda: five_qubit_code().generators[0], "sign0"),
    ("Determination",
     lambda: find_determinations(five_qubit_code().group(), 1, "X")[0],
     "predicted_product"),
    ("ParityInstance", lambda: canonical_pentagon_instance(five_qubit_code()),
     "members"),
    ("OperatorArray", build_canonical_array, "rows"),
    ("KSVertex", _ket_vertex, "scale_exp"),
    ("OrthogonalityGraph", lambda: build_orthogonality_graph([_ket_vertex()]),
     "adj"),
    ("StateVector", lambda: five_qubit_code().codeword(0), "support"),
]


@pytest.mark.parametrize("name, build, field", READ_ONLY_RECORDS,
                         ids=[name for name, _, _ in READ_ONLY_RECORDS])
def test_read_only_records_refuse_assignment(name, build, field):
    record = build()
    assert type(record).__name__ == name
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    assert getattr(record, field) is value


@pytest.mark.parametrize("module, source, allowed", IMPORT_BOUNDARIES,
                         ids=[f"{m}-{s}" for m, s, _ in IMPORT_BOUNDARIES])
def test_import_boundary(module, source, allowed):
    assert set(_imports_from(module, source)) <= set(allowed)


def test_inner_returns_a_plain_tuple():
    code = five_qubit_code()
    v0, v1 = code.codeword(0), code.codeword(1)
    assert type(inner(v0, v1)) is tuple
    assert inner(v0, v1) == (0, 0) and inner(v1, v1) == (code.norm2, 0)


def test_every_mutant_applies_once_and_names_existing_tests():
    # the runner itself, python tests/mutants.py, takes a pytest run per row
    assert {m.old: occurrences(m) for m in MUTANTS} == {m.old: 1
                                                        for m in MUTANTS}
    assert all((ROOT / test.split("::")[0]).is_file()
               for m in MUTANTS for test in m.tests)
