"""The package source carries no dead imports, and a run imports no
numpy module it does not need.

pyflakes and ruff are not dependencies, so the check walks each module's
syntax tree: every name a `src/lflow` module binds by an import must be
read somewhere in that module.
"""

import ast
import glob
import os
import subprocess
import sys

import pytest

from conftest import FIXTURE_CATALOG, REPO_ROOT

MODULES = sorted(glob.glob(os.path.join(REPO_ROOT, "src", "lflow", "*.py")))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a import b as c, d\nos.sep\nd()\n") == ["line 2: c"]


@pytest.mark.parametrize("module", MODULES, ids=os.path.basename)
def test_module_uses_every_name_it_imports(module):
    with open(module, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_runs_keep_numpy_ma_out_of_the_process(tmp_path):
    # np.unique and other set routines import numpy.ma, which costs about
    # 1.3 MB of resident memory and 10 ms per process
    script = f"""
import sys
from lflow import cli
flags = ["--catalog", {FIXTURE_CATALOG!r}, "--cache-dir", {str(tmp_path / "cache")!r}]
assert cli.main(["reproduce", "--preset", "smoke", "-o", {str(tmp_path / "out")!r}, *flags]) == 0
assert cli.main(["render", "11a1", "--width", "16", "--height", "12",
                 "-o", {str(tmp_path / "11a1.pgm")!r}, *flags]) == 0
print(sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "ma"]))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                       cwd=tmp_path, timeout=300)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "[]"
