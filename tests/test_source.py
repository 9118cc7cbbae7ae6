"""The package source carries no dead imports, no dead private helpers and
no call into numpy's BLAS, and a run imports no numpy module and starts no
BLAS thread it does not need.

pyflakes and ruff are not dependencies, so the checks walk the syntax
trees: every name a `src/lflow` module binds by an import must be read
somewhere in that module, and every private name a module defines at top
level must be read somewhere in `src/lflow`.
"""

import ast
import glob
import importlib
import os
import runpy
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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private non-dunder names that a module defines at top level and
    that no module reads: as a name, an attribute or an imported name."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{name}: {d}" for d in defined
                       if d.startswith("_") and not d.startswith("__") and d not in read]
    return unread


def test_unread_private_names_are_found():
    sources = {"a": "_X, _Y = 1, 2\n__v__ = 0\ndef _f(): return _X\nclass _C: pass\n",
               "b": "from a import _C\nimport a\na._f()\n"}
    assert unread_private_names(sources) == ["a: _Y"]


def test_package_reads_every_private_name_it_defines():
    sources = {}
    for module in MODULES:
        with open(module, encoding="utf-8") as fh:
            sources[os.path.basename(module)] = fh.read()
    assert unread_private_names(sources) == []


# numpy routines that hand their work to BLAS (np.linalg, and polyfit, cov
# and corrcoef through it); einsum does too when asked to optimize
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "linalg", "polyfit", "cov", "corrcoef"}


def blas_calls(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "einsum":
            if any(k.arg == "optimize" for k in node.keywords):
                found.append((node.lineno, "einsum(optimize=)"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_blas_calls_are_found():
    source = "a @ b\nc @= d\nnp.linalg.norm(x)\nx.dot(y)\nnp.einsum('ij,jk', a, b, optimize=True)\n" \
             "np.einsum('ij,jk', a, b)\nnp.add(a, b)\n"
    assert blas_calls(source) == ["line 1: @", "line 2: @", "line 3: linalg", "line 4: dot",
                                  "line 5: einsum(optimize=)"]


@pytest.mark.parametrize("module", MODULES, ids=os.path.basename)
def test_module_calls_no_blas(module):
    # the CLI caps OpenBLAS at one thread on this premise (see cli.py)
    with open(module, encoding="utf-8") as fh:
        assert blas_calls(fh.read()) == []


def test_source_size_leaves_comments_and_blank_lines_out_of_the_tokens(tmp_path):
    source_size = runpy.run_path(os.path.join(REPO_ROOT, "tools", "source_size.py"))["source_size"]
    path = tmp_path / "m.py"
    path.write_text('a = 1  # note\n\n# alone\ndef f():\n    """doc"""\n')
    # a = 1 NEWLINE (4), def f ( ) : NEWLINE (6), INDENT "doc" NEWLINE DEDENT (4), ENDMARKER
    assert source_size(path) == (5, 15)


def test_every_perfbench_trace_point_resolves():
    # the bench's tracer patches lflow names by module and attribute, and a
    # name it cannot find reads 0 in every traced run instead of failing it
    patches = runpy.run_path(os.path.join(REPO_ROOT, "perfbench", "tracer.py"))["PATCHES"]
    missing = []
    for owner_path, attr, _ in patches:
        module, *names = owner_path.split(".")
        target = importlib.import_module(f"lflow.{module}")
        for name in [*names, attr]:
            target = getattr(target, name, None)
        if not callable(target):
            missing.append(f"{owner_path}.{attr}")
    assert patches and missing == []


def test_perfbench_selftest_passes():
    # a tiny pass of every workload through the bench harness, traced and
    # not; no bytecode is written, so perfbench/ stays as it is checked in
    r = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")], cwd=REPO_ROOT,
                       env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"), capture_output=True, text=True,
                       timeout=600)
    assert r.returncode == 0, r.stdout[-2000:] + r.stderr[-2000:]


def lflow_env() -> dict:
    """This process's environment, with the checkout's src first on the path."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), os.environ.get("PYTHONPATH")])))


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
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=lflow_env(),
                       cwd=tmp_path, timeout=300)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "[]"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the thread count from /proc")
def test_cli_caps_the_openblas_pool_unless_the_user_set_it():
    # numpy's OpenBLAS starts its worker threads at import, and they spin
    # for BLAS work that lflow never sends
    script = """
import os
import lflow.cli
threads = [ln.split()[1] for ln in open("/proc/self/status") if ln.startswith("Threads:")]
print(threads[0], os.environ.get("OPENBLAS_NUM_THREADS"))
"""

    def threads_and_setting(env):
        r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
        assert r.returncode == 0, r.stderr
        return r.stdout.split()

    unset = lflow_env()
    unset.pop("OPENBLAS_NUM_THREADS", None)
    assert threads_and_setting(unset) == ["1", "1"]
    assert threads_and_setting(dict(unset, OPENBLAS_NUM_THREADS="2"))[1] == "2"
