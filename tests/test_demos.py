"""The demos and the README "Library" snippet run to completion.

Each runs as its own process in a fresh directory holding a copy of the
bundled catalog under data/, the layout the scripts expect when run from
the repository root; the checkout's src comes first on PYTHONPATH.
"""

import glob
import os
import re
import shutil
import subprocess
import sys

import pytest

from conftest import FIXTURE_CATALOG, REPO_ROOT

DEMOS = sorted(glob.glob(os.path.join(REPO_ROOT, "demos", "*.py")))


def readme_library_block():
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    m = re.search(r"^## Library\n.*?^```python\n(.*?)^```", text, re.M | re.S)
    assert m, "README has no python block under '## Library'"
    return m.group(1)


def run_python(args, cwd):
    (cwd / "data").mkdir()
    shutil.copy(FIXTURE_CATALOG, cwd / "data")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=cwd, env=env, timeout=300
    )


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo, tmp_path):
    r = run_python([demo], tmp_path)
    assert r.returncode == 0, r.stderr


def test_readme_library_snippet_runs(tmp_path):
    r = run_python(["-c", readme_library_block()], tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip(), "the snippet prints L(1) and the escape rate"
