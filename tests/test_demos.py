"""Each demo runs to completion; the demos import from the package root.

README's library example runs too, so that a change to the API it uses
fails here rather than in a reader's hands.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import scholarchain

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
#: The directory holding the package this test process imported, so that the
#: demos run the same code as the tests beside them.
PACKAGE_PARENT = Path(scholarchain.__file__).resolve().parent.parent


def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_PARENT))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    result = run_python([str(demo)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_demo_02_flips_at_one_half(tmp_path):
    result = run_python([str(ROOT / "demos" / "02_repeated_cooperation.py")], tmp_path)
    verdicts = re.findall(r"^  (0\.\d) .* (yes|no)$", result.stdout, re.MULTILINE)
    assert verdicts == [(f"0.{i}", "no" if i < 5 else "yes") for i in range(1, 10)]


def test_readme_library_example_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    result = run_python(["-c", example], tmp_path)
    assert result.returncode == 0, result.stderr
