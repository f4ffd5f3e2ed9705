"""The package's public surface, and the demos that use it.

The ccfmap root exports exactly the names its callers import from it:
the README's library example, the demos and the benchmark scripts. A
root name that nothing imports fails here, and so does a caller that
imports a name the root no longer has. raster_io stays free of the
forest, so the model file has one owner, model_io.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

import ccfmap

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
CALLERS = [*DEMOS, ROOT / "perfbench" / "inputs.py", ROOT / "perfbench" / "run.py"]


def _from_imports(source: str, package: str = "") -> set[tuple[str, str]]:
    """(module, name) for each name a from-import in source takes;
    package resolves relative imports."""
    pairs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, [package if node.level else "", node.module]))
            pairs |= {(module, alias.name) for alias in node.names}
    return pairs


def _readme_python() -> str:
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    return "\n".join(blocks)


def test_root_exports_exactly_what_callers_import():
    sources = [_readme_python(), *(path.read_text() for path in CALLERS)]
    from_root = {name for source in sources
                 for module, name in _from_imports(source) if module == "ccfmap"}
    assert len(ccfmap.__all__) == len(set(ccfmap.__all__))
    assert set(ccfmap.__all__) == from_root | {"__version__"}
    for name in ccfmap.__all__:
        assert hasattr(ccfmap, name), name


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_raster_io_imports_neither_the_forest_nor_the_model_file():
    pairs = _from_imports((ROOT / "src" / "ccfmap" / "raster_io.py").read_text(), "ccfmap")
    imported = {module for module, _ in pairs} | {f"{m}.{name}" for m, name in pairs}
    assert not imported & {"ccfmap.forest", "ccfmap.model_io"}
