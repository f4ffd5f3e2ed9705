"""The package's public surface, and the demos that use it.

The ccfmap root exports exactly the names its callers import from it:
the README's library example, the demos and the benchmark scripts. A
root name that nothing imports fails here, and so does a caller that
imports a name the root no longer has. raster_io stays free of the
forest, so the model file has one owner, model_io; the forest and the
pipeline stay free of raster_io, as they read every raster through its
window; and the README names the model format version the code writes.
A command loads only the modules it uses: the pool machinery when it
forks a pool, and the root only the modules of the names taken from it.
"""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import ccfmap
from ccfmap import forest
from ccfmap.cli import main

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


def _imported_modules(filename: str) -> set[str]:
    pairs = _from_imports((ROOT / "src" / "ccfmap" / filename).read_text(), "ccfmap")
    return {module for module, _ in pairs} | {f"{m}.{name}" for m, name in pairs}


def test_raster_io_imports_neither_the_forest_nor_the_model_file():
    assert not _imported_modules("raster_io.py") & {"ccfmap.forest", "ccfmap.model_io"}
    # and the rasters' consumers take any raster by its window, not by its class
    for name in ("forest.py", "pipeline.py"):
        assert "ccfmap.raster_io" not in _imported_modules(name), name


def test_readme_names_the_model_format_version():
    # the next format bump cannot leave the README's model paragraph behind
    paragraphs = [" ".join(p.split()) for p in (ROOT / "README.md").read_text().split("\n\n")]
    [models] = [p for p in paragraphs if p.startswith("Models are")]
    assert f'`format_version` "{forest.MODEL_FORMAT_VERSION}"' in models


def _in_fresh_process(code: str) -> str:
    """The last stdout line of code, run by a new interpreter on src/."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("CCF_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _loaded_after(code: str, prefix: str) -> list[str]:
    """The modules named prefix or prefix.* that are loaded once code has run."""
    return json.loads(_in_fresh_process(
        f"import json, sys\n{code}\n"
        f"print(json.dumps(sorted(m for m in sys.modules if (m + '.').startswith({prefix!r} + '.'))))"
    ))


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """A 64^2 scene, and a model trained on it, written in this process."""
    out = tmp_path_factory.mktemp("session")
    assert main(["synth", "--seed", "4", "--out", str(out / "scene")]) == 0
    assert main(["train", "--raster", str(out / "scene" / "raster.json"),
                 "--mask", str(out / "scene" / "mask.json"), "--trees", "2",
                 "--out", str(out / "model.ccf.json"), "--no-eval"]) == 0
    return out


@pytest.mark.parametrize("command", ["synth", "predict", "evaluate"])
def test_command_that_forks_no_pool_loads_no_pool_machinery(session, tmp_path, command):
    scene = session / "scene"
    argv = {
        "synth": ["synth", "--out", str(tmp_path / "scene")],
        # 64^2 pixels, below forest._FANOUT_FLOOR: predicted in-process
        "predict": ["predict", "--model", str(session / "model.ccf.json"),
                    "--raster", str(scene / "raster.json"),
                    "--out-mask", str(tmp_path / "pred"), "--out-prob", str(tmp_path / "prob")],
        "evaluate": ["evaluate", "--pred", str(scene / "mask.json"),
                     "--truth", str(scene / "mask.json"), "--out", str(tmp_path / "r.json")],
    }[command]
    code = f"from ccfmap.cli import main\nassert main({argv!r}) == 0"
    assert _loaded_after(code, "concurrent") == []
    assert os.listdir(tmp_path)  # the command wrote its outputs


def test_importing_the_root_loads_no_submodule():
    assert _loaded_after("import ccfmap", "ccfmap") == ["ccfmap"]


def test_a_name_from_the_root_loads_only_its_module_and_imports():
    loaded = _loaded_after("from ccfmap import generate_scene", "ccfmap")
    assert "ccfmap.raster_io" in loaded
    assert not {"ccfmap.forest", "ccfmap.model_io"} & set(loaded)


def test_root_names_are_the_modules_objects_whatever_was_imported_first():
    # importing the submodule ccfmap.cca first binds it to the package's
    # name cca, which the root keeps for the function
    assert _in_fresh_process(
        "import ccfmap.cli\n"
        "from ccfmap import cca\n"
        "print(cca.__module__, cca.__name__, callable(cca))"
    ) == "ccfmap.cca cca True"
    assert _in_fresh_process(
        "import ccfmap.forest, sys\n"
        "from ccfmap import *\n"
        "import ccfmap\n"
        "print(all(globals()[n] is getattr(ccfmap, n) is getattr(sys.modules[f'ccfmap.{m}'], n)\n"
        "          for n, m in ccfmap._HOME.items()))"
    ) == "True"
