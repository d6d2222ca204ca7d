"""Every script under scripts/ still loads against the program.

Each script's top level (its imports and definitions, not its main) runs
under a name other than __main__, with the script's directory first on
sys.path as `python scripts/<name>.py` has it. A src/ rename that breaks a
script's imports then fails here, in the tier-1 run, as
test_benchmark_contract.py ensures for perfbench/.
"""
import os
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_there_are_scripts():
    assert len(SCRIPTS) >= 7


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_script_top_level_loads(monkeypatch, script):
    # sys.path is a copy, restored after; so are the environment (perfbench's
    # run module, which scripts/ab.py imports, sets the BLAS thread count)
    # and sys.modules as far as the modules loaded from scripts/ and perfbench/
    monkeypatch.setattr(sys, "path", [str(script.parent), *sys.path])
    env, loaded = dict(os.environ), set(sys.modules)
    try:
        namespace = runpy.run_path(str(script), run_name="script_under_test")
    finally:
        os.environ.clear()
        os.environ.update(env)
        for name in set(sys.modules) - loaded:
            if Path(getattr(sys.modules[name], "__file__", None) or ".").parent in (ROOT / "scripts", ROOT / "perfbench"):
                del sys.modules[name]
    assert namespace["__name__"] == "script_under_test"
    assert callable(namespace["main"])
