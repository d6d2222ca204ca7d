"""Every script under scripts/ still loads against the program.

Each script's top level (its imports and definitions, not its main) runs
under a name other than __main__, with the script's directory first on
sys.path as `python scripts/<name>.py` has it. A src/ rename that breaks a
script's imports then fails here, in the tier-1 run, as
test_benchmark_contract.py ensures for perfbench/.
"""
import math
import os
import random
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_there_are_scripts():
    assert len(SCRIPTS) >= 5


def _top_level(monkeypatch, script):
    """The namespace of the script's top level, run as `script_under_test`.
    sys.path is a copy, restored after; so are the environment (perfbench's
    run module, which scripts/ab.py imports, sets the BLAS thread count)
    and sys.modules as far as the modules loaded from scripts/ and
    perfbench/."""
    monkeypatch.setattr(sys, "path", [str(script.parent), *sys.path])
    env, loaded = dict(os.environ), set(sys.modules)
    try:
        return runpy.run_path(str(script), run_name="script_under_test")
    finally:
        os.environ.clear()
        os.environ.update(env)
        for name in set(sys.modules) - loaded:
            if Path(getattr(sys.modules[name], "__file__", None) or ".").parent in (ROOT / "scripts", ROOT / "perfbench"):
                del sys.modules[name]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_script_top_level_loads(monkeypatch, script):
    namespace = _top_level(monkeypatch, script)
    assert namespace["__name__"] == "script_under_test"
    assert callable(namespace["main"])


def test_ab_prints_the_rank_interval_of_each_median_ratio(monkeypatch):
    """scripts/ab.py prints each op's 95% distribution-free interval of its
    median ratio beside the quartiles: the order statistics r_(k) and
    r_(n+1-k) of the n rounds' ratios, k the largest rank whose binomial
    coverage 1 - 2 P(Binomial(n, 1/2) < k) is at least 95% (6 at n = 20, 10
    at n = 30). Below 6 rounds no rank has it, and ab.py refuses to run."""
    namespace = _top_level(monkeypatch, ROOT / "scripts" / "ab.py")
    rank, interval = namespace["rank"], namespace["interval"]
    coverage = lambda n, k: 1 - 2 * sum(math.comb(n, i) for i in range(k)) / 2**n
    assert (rank(20), rank(30)) == (6, 10)
    for n in range(1, 101):
        k = rank(n)
        assert (k == 0 or coverage(n, k) >= 0.95) and coverage(n, k + 1) < 0.95, n
    assert [n for n in range(1, 101) if rank(n) == 0] == [1, 2, 3, 4, 5]
    assert interval(random.Random(1).sample(range(1, 21), 20)) == (6, 15)
    assert interval([1.1] * 7) == (1.1, 1.1)
    argv = [sys.executable, str(ROOT / "scripts" / "ab.py"), str(ROOT), "--workload", "scan", "--ops", "check:fourier"]
    refused = subprocess.run(argv + ["--rounds", "5"], capture_output=True, text=True, timeout=300)
    assert refused.returncode == 2 and "need at least 6" in refused.stderr
    proc = subprocess.run(argv + ["--rounds", "6"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    head, row = proc.stdout.splitlines()[1:]
    assert head.split() == ["op", "parent", "ms", "change", "ms", "ratio", "q1", "q3", "lo95", "hi95"]
    label, *cells = row.split()
    ratio, lo, hi = float(cells[2]), float(cells[-2]), float(cells[-1])
    assert label == "check:fourier" and len(cells) == 7 and 0 < lo <= ratio <= hi


# appended to a copy of pde1d.py: every run's max_residual column moves by 1
_MOVED_RESIDUAL = """

_simulate = simulate


def simulate(cfg):
    traj = _simulate(cfg)
    traj.audit["max_residual"] += 1.0
    return traj


simulate_coupled_gk = simulate
"""


# per workload op, one case of each group of scripts/same_outputs.py as it
# prints them (a library case, a CLI simulate run and the op), and the
# number of arrays of the library case
_CASES = {
    "simulate_cli": (("library Fourier0/dirichlet/100", "cli tests/data/simulate/fourier.cfg simulate",
                      "simulate_cli simulate:gk:imposed"), 9),
    "fine_grid": (("library gk_coupled/100", "cli tests/data/simulate/gk.cfg simulate",
                   "fine_grid fine:gk:coupled"), 8),
}


@pytest.mark.parametrize("workload, ops", [("simulate_cli", "gk:imposed"), ("fine_grid", "fine:gk")])
def test_ab_compares_the_outputs_of_the_two_sides(tmp_path, workload, ops):
    """An A/B of the outputs: scripts/same_outputs.py, narrowed through its
    ONLY to a library case, a CLI run and the workload's op, finds this
    checkout's outputs identical to its own (the op's written CSVs, whose
    headers hold each side's config path, among them); against a copy whose
    runs write another max_residual column, it names each of the three
    cases and exits 1."""
    cases, arrays = _CASES[workload]

    def same_outputs(parent):
        code = (f"import sys; sys.path.insert(0, {str(ROOT / 'scripts')!r}); import same_outputs; "
                f"same_outputs.ONLY = {set(cases)!r}; sys.exit(same_outputs.main([{str(parent)!r}]))")
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)

    same = same_outputs(ROOT)
    assert (same.returncode, same.stdout.splitlines()[0], same.stdout.splitlines()[-1]) == (
        0, f"library: 1 cases ({arrays} arrays)", "outputs identical"), same.stderr
    assert f"{workload}: 1 ops" in same.stdout.splitlines(), same.stdout
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "nonfourier" / "pde1d.py", "a") as fh:
        fh.write(_MOVED_RESIDUAL)
    moved = same_outputs(tmp_path)
    assert moved.returncode == 1, moved.stderr
    assert moved.stdout.splitlines()[-4:] == ["outputs differ:", *(f"  {case}" for case in cases)]
