import ast
import dataclasses
import importlib
import json
import subprocess
import sys
from pathlib import Path

import wignerlab
from wignerlab import kernels, montecarlo, oracles, sampling


def test_exports_are_the_modules_public_names():
    modules = (kernels, sampling, montecarlo, oracles)
    names = [name for module in modules for name in module.__all__]
    assert wignerlab.__all__ == [*names, "__version__"]
    assert len(set(names)) == len(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(wignerlab, name) is getattr(module, name)
    assert wignerlab.check_state is montecarlo.check_state


def _fresh_interpreter(code: str):
    """Run ``code`` in a new interpreter with this one's environment, PYTHONPATH
    included, and decode the JSON on the last line it prints."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_scipy_free_commands_load_no_scipy():
    """scipy loads only on the beta route, so these commands start without it."""
    commands = [["oracle", "--limit"], ["oracle", "--n", "64", "--random", "3"],
                ["oracle", "--clt", "1"], ["oracle", "--clt", "5", "--tol", "1e-8"],
                ["kernel", "--n", "8", "--two-block", "1"],
                ["estimate", "--n", "8", "--two-block", "1", "--trials", "1000", "--seed", "1"]]
    loaded = _fresh_interpreter(f"""
import json, sys
import wignerlab, wignerlab.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))
loaded = [["import", 0, scipy_modules()]]
for argv in {commands!r}:
    code = wignerlab.cli.main(argv)
    loaded.append([" ".join(argv), code, scipy_modules()])
print(json.dumps(loaded))
""")
    assert loaded == [["import", 0, []]] + [[" ".join(argv), 0, []] for argv in commands]


def test_deferred_scipy_imports_resolve_on_first_call():
    """A fresh process's first beta answer, the one route that defers its scipy
    import to the first call, matches this process's field for field, as does its
    first CLT answer, which needs no scipy."""
    first = _fresh_interpreter("""
import dataclasses, json
from wignerlab import clt_probability, two_block_exact
print(json.dumps([dataclasses.astuple(two_block_exact(8, 1)),
                  dataclasses.astuple(clt_probability(1.0))]))
""")
    here = [oracles.two_block_exact(8, 1), oracles.clt_probability(1.0)]
    assert [tuple(result) for result in first] == [dataclasses.astuple(r) for r in here]
    assert [r.method for r in here] == ["beta-closed-form", "clt-quadrature"]


def test_only_the_beta_route_loads_scipy():
    """The CF, CLT and limit routes run without scipy; the beta call alone loads
    scipy.special, and nothing loads scipy.integrate."""
    loaded = _fresh_interpreter("""
import json, sys
from wignerlab import (cf_inversion_exact, clt_probability, limit_quantumness,
                       two_block_exact, two_block_spectrum)
calls = [("cf", lambda: cf_inversion_exact(two_block_spectrum(8, 1))),
         ("clt", lambda: clt_probability(2.0)), ("limit", limit_quantumness),
         ("beta", lambda: two_block_exact(8, 1)), ("clt again", lambda: clt_probability(5.0))]
loaded = []
for name, call in calls:
    call()
    loaded.append([name, "scipy.special" in sys.modules, "scipy.integrate" in sys.modules])
print(json.dumps(loaded))
""")
    assert loaded == [["cf", False, False], ["clt", False, False], ["limit", False, False],
                      ["beta", True, False], ["clt again", True, False]]


def _resolve(dotted: str, attr: str | None = None) -> bool:
    """Whether ``dotted`` names a wignerlab module, or one of its attributes, or
    a submodule of the package: ``attr`` read from that module."""
    module = importlib.import_module(dotted)
    if attr is None or hasattr(module, attr):
        return True
    try:
        importlib.import_module(f"{dotted}.{attr}")
    except ModuleNotFoundError:
        return False
    return True


def test_benchmark_names_resolve():
    """Every wignerlab name the benchmark imports, or patches with ``tracer.wrap``,
    exists; the benchmark's sources are only read."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    needed = []
    for source in ("run.py", "workloads.py"):
        for node in ast.walk(ast.parse((bench / source).read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("wignerlab"):
                needed += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                needed += [(a.name, None) for a in node.names if a.name.startswith("wignerlab")]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "wrap"):
                module, attr = node.args[:2]
                needed.append((ast.unparse(module), attr.value))
    assert ("wignerlab", "row_energies_batch") in needed
    assert ("wignerlab.montecarlo", "estimate_global") in needed
    assert [pair for pair in needed if not _resolve(*pair)] == []
