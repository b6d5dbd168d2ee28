"""Checks on the package source that pin its design.

Every exp(T x) is taken in `phasetype._exponentials`, once per distinct x,
and every factor ``e_j' exp(T x) v`` comes from `phasetype._exp_factors`,
the E-step's evidence included; the E-step's absorption counts contract the
same exponentials, carriers of shared Taylor powers and per-x weights that
hold p x p matrices for squared rows alone. One evidence helper takes them
for the E-step, the value pass and the EM start. Each E-step, value pass
and I-step evaluation takes its own: they share x bit for bit, but no
exponentials pass from one step to the next. The E-step's occupancy
integrals over the rows a carrier does not square are its Fréchet sums,
from the same powers and weights, one call per margin for every direction.
The only other matrix exponential is the Fréchet derivative of the squared
rows. Its kernel, private to `linalg`, takes the E-step's shape, one T, the
times, the table of directions with each row's number into it and the
posterior rows, the same direction rule as the carrier sums; it builds each
row block's pairs itself, so no (n, p, p) input stack is formed, and
returns the derivative alone. Until ROADMAP E1 the posterior weights set
that derivative's scaling, so the exp(T x) it carries cannot stand in: on
general structures it is 8.8e-5 off at weights near 4e10, and with one
couple censored at 600 times the mean a margin's occupancies sum to 99.3
where its operational times sum to 304.8. The exponential takes the powers
of one T per call and runs no row blocks. One Padé-13 table serves the
Fréchet kernel alone, read in its per-block kernel. `linalg` exports the
exponential alone, as the package's linear systems go to numpy's solve.
`linalg` alone starts threads, on a pool that each Fréchet call opens and
joins; no module keeps state in a ``global`` or hooks ``fork``. No module
imports scipy, so matrix exponentials never come from it.
One EM iteration is `estimation._em_step`, a map from one model to the
next: it alone runs the E-, R-, M- and I-steps, `fit` alone calls it, and
`fit` carries nothing else from one iteration to the next. The E-step
values the model it starts from, so `fit` takes the trace from the E-steps
and makes one value pass, `observed_loglik` of its last model; the I-step's
trials are the only other likelihood evaluations.
CSV text is read and written in `dataio` alone. Every keyword-only option
of a package function is set by some caller outside the tests; one that no
caller sets is a module constant. A public name is listed in its own
module's ``__all__`` alone and is used outside the tests, and every CLI
option is read by its command.
"""

import argparse
import ast
import importlib
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import miph
from miph import dataio, estimation, exceptions, model, phasetype
from miph.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "miph"


def _called(call):
    """The called name of an ``ast.Call``: ``f`` in ``f(...)`` and ``m.f(...)``."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


class _Calls(ast.NodeVisitor):
    """Records (module, enclosing function) for each call of ``name``."""

    def __init__(self, module: str, name: str):
        self.module, self.name = module, name
        self.scope: list[str] = []
        self.sites: list[tuple[str, str]] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        if _called(node) == self.name:
            self.sites.append((self.module, ".".join(self.scope)))
        self.generic_visit(node)


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _call_sites(name):
    sites = []
    for module, tree in _modules():
        visitor = _Calls(module, name)
        visitor.visit(tree)
        sites += visitor.sites
    return sorted(sites)


def test_linalg_exports_the_exponential_alone():
    """`linalg` holds the kernels numpy lacks and exports the exponential
    alone; the Fréchet row kernel is private to the E-step, and the
    package's linear systems go to ``np.linalg.solve`` directly."""
    assert importlib.import_module("miph.linalg").__all__ == ["expm_batch"]


def test_expm_batch_call_sites():
    """The E-step alone takes occupancy integrals: one carrier sum per
    margin over the rows it does not square, every direction in one call,
    and the Fréchet row kernel on the squared rows."""
    assert _call_sites("expm_batch") == [("phasetype", "_exponentials")]
    assert _call_sites("frechet_sum") == [("estimation", "e_step")]
    assert _call_sites("_frechet_rows") == [("estimation", "e_step")]


def test_exponentials_call_sites():
    """Estimation exponentiates in its evidence helper alone; `phasetype`
    in its age-scale factor kernel, which the I-step's likelihood and every
    density and survival of the model layer go through."""
    assert _call_sites("_exponentials") == [
        ("estimation", "_evidence"), ("phasetype", "_age_factors")]


def test_em_step_call_sites():
    """The four steps run in `_em_step` alone and `fit` alone loops it. One
    evidence helper serves the E-step, the value pass and the EM start; the
    I-step's trials alone run the age-scale likelihood with derivatives, and
    `fit` makes its one value pass after the last iteration."""
    for step in ("e_step", "r_step", "m_step", "i_step"):
        assert _call_sites(step) == [("estimation", "_em_step")], step
    assert _call_sites("_em_step") == [("estimation", "fit")]
    assert _call_sites("_evidence") == [
        ("estimation", "_initial_sub_intensities"), ("estimation", "e_step"),
        ("estimation", "observed_loglik")]
    assert _call_sites("_age_scale_loglik") == [("estimation", "i_step.evaluate")]
    assert _call_sites("observed_loglik") == [("estimation", "fit")]
    assert _call_sites("_log_jacobian") == [
        ("estimation", "_em_step"), ("estimation", "observed_loglik")]


def test_fit_carries_one_model_between_iterations():
    """`fit`'s loop binds the model `_em_step` returns, the model it started
    from and that model's value alone: no rates, coefficients, start vectors
    or transforms pass outside it."""
    tree = dict(_modules())["estimation"]
    body = next(fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "fit")
    loop = next(node for node in ast.walk(body) if isinstance(node, ast.For))
    bound = {node.id for node in ast.walk(loop)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert bound == {"it", "model", "following", "ll"}


def test_only_linalg_and_phasetype_bind_expm_batch():
    """A tracer that wraps ``expm_batch`` where it is looked up needs to
    wrap it in these two modules only."""
    binders = [module for module, _ in _modules() if module != "__init__"
               and hasattr(importlib.import_module(f"miph.{module}"), "expm_batch")]
    assert binders == ["linalg", "phasetype"]


def test_expm_batch_runs_no_row_blocks():
    """The exponential is one stack of products against shared powers, which
    BLAS runs; only the per-row Fréchet kernel cuts its rows into blocks, on
    the one pool the package opens."""
    assert _call_sites("ThreadPoolExecutor") == [("linalg", "_frechet_rows")]


def test_one_pade_table_behind_the_frechet_kernel_only():
    tree = dict(_modules())["linalg"]
    tables = [node for node in ast.walk(tree) if isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "_PADE13" for t in node.targets)]
    assert len(tables) == 1
    readers = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
               and any(isinstance(node, ast.Name) and node.id == "_PADE13"
                       for node in ast.walk(fn))}
    assert readers == {"_pade13_uv"}
    assert _call_sites("_pade13_uv") == [("linalg", "_expm_frechet_block")]
    b0 = tables[0].value.elts[0].value
    for module, tree in _modules():
        copies = [node for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value == b0]
        assert len(copies) == (module == "linalg"), module


def _importers(name):
    """Modules that import ``name`` or a submodule of it."""
    importers = set()
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == name or n.startswith(name + ".") for n in names):
                importers.add(module)
    return importers


def test_only_linalg_runs_threads():
    """The row blocks of the Fréchet kernel are the package's only parallel
    work of its own, on a pool that `linalg` opens for one call and joins
    before the call returns: no module takes a lock or starts a thread of
    its own."""
    assert _importers("concurrent") == {"linalg"}
    assert _importers("threading") == set()


def test_no_module_keeps_state_between_calls():
    """No module rebinds a global or registers a fork hook, and `linalg`
    keeps no pool: each split call opens its own."""
    for module, tree in _modules():
        for node in ast.walk(tree):
            assert not isinstance(node, ast.Global), (module, node.lineno)
            assert not (isinstance(node, ast.Call)
                        and _called(node) == "register_at_fork"), (module, node.lineno)
    assert not hasattr(importlib.import_module("miph.linalg"), "_pool")


def test_no_module_imports_scipy():
    """The package runs on numpy alone; scipy serves the tests and demo 01."""
    assert _importers("scipy") == set()


def test_no_module_uses_scipy_linalg():
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            assert not any(n == "scipy.linalg" or n.startswith("scipy.linalg.")
                           for n in names), (module, names)


def test_package_runs_without_scipy(tmp_path):
    """With scipy unimportable, the package simulates censored data, fits it
    and runs all five CLI subcommands: numpy is its only runtime
    dependency."""
    model_path = ROOT / "demos" / "models" / "spousal_reference.json"
    script = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None  # any import of scipy now raises
        import numpy as np
        import miph
        from miph import cli

        def sampler(rng, n):
            return np.ones((n, 1))

        rng = np.random.default_rng(3)
        sub = miph.random_sub_intensity(miph.transition_mask("coxian", 2), rng)
        model = miph.MIPHModel((miph.Margin(sub, miph.GompertzTransform(2.0)),) * 2,
                               fixed_pi=np.array([0.3, 0.7]))
        obs = miph.generate_synthetic(model, sampler, 0.2, 200, seed=5)
        assert 0 < obs.delta.sum() < obs.delta.size
        config = miph.FitConfig(p=2, max_iterations=2, loglik_tolerance=None)
        assert miph.fit(obs, config).iterations == 2
        model_path, out = {str(model_path)!r}, {str(tmp_path)!r}
        for argv in (
            ["simulate", model_path, "--n", "300", "--ages", "63,63",
             "--censoring-rate", "0.2", "--seed", "1", "--output", out + "/sim.csv"],
            ["fit", out + "/sim.csv", "--p", "2", "--iterations", "2", "--tolerance", "0",
             "--output", out + "/fit"],
            ["measures", model_path, "--ages", "63,63", "--output", out + "/m.csv"],
            ["eval", model_path, "--ages", "63,63", "--grid", "0:40:5",
             "--output", out + "/e.csv"],
            ["beran", out + "/sim.csv", "--ages", "63,63", "--output", out + "/b.csv"],
        ):
            assert cli.main(argv) == 0, argv
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "m.csv").read_text(encoding="utf-8").startswith("measure,")
    assert (tmp_path / "e.csv").read_text(encoding="utf-8").startswith("time1,")
    assert (tmp_path / "b.csv").exists() and (tmp_path / "fit" / "model.json").exists()


def test_only_dataio_imports_csv():
    assert _importers("csv") == {"dataio"}


def test_every_keyword_only_option_is_set_outside_the_tests():
    """An option that no caller in the package, the demos or the benchmark
    sets is a module constant, not a parameter."""
    options = {(fn.name, arg.arg)
               for _, tree in _modules() for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) for arg in fn.args.kwonlyargs}
    passed = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"),
                 *(ROOT / "bench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                passed |= {(_called(node), kw.arg) for kw in node.keywords}
    assert options <= passed, sorted(options - passed)


def test_public_names_are_listed_once_in_their_module():
    """``miph.__all__`` is the five modules' lists, one after the other:
    a name is made public in its own module alone."""
    modules = (dataio, estimation, exceptions, model, phasetype)
    names = [name for module in modules for name in module.__all__]
    assert miph.__all__ == [*names, "__version__"]
    assert len(set(miph.__all__)) == len(miph.__all__)
    assert [name for name in miph.__all__ if not hasattr(miph, name)] == []


class _Uses(ast.NodeVisitor):
    """Names read as ``name`` or ``x.name``, except inside a definition of
    that same name."""

    def __init__(self):
        self.scope: list[str] = []
        self.names: set[str] = set()

    def _define(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_ClassDef = _define

    def visit_Name(self, node):
        if node.id not in self.scope:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self.scope:
            self.names.add(node.attr)
        self.generic_visit(node)


def test_every_public_name_is_used_outside_the_tests():
    """A public function or class that only the tests call is a wrapper to
    delete, its tested property moved to the code that survives. A use is
    a read in the package, the demos or the benchmark, or a name in the
    README's code, fenced or inline."""
    uses = _Uses()
    for path in [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"),
                 *(ROOT / "bench").glob("*.py")]:
        uses.visit(ast.parse(path.read_text(encoding="utf-8")))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for code in re.findall(r"```.*?```|`[^`\n]+`", readme, flags=re.S):
        uses.names |= set(re.findall(r"\w+", code))
    public = [name for name in miph.__all__ if name != "__version__"]
    assert [name for name in public if name not in uses.names] == []


def test_every_cli_option_is_read_by_its_command():
    """Each option of a subcommand is read as ``args.<dest>`` in the
    ``_cmd_*`` function that runs it: no option is settable and ignored."""
    tree = dict(_modules())["cli"]
    commands = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        handler = commands[sub.get_default("func").__name__]
        read = {node.attr for node in ast.walk(handler)
                if isinstance(node, ast.Attribute)
                and getattr(node.value, "id", None) == "args"}
        options = {action.dest for action in sub._actions} - {"help", "func", "command"}
        assert options <= read, (name, sorted(options - read))
