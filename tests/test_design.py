"""Checks on the package source that pin its design.

Every age-scale factor ``e_j' exp(T x) v`` comes from the one kernel in
`phasetype`; the only other matrix exponentials are the E-step's: exp(T x),
which its absorption counts need in full, and its Van Loan block. Matrix
exponentials never come from scipy. CSV text is read and written in
`dataio` alone.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "miph"


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
        func = node.func
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if called == self.name:
            self.sites.append((self.module, ".".join(self.scope)))
        self.generic_visit(node)


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def test_expm_batch_call_sites():
    sites = []
    for module, tree in _modules():
        visitor = _Calls(module, "expm_batch")
        visitor.visit(tree)
        sites += visitor.sites
    # _margin_kernels leaves once the Van Loan block's occupancies are exact
    # at large posterior weights and its top-left can give the exit counts
    assert sorted(sites) == [("estimation", "_margin_kernels"),
                             ("estimation", "e_step"),
                             ("phasetype", "_exp_factors")]


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


def test_only_dataio_imports_csv():
    importers = set()
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "csv" in names:
                importers.add(module)
    assert importers == {"dataio"}
