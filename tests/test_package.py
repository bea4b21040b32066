"""The package's public surface: every exported name resolves, the export
list is sorted and unique, names the package no longer offers stay gone,
no module imports a name it never uses or defines a private name nothing
reads, only gf_core raises SizeBudgetExceeded, the README's library example
runs, and dropping the package's modules frees every tower it built.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import permrf
from permrf import bivariate, errors, gf_core, linmaps

ROOT = Path(__file__).resolve().parent.parent

# Each was a second route to something the package keeps: the tower's
# frob_enc, trace_rel_enc, trace_enc, norm_enc, in_subfield_enc and
# top.inv, and the Element wrapper around the integer encodings every
# function takes; or the degree 2 twist, which no report checked; or
# the matrix-to-coefficients route that invert_lin no longer takes; or
# the coefficient-wise trace, which the curves now take inline.
DROPPED = ("frobenius", "trace_rel", "trace", "norm", "invert",
           "is_in_subfield", "Element", "TwistedForm", "remark2_transform",
           "eval_twisted", "is_permutation_twisted", "from_matrix",
           "trace_poly")

# Reached by nothing but tests: the LinearizedPoly and BivarPoly
# constructors, eval_enc, apply_sigma(f, 1) == f, tower.top, tower.mid,
# tower.base and range(tower.size) do each job; the prime field's neg and
# pow, and the text of a linear map, had no job.  The grid sums and
# products the curves were built from, and the field scan and memo behind
# the factor search, gave way to one conjugate product.  trace_decompose
# reads coordinates off echelon pivots, so no basis is completed, and the
# dual basis lives in linmaps alone.
DROPPED_ATTRS = (
    (linmaps, ("from_matrix", "complete_basis")),
    (gf_core, ("dual_basis",)),
    (linmaps.LinearizedPoly, ("zero", "scaling", "frobenius_power",
                              "__call__", "pretty")),
    (gf_core._PrimeField, ("neg", "pow")),
    (bivariate, ("constant", "add", "neg", "sub", "scalar_mul",
                 "trace_poly", "_charpoly_roots", "_shifted_product",
                 "_quartic_product")),
    (bivariate.BivarPoly, ("is_fq_stable",)),
    (permrf.FieldTower, ("ops", "elements")),
)


def test_all_names_resolve_sorted_and_unique():
    for name in permrf.__all__:
        assert hasattr(permrf, name), name
    assert permrf.__all__ == sorted(permrf.__all__)
    assert len(set(permrf.__all__)) == len(permrf.__all__)


def test_dropped_names_stay_gone():
    for name in DROPPED:
        assert not hasattr(permrf, name), name
        assert name not in permrf.__all__
    assert not hasattr(errors, "BadAlpha")
    for owner, names in DROPPED_ATTRS:
        for name in names:
            assert name not in vars(owner), (owner, name)


def _unused_imports(source):
    """Names a module imports and never reads; __all__ counts as a read."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    paths = sorted((ROOT / "src" / "permrf").glob("*.py"))
    assert paths
    unused = {path.name: _unused_imports(path.read_text()) for path in paths}
    assert {name: found for name, found in unused.items() if found} == {}


def test_unused_import_check_sees_one():
    assert _unused_imports("from functools import partial, reduce\n"
                           "reduce\n") == [(1, "partial")]
    assert _unused_imports("import os\n__all__ = ['os']\n") == []


def _defined_private_names(tree):
    """The _-prefixed names of a module's functions, classes, assignments
    and class methods, dunder names left out."""
    for node in tree.body:
        names = []
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body
                      if isinstance(item, ast.FunctionDef)]
        yield from (name for name in names
                    if name.startswith("_") and not name.endswith("__"))


def _unread_private_names(sources):
    """(module, name) for each private name some module defines and no
    module reads, as a variable, an attribute or an imported name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted((module, name) for module, tree in trees.items()
                  for name in _defined_private_names(tree)
                  if name not in read)


def test_no_unread_private_names():
    paths = sorted((ROOT / "src" / "permrf").glob("*.py"))
    assert paths
    assert _unread_private_names(
        {path.name: path.read_text() for path in paths}) == []


def test_unread_private_name_check_sees_them():
    source = ("def _used():\n    pass\n\n"
              "def _dead():\n    pass\n\n"
              "class _Box:\n"
              "    def __init__(self):\n        self._slot = _used()\n\n"
              "    def _peek(self):\n        pass\n\n"
              "_TABLE = {}\n")
    assert _unread_private_names({"m.py": source}) == [
        ("m.py", "_Box"), ("m.py", "_TABLE"), ("m.py", "_dead"),
        ("m.py", "_peek")]
    # A name another module imports or reads is in use.
    assert _unread_private_names({
        "a.py": "def _f():\n    pass\n\n_g = 1\n",
        "b.py": "from .a import _f\nfrom . import a\n_f(a._g)\n"}) == []


def _budget_refusals(source):
    """Lines that construct SizeBudgetExceeded, called or raised bare."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        made = (node.func if isinstance(node, ast.Call)
                else node.exc if isinstance(node, ast.Raise) else None)
        name = getattr(made, "id", None) or getattr(made, "attr", None)
        if name == "SizeBudgetExceeded":
            lines.append(node.lineno)
    return sorted(set(lines))


def test_only_gf_core_raises_size_budget_exceeded():
    """Every size guard goes through gf_core._check_budget."""
    paths = sorted((ROOT / "src" / "permrf").glob("*.py"))
    assert paths
    found = {path.name: _budget_refusals(path.read_text()) for path in paths
             if path.name != "gf_core.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_budget_refusal_check_sees_them():
    source = ("from . import errors\n"
              "from .errors import SizeBudgetExceeded\n"
              "def f(x):\n"
              "    if x:\n"
              "        raise SizeBudgetExceeded('x')\n"
              "    raise errors.SizeBudgetExceeded\n"
              "try:\n    f(0)\nexcept SizeBudgetExceeded:\n    pass\n")
    assert _budget_refusals(source) == [5, 6]


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


# Drives every module through cli.main, drops every permrf module, and
# counts the towers gc still finds, before the drop and after it.
DROP_PROGRAM = """
import contextlib, gc, io, sys
from permrf import cli
steps = (
    ["verify", "--suite", "theorem-n2", "--q", "3", "--workers", "1"],
    ["classify", "--field", "3:2", "--b", "3", "--workers", "1"],
    ["check", "--field", "3:2", "--b", "3", "--c", "1", "--L", "0,1",
     "--method", "pairwise"],
    ["factor", "--field", "3:2", "--b", "3", "--c", "1"],
)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in steps]
del cli

def towers():
    gc.collect()
    return sum(type(o).__name__ == "FieldTower"
               and type(o).__module__ == "permrf.gf_core"
               for o in gc.get_objects())

before = towers()
for name in [n for n in sys.modules if n == "permrf" or n.startswith("permrf.")]:
    del sys.modules[name]
print(*codes, before, towers())
"""


def test_dropped_package_frees_every_tower():
    """Nothing outside the package holds a permrf object: typing's cache
    of Optional[LinearizedPoly], made when ratfunc was imported, kept
    linmaps, gf_core and the tower cache alive after the drop."""
    proc = subprocess.run([sys.executable, "-c", DROP_PROGRAM],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "0", "0", "1", "0"]
