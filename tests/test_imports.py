"""Every import in the package is used, every private name is read, and
the public names that only tests read are the documented ones."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "secular"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - read)


def test_finds_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c, d as e\nos.sep\n"
                          "print(e)\n") == ["c"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _module_names(sources: dict[str, str]):
    """(module, name, statement) of each module-level definition or
    assignment, and every name that some module reads as a name, an
    attribute or an import."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [t.id for t in ast.walk(node)
                         if isinstance(t, ast.Name)
                         and isinstance(t.ctx, ast.Store)]
            else:
                names = []
            defined += [(module, name, node) for name in names]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return defined, read


def unread_privates(sources: dict[str, str]) -> list[str]:
    """Module-level _names, as module.name, that no module reads as a
    name, an attribute or an import."""
    defined, read = _module_names(sources)
    return sorted(f"{m}.{name}" for m, name, _ in defined
                  if name.startswith("_") and not name.startswith("__")
                  and name not in read)


def unread_publics(sources: dict[str, str]) -> list[str]:
    """Module-level public functions and classes, as module.name, that no
    module reads as a name, an attribute or an import.

    A name counts as read wherever it appears, so a function that shares
    its name with an attribute looks read: the retired
    `jordan.multiplicity` hid behind `AlgebraicRoot.multiplicity`.
    """
    defined, read = _module_names(sources)
    return sorted(f"{m}.{name}" for m, name, node in defined
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not name.startswith("_") and name not in read)


def test_finds_an_unread_private():
    assert unread_privates({
        "a": "_T = 1\ndef _f():\n    return _T\nclass _C:\n    pass\n",
        "b": "from .a import _f\ndef _g():\n    pass\nx = a._C\n",
    }) == ["b._g"]


def test_every_private_is_read():
    assert unread_privates({p.stem: p.read_text()
                            for p in sorted(SRC.glob("*.py"))}) == []


def test_finds_an_unread_public():
    assert unread_publics({
        "a": "T = 1\ndef f():\n    return T\nclass C:\n    pass\n"
             "def _p():\n    pass\n",
        "b": "from .a import f\ndef g():\n    pass\nclass D:\n    pass\n"
             "x = a.C\n",
    }) == ["b.D", "b.g"]


# the one public function no command calls: Weierstrass's certificate that
# a symmetric matrix is diagonalizable, which acceptance 4 reads
TEST_ONLY_API = ["jordan.symmetric_diagonalizability_check"]


def test_only_the_documented_publics_go_unread():
    assert unread_publics({p.stem: p.read_text()
                           for p in sorted(SRC.glob("*.py"))}) == TEST_ONLY_API


def _attributes_read(sources: dict[str, str]) -> set[str]:
    """Every name that some module reads as an attribute x.name, where x
    is neither a module the module imports nor an attribute path on one."""
    read = set()
    for source in sources.values():
        tree = ast.parse(source)
        modules = {alias.asname or alias.name.split(".")[0]
                   for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                base = node.value
                while isinstance(base, ast.Attribute):
                    base = base.value
                if not (isinstance(base, ast.Name) and base.id in modules):
                    read.add(node.attr)
    return read


def unread_methods(sources: dict[str, str]) -> list[str]:
    """Methods and properties of module-level classes, dunders aside, as
    module.Class.name, that no module reads as an attribute of an object.

    A bare name (a local `rank`) and a module's attribute (`np.linalg.det`)
    do not count.  The rule still misses a method that shares its name with
    an attribute read elsewhere: `SquareMatrix.transpose` hides behind
    numpy's `.transpose(...)` and `SolutionTerm.degree` behind
    `RationalPolynomial.degree`; operator dunders are not checked.
    """
    defined, _ = _module_names(sources)
    read = _attributes_read(sources)
    return sorted(f"{m}.{name}.{f.name}" for m, name, node in defined
                  if isinstance(node, ast.ClassDef) for f in node.body
                  if isinstance(f, ast.FunctionDef)
                  and not f.name.startswith("__") and f.name not in read)


def test_finds_an_unread_method():
    assert unread_methods({
        "a": "class C:\n    def f(self):\n        return self.g()\n"
             "    def g(self):\n        pass\n    @property\n"
             "    def p(self):\n        pass\n    def __len__(self):\n"
             "        return 0\n",
    }) == ["a.C.f", "a.C.p"]


def test_finds_a_method_hidden_by_a_local_name():
    assert unread_methods({
        "a": "class C:\n    def rank(self):\n        pass\n"
             "def f(x):\n    rank = x\n    return rank\n",
    }) == ["a.C.rank"]


def test_finds_a_method_hidden_by_a_module_attribute():
    assert unread_methods({
        "a": "import numpy as np\nclass C:\n    def det(self):\n"
             "        pass\nx = np.linalg.det(np.eye(2))\n",
    }) == ["a.C.det"]


# the methods no command calls, each with what keeps it
TEST_ONLY_METHODS = [
    "cli._Parser.error",  # argparse's hook, which argparse calls
    "matrixcore.SquareMatrix.det",  # the tests' exact reference
    "matrixcore.SquareMatrix.rank",  # the tests' exact reference
    "ratpoly.RationalPolynomial.from_roots",  # the tests plant roots with it
    "ratpoly.SturmChain.polys",  # perfbench's --trace reads its bits
]


def test_only_the_listed_methods_go_unread():
    assert unread_methods({p.stem: p.read_text()
                           for p in sorted(SRC.glob("*.py"))}) == \
        TEST_ONLY_METHODS
