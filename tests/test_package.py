import ast
from pathlib import Path

import flagbound

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "flagbound"
BENCH = ROOT / "flagbench"

# the README quick tour's imports, plus the kernel backend's name
EXPORTS = {
    "FlagCondition",
    "HilbertProfile",
    "LemmaInput",
    "castelnuovo_bound",
    "flag_genus_interval",
    "genus_from_lemma_input",
    "quadratic_genus_bound",
    "remainder_decomposition",
    "backend_name",
}


def test_top_level_exports():
    assert set(flagbound.__all__) == EXPORTS
    assert len(flagbound.__all__) == len(EXPORTS)
    for name in flagbound.__all__:
        assert getattr(flagbound, name) is not None


def _defined_names(tree: ast.Module) -> list[str]:
    """Functions, classes and methods defined at module or class level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names.extend(
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.ClassDef))
            )
    return names


def _referenced_names(paths) -> set[str]:
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_definition_has_a_caller_outside_the_tests():
    # Names used only by the tests are dead weight in the library: either
    # a CLI op, the verify battery or the benchmark harness calls a
    # definition, or it goes.  A reference by bare name or by attribute
    # counts; the definition itself is neither.
    modules = sorted(SRC.glob("*.py"))
    referenced = _referenced_names(modules + sorted(BENCH.glob("*.py")))
    unused = []
    for path in modules:
        for qualname in _defined_names(ast.parse(path.read_text(encoding="utf-8"))):
            name = qualname.rsplit(".", 1)[-1]
            if not (name.startswith("__") and name.endswith("__")) and name not in referenced:
                unused.append(f"{path.stem}.{qualname}")
    assert unused == []


def _fields(tree: ast.Module) -> list[str]:
    """Annotated fields (dataclass, NamedTuple) of module-level classes."""
    return [
        f"{node.name}.{item.target.id}"
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]


def _attributes_read(paths) -> set[str]:
    return {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_field_is_read_outside_the_tests():
    # A field is computed and stored for every instance, so one that only
    # the tests read is dead weight too.  It counts as read when some
    # `.name` loads it in the package or the benchmark harness.
    modules = sorted(SRC.glob("*.py"))
    read = _attributes_read(modules + sorted(BENCH.glob("*.py")))
    unused = [
        f"{path.stem}.{qualname}"
        for path in modules
        for qualname in _fields(ast.parse(path.read_text(encoding="utf-8")))
        if qualname.rsplit(".", 1)[-1] not in read
    ]
    assert unused == []
