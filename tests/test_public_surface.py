"""The package root re-exports only what the package itself uses, and its
dataclasses hold only fields the package reads.

Each name `roi_attend/__init__.py` imports must be loaded (an `ast.Name` read)
by some module of `roi_attend` other than `__init__.py`, or be listed in KEPT
with what keeps it. A public wrapper that no command runs fails here, so it
is deleted with its callers' tests moved to the internals it wraps.

Each field of a dataclass defined in `roi_attend` must be read (an
`ast.Attribute` load of its name) by some module of `roi_attend`, or be listed
in KEPT_FIELDS with what keeps it. A result field that only tests read fails
here. The match is by name alone: a field that shares its name with any other
attribute the package reads (a method, another class's field) passes unread.

No module of `roi_attend` assigns `__all__`: the root's imports are the one
list of the public surface.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "roi_attend"

# exported, loaded by no module of the package, and kept for what names them
KEPT = {
    "mfcc": "bench/tracing.py patches it by name; acceptance criterion 2 calls it",
}

# dataclass fields read by no module of the package, and kept for what needs them
KEPT_FIELDS = {
    "RoiRegion.start_frame": "with end_frame, the run of salient frames that the sample span is derived from",
    "RoiRegion.end_frame": "with start_frame, the run of salient frames that the sample span is derived from",
}


def _modules():
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def _loaded() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
    return names


def test_every_export_is_loaded_by_the_package_or_kept():
    unloaded = sorted(_exports() - _loaded() - KEPT.keys())
    assert not unloaded, f"re-exported but loaded by no module of roi_attend: {unloaded}"


def test_every_kept_name_is_still_exported():
    gone = sorted(KEPT.keys() - _exports())
    assert not gone, f"KEPT names that roi_attend no longer exports: {gone}"


def test_no_module_assigns_dunder_all():
    """The public surface has two declarations: the names roi_attend/__init__.py
    imports, and the underscore prefix that marks a module's private names. A
    module __all__ would be a third list, which nothing checks against them."""
    assigning = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)
    )
    assert not assigning, f"modules of roi_attend that assign __all__: {assigning}"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _fields() -> set[str]:
    return {
        f"{node.name}.{item.target.id}"
        for tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    }


def _attributes_loaded() -> set[str]:
    return {
        node.attr
        for tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_dataclass_field_is_read_by_the_package_or_kept():
    loaded = _attributes_loaded()
    unread = sorted(f for f in _fields() - KEPT_FIELDS.keys() if f.split(".", 1)[1] not in loaded)
    assert not unread, f"dataclass fields that no module of roi_attend reads: {unread}"


def test_every_kept_field_is_still_a_field():
    gone = sorted(KEPT_FIELDS.keys() - _fields())
    assert not gone, f"KEPT_FIELDS entries that are no longer dataclass fields: {gone}"
