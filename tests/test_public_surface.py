"""The package root re-exports only what the package itself uses.

Each name `roi_attend/__init__.py` imports must be loaded (an `ast.Name` read)
by some module of `roi_attend` other than `__init__.py`, or be listed in KEPT
with what keeps it. A public wrapper that no command runs fails here, so it
is deleted with its callers' tests moved to the internals it wraps.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "roi_attend"

# exported, loaded by no module of the package, and kept for what names them
KEPT = {
    "mfcc": "bench/tracing.py patches it by name; acceptance criterion 2 calls it",
    "mel_filterbank": "bench/tracing.py patches it by name",
}


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
