"""Every module of the library is reached from the program's entry points.

The import graph is read with :mod:`ast` alone; nothing is imported.  A
module counts as reached when an ``import`` or ``from … import``
statement anywhere in a reached module names it (function-level imports
included), and importing a module reaches its parent packages too.  The
lazy ``_EXPORTS`` string tables in package ``__init__`` files are not
followed: a name only a re-export table points at is not reached, so a
module whose only callers are its own tests shows up here.
"""

import ast
import pathlib

import repro

ROOT = pathlib.Path(repro.__file__).parent

#: The program's entry points: ``python -m repro``, the CLI it runs, the
#: engine every library caller builds, and the traffic driver.
ENTRY_POINTS = (
    "repro.__main__",
    "repro.cli",
    "repro.core.engine",
    "repro.traffic.driver",
)

#: Modules allowed to be unreached, each with the reason it stays.
ALLOWED = {}


def module_files():
    """Module name -> source path, for every module under ``repro``."""
    found = {}
    for path in ROOT.rglob("*.py"):
        parts = ("repro",) + path.relative_to(ROOT).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


def imported_names(name, is_package, source):
    """Every module name an import statement in *source*, the text of
    module *name*, mentions: ``from pkg import x`` names both ``pkg`` and
    ``pkg.x``, and relative imports are resolved against the package."""
    package = name if is_package else name.rpartition(".")[0]
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def reached_modules(files):
    reached, stack = set(), list(ENTRY_POINTS)
    while stack:
        name = stack.pop()
        if name in reached or name not in files:
            continue
        reached.add(name)
        parent = name.rpartition(".")[0]
        stack.extend([parent] if parent else [])
        path = files[name]
        stack.extend(imported_names(
            name, path.name == "__init__.py", path.read_text()
        ))
    return reached


def test_every_module_is_reached():
    files = module_files()
    assert set(ENTRY_POINTS) <= set(files)
    unreached = sorted(set(files) - reached_modules(files) - set(ALLOWED))
    assert unreached == [], (
        "unreached from the entry points (delete them, give them a caller, "
        f"or allowlist them with a reason): {unreached}"
    )


def test_relative_imports_resolve():
    """The library has none (``TestImportBoundary`` forbids them);
    should one appear, the walk resolves it against its package."""
    source = "from .core import engine\nfrom .. import x\nfrom . import y\n"
    assert imported_names("repro.obs.trace", False, source) == {
        "repro.obs.core", "repro.obs.core.engine",
        "repro", "repro.x", "repro.obs", "repro.obs.y",
    }
    assert "repro.obs.y" in imported_names("repro.obs", True, source)
