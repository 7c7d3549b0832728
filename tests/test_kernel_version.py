"""Cache keys cannot go stale silently.

Every simulation cache key carries
:data:`repro.exec.cache.KERNEL_PLAN_VERSION`, which is bumped by hand.
This test re-hashes the simulation-relevant source and compares it with
:data:`~repro.exec.cache.KERNEL_SOURCE_DIGEST`, pinned next to the
version: a change to the simulator, the modules, the timing models,
the connectivity components, the memory-architecture wiring or the
trace columns fails here until the version is bumped (so old cache
entries are orphaned) and the digest re-pinned.

The digest covers the syntax trees, not the text: comments, formatting
and docstrings do not count, so documentation edits need no bump.
"""

from __future__ import annotations

import ast
import hashlib
import pathlib

from repro.exec.cache import KERNEL_PLAN_VERSION, KERNEL_SOURCE_DIGEST

#: Package root of the ``repro`` sources.
PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: What simulation results depend on, relative to :data:`PACKAGE`.
SIMULATION_SOURCE = (
    "sim",
    "memory",
    "timing",
    "connectivity",
    "trace",
    "apex/architectures.py",
    "channels.py",
)

_DOCSTRING_OWNERS = (
    ast.Module,
    ast.ClassDef,
    ast.FunctionDef,
    ast.AsyncFunctionDef,
)


def _strip_docstrings(tree: ast.AST) -> ast.AST:
    for node in ast.walk(tree):
        if not isinstance(node, _DOCSTRING_OWNERS):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            del body[0]
    return tree


def _dump(node) -> str:
    """``ast.dump`` without empty fields, identical across Python versions.

    Newer interpreters add fields that are empty in this code base (for
    example ``type_params`` on functions and classes), so they are left
    out rather than hashed as ``[]``.
    """
    if isinstance(node, ast.AST):
        fields = ", ".join(
            f"{name}={_dump(value)}"
            for name, value in ast.iter_fields(node)
            if value is not None and value != []
        )
        return f"{type(node).__name__}({fields})"
    if isinstance(node, list):
        return "[" + ", ".join(_dump(item) for item in node) + "]"
    return repr(node)


def simulation_source_digest(package: pathlib.Path = PACKAGE) -> str:
    """SHA-256 over the docstring-free syntax trees of the source."""
    paths = []
    for entry in SIMULATION_SOURCE:
        path = package / entry
        paths.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    digest = hashlib.sha256()
    for path in sorted(paths):
        tree = _strip_docstrings(ast.parse(path.read_text(encoding="utf-8")))
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(b"\0")
        digest.update(_dump(tree).encode())
        digest.update(b"\0")
    return digest.hexdigest()


def test_simulation_source_matches_the_pinned_version():
    current = simulation_source_digest()
    assert current == KERNEL_SOURCE_DIGEST, (
        "the simulation source changed since KERNEL_PLAN_VERSION "
        f"{KERNEL_PLAN_VERSION} was pinned: bump KERNEL_PLAN_VERSION in "
        "src/repro/exec/cache.py so stale cache entries are not served, "
        f'and re-pin KERNEL_SOURCE_DIGEST = "{current}" next to it'
    )


def test_digest_ignores_docstrings_and_comments(tmp_path):
    for entry in SIMULATION_SOURCE:
        path = tmp_path / entry
        if path.suffix == ".py":
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("")
        else:
            path.mkdir()
    module = tmp_path / "channels.py"
    module.write_text('"""Doc."""\n\ndef f(x):\n    """Doc."""\n    return x\n')
    pinned = simulation_source_digest(tmp_path)
    module.write_text(
        '"""Other doc."""\n\n# a comment\ndef f(x):\n    return (x)\n'
    )
    assert simulation_source_digest(tmp_path) == pinned
    module.write_text('def f(x):\n    return x + 1\n')
    assert simulation_source_digest(tmp_path) != pinned
