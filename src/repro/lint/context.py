"""Per-file analysis context: AST and import resolution.

A :class:`ModuleContext` is built once per linted file and handed to every
rule.  It provides

* the parsed AST with a parent map (``ctx.parent(node)``);
* import-aware name resolution (``ctx.resolve(node)`` turns ``np.random.
  seed`` into ``numpy.random.seed`` whatever the local alias is).

``module`` is the file's path from the package root (or from the
``benchmarks`` directory) down, in posix form (``repro/campaign/store.py``,
``benchmarks/observatory/clock.py``); path-scoped rules match against it.
For fixture snippets the caller passes the module name explicitly.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional


def module_name_for(path: str) -> str:
    """Module path from the innermost ``repro`` or ``benchmarks`` directory down.

    Posix form.  Falls back to the basename for files outside both
    (fixtures, scratch snippets).
    """
    parts = path.replace("\\", "/").split("/")
    for idx in range(len(parts) - 1, -1, -1):
        if parts[idx] in ("repro", "benchmarks"):
            return "/".join(parts[idx:])
    return parts[-1]


class ModuleContext:
    """Everything a rule needs to analyse one file."""

    def __init__(self, path: str, source: str, module: Optional[str] = None) -> None:
        self.path = path
        self.source = source
        self.module = module if module is not None else module_name_for(path)
        self.tree = ast.parse(source, filename=path)
        self.imports = _collect_imports(self.tree)
        self._parents: Dict[int, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent

    # -------------------------------------------------------------- structure
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(id(node))

    # -------------------------------------------------------------- resolution
    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted name of a ``Name``/``Attribute`` chain, import-resolved.

        ``np.random.seed`` resolves to ``numpy.random.seed`` when the file
        holds ``import numpy as np``; a bare builtin (``open``, ``id``)
        resolves to itself.  Returns ``None`` for non-name expressions.
        """
        parts = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        parts.append(current.id)
        parts.reverse()
        head = self.imports.get(parts[0])
        if head is not None:
            parts[0] = head
        return ".".join(parts)


def _collect_imports(tree: ast.AST) -> Dict[str, str]:
    """Local name -> dotted origin, for every top-of-chain import binding."""
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    imports[alias.asname] = alias.name
                else:
                    # ``import a.b`` binds ``a`` (resolving to ``a``).
                    imports[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname if alias.asname is not None else alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name
    return imports
