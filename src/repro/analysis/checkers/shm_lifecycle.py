"""shm-lifecycle: shared-memory slabs must be released on every path.

Slabs shipped between processes through
``multiprocessing.shared_memory.SharedMemory`` must be released: the
kernel object backing a segment survives the process unless *someone*
calls ``unlink()``, and each attached handle pins a file descriptor
until ``close()`` -- so a single exception path that skips either
leaks a slab for the life of the machine.

Contract checked per function, for every ``name = SharedMemory(...)``
binding:

* **ownership transfer** -- the handle escaping the function (returned,
  yielded, passed to a call, stored on an object/container) moves the
  obligation to the receiver; nothing is reported.
* otherwise a **creator** (``create=True``) must reach ``name.close()``
  *and* ``name.unlink()`` inside a ``finally`` block, and an
  **attacher** must reach ``name.close()`` inside a ``finally`` --
  cleanup outside ``finally`` misses exception paths and is reported
  with a dedicated message.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from ..engine import Checker, Finding, SourceModule
from .common import dotted_parts, walk_excluding_functions

__all__ = ["ShmLifecycleChecker"]


class ShmLifecycleChecker(Checker):
    rule = "shm-lifecycle"
    hint = (
        "wrap the handle in try/finally: creators call close() + unlink() "
        "in the finally, attachers call close(); or return the handle to "
        "transfer ownership"
    )

    def collect(self, module: SourceModule) -> List[Finding]:
        if "SharedMemory" not in module.source:
            return []
        findings: List[Finding] = []
        scopes: List[List[ast.stmt]] = [module.tree.body]
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(node.body)
        for body in scopes:
            findings.extend(self._check_scope(module, body))
        return findings

    # -- per-scope analysis ---------------------------------------------

    def _check_scope(
        self, module: SourceModule, body: List[ast.stmt]
    ) -> List[Finding]:
        nodes: List[ast.AST] = []
        for stmt in body:
            nodes.extend(walk_excluding_functions(stmt))
        handles: List[Tuple[str, bool, ast.AST]] = []  # (name, creator, node)
        unbound: List[Tuple[bool, ast.AST]] = []
        for node in nodes:
            call = _shared_memory_call(node)
            if call is None:
                continue
            creator = _is_creator(call)
            name = _bound_name(node, nodes)
            if name is None:
                if not _call_escapes(call, nodes):
                    unbound.append((creator, call))
            else:
                handles.append((name, creator, call))
        findings: List[Finding] = []
        for creator, call in unbound:
            kind = "created" if creator else "attached"
            findings.append(
                self.finding(
                    module,
                    call,
                    f"SharedMemory handle {kind} but never bound: nothing "
                    f"can close{'/unlink' if creator else ''} it",
                )
            )
        finally_nodes = _finally_subtree_ids(body)
        for name, creator, call in handles:
            if _name_escapes(name, nodes):
                continue  # ownership transferred
            closes = _method_calls(name, "close", nodes)
            unlinks = _method_calls(name, "unlink", nodes)
            needed = [("close", closes)]
            if creator:
                needed.append(("unlink", unlinks))
            missing = [what for what, calls in needed if not calls]
            outside = [
                what
                for what, calls in needed
                if calls and not any(id(c) in finally_nodes for c in calls)
            ]
            kind = "creator" if creator else "attached handle"
            if missing:
                findings.append(
                    self.finding(
                        module,
                        call,
                        f"SharedMemory {kind} {name!r} never calls "
                        + "/".join(missing)
                        + "()",
                    )
                )
            elif outside:
                findings.append(
                    self.finding(
                        module,
                        call,
                        f"SharedMemory {kind} {name!r} cleanup "
                        f"({'/'.join(outside)}) is not in a finally block, "
                        f"so exception paths leak the segment",
                    )
                )
        return findings


# -- AST predicates -----------------------------------------------------


def _shared_memory_call(node: ast.AST) -> Optional[ast.Call]:
    if isinstance(node, ast.Call):
        parts = dotted_parts(node.func)
        if parts is not None and parts[-1] == "SharedMemory":
            return node
    return None


def _is_creator(call: ast.Call) -> bool:
    for kw in call.keywords:
        if kw.arg == "create":
            return bool(
                isinstance(kw.value, ast.Constant) and kw.value.value
            )
    return False


def _bound_name(call: ast.AST, nodes: List[ast.AST]) -> Optional[str]:
    """The simple name ``call``'s result is assigned to, if any."""
    for node in nodes:
        if isinstance(node, ast.Assign) and node.value is call:
            if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                return node.targets[0].id
        if isinstance(node, ast.AnnAssign) and node.value is call:
            if isinstance(node.target, ast.Name):
                return node.target.id
    return None


def _call_escapes(call: ast.Call, nodes: List[ast.AST]) -> bool:
    """Unbound constructor result that still transfers ownership."""
    for node in nodes:
        if isinstance(node, (ast.Return, ast.Yield)) and node.value is call:
            return True
        if isinstance(node, ast.Call) and call in node.args:
            return True
        if isinstance(node, ast.Assign) and node.value is call:
            return True  # non-Name target: attribute/subscript store
    return False


def _name_escapes(name: str, nodes: List[ast.AST]) -> bool:
    """True if the handle leaves the function (ownership transfer)."""
    for node in nodes:
        if isinstance(node, (ast.Return, ast.Yield)) and node.value is not None:
            if _direct_ref(node.value, name):
                return True
        if isinstance(node, ast.Call):
            # only the handle itself transfers ownership; shipping
            # shm.buf / shm.name into a call does not
            if any(_direct_ref(arg, name) for arg in node.args):
                return True
            if any(_direct_ref(kw.value, name) for kw in node.keywords):
                return True
        if isinstance(node, ast.Assign):
            if _mentions(node.value, name) and any(
                not isinstance(t, ast.Name) for t in node.targets
            ):
                return True
    return False


def _mentions(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id == name
        for sub in ast.walk(node)
    )


def _direct_ref(node: Optional[ast.AST], name: str) -> bool:
    """The handle itself (possibly inside a tuple/list), not a field of it."""
    if node is None:
        return False
    if isinstance(node, ast.Name):
        return node.id == name
    if isinstance(node, (ast.Tuple, ast.List)):
        return any(_direct_ref(elt, name) for elt in node.elts)
    return False


def _method_calls(
    name: str, method: str, nodes: List[ast.AST]
) -> List[ast.Call]:
    out: List[ast.Call] = []
    for node in nodes:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == method
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == name
        ):
            out.append(node)
    return out


def _finally_subtree_ids(body: List[ast.stmt]) -> Set[int]:
    """ids of every node inside any ``finally`` block of this scope."""
    ids: Set[int] = set()
    queue: List[ast.AST] = []
    for stmt in body:
        queue.extend(walk_excluding_functions(stmt))
    for node in queue:
        if isinstance(node, ast.Try):
            for fin in node.finalbody:
                for sub in walk_excluding_functions(fin):
                    ids.add(id(sub))
    return ids
