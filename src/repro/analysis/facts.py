"""Parse-once source facts shared by the four source analyzers.

The effects (:mod:`repro.analysis.safety`), vectorize, streamable and
concurrency analyzers all read an operation body's AST and its defining
module's top-level context.  :func:`function_facts` recovers and parses
each callable once, :func:`module_facts` each module file once, and
:func:`memo_report` is the one per-operation report memo, keyed on the
aspect plus :func:`operation_key` -- every ``Operation`` field any
verdict reads, so two ops differing only in ``sort_key`` never share a
report.  All three memos sit behind one lock.

The module is importable standalone by file path (``tools/astlint.py``
loads it right after ``effects.py``), so the top level imports nothing
from the repo besides the effects analyzer, with a fallback to the lint
loader's module name.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import threading
from dataclasses import dataclass
from pathlib import Path

try:  # normal package import
    from repro.analysis.effects import ModuleContext, collect_module_context
except ImportError:  # loaded standalone by file path (tools/astlint.py)
    from _astlint_effects import (  # type: ignore
        ModuleContext,
        collect_module_context,
    )

@dataclass(frozen=True)
class SourceFacts:
    """A parsed node plus the tree and context of its module.

    ``node`` is the ``ast.Module`` for a module file and the function
    (else lambda) node for a callable, with line numbers counted from
    the first line of its recovered source; ``module`` is the defining
    module's tree.  Both are ``None`` (with an empty context) when the
    source cannot be recovered or parsed.
    """

    node: ast.AST | None
    context: ModuleContext
    module: ast.Module | None


_UNAVAILABLE = SourceFacts(None, ModuleContext(frozenset(), {}), None)

_LOCK = threading.Lock()
_FUNCTIONS: dict = {}
_MODULES: dict = {}
_REPORTS: dict = {}


def module_facts(path: str) -> SourceFacts:
    """The module file at ``path``: its tree and context."""
    with _LOCK:
        found = _MODULES.get(path)
    if found is None:
        try:
            tree = ast.parse(Path(path).read_text())
        except (OSError, SyntaxError, ValueError):
            found = _UNAVAILABLE
        else:
            found = SourceFacts(tree, collect_module_context(tree), tree)
        with _LOCK:
            found = _MODULES.setdefault(path, found)
    return found


def _body_node(fn) -> ast.AST | None:
    try:
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    except (OSError, TypeError, SyntaxError, ValueError):
        return None
    for kinds in ((ast.FunctionDef, ast.AsyncFunctionDef), ast.Lambda):
        for node in ast.walk(tree):
            if isinstance(node, kinds):
                return node
    return None


def function_facts(fn) -> SourceFacts:
    """A live callable's body node plus its module's tree and context."""
    with _LOCK:
        found = _FUNCTIONS.get(fn)
    if found is None:
        node = _body_node(fn)
        module = _UNAVAILABLE
        if node is not None:
            try:
                path = inspect.getsourcefile(fn)
            except TypeError:
                path = None
            if path is not None:
                module = module_facts(path)
        found = SourceFacts(node, module.context, module.module)
        with _LOCK:
            found = _FUNCTIONS.setdefault(fn, found)
    return found


def operation_key(operation) -> tuple:
    """Every :class:`Operation` field that any analyzer's verdict reads."""
    return (
        operation.name,
        operation.fn,
        tuple(operation.input_types),
        operation.output_type,
        tuple(operation.required_params),
        tuple(sorted(operation.optional_params)),
        operation.sort_key,
        operation.stream,
        operation.stream_fn,
        operation.state_bound,
        operation.concurrency,
    )


def memo_report(aspect: str, operation, build):
    """``build(operation)``, memoised per aspect and :func:`operation_key`."""
    key = (aspect, operation_key(operation))
    with _LOCK:
        report = _REPORTS.get(key)
    if report is None:
        report = build(operation)
        with _LOCK:
            report = _REPORTS.setdefault(key, report)
    return report
