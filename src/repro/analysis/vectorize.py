"""Vectorization-safety analysis: row dependence and shape inference.

The PR 3 effect analyzer (:mod:`repro.analysis.effects`) proves which
operations are safe to *cache* and *parallelize*; this module proves
which are safe to *batch*.  It runs a stdlib-only AST pass over every
registered operation's implementation and classifies its per-row
behaviour:

``elementwise``
    row *i* of the output depends only on row *i* of the inputs
    (pure columnar transforms: one-hots, bit encodings, casts);
``row-parallel``
    output rows are independent and may be computed in any order
    (per-flow segmented reductions, row subsets);
``windowed-sequential``
    the implementation carries cross-row state (flow assembly,
    incremental statistics, whole-matrix fits, sorts);
``opaque``
    no source is available to analyze.

The pass reuses PR 3's alias helpers (``_dotted``/``_base_name``/
transparent-call handling) for a lightweight *input-taint* analysis:
a ``for`` loop is a **row loop** only when its iterable derives from
the operation's row-structured inputs, and a row loop is **loop
carried** when it accumulates into state bound outside the loop.
Registry-facing reports attach the verdicts to operations (and, via
the equivalence analyzer's canonical normal form, to semantic
fingerprints) and emit the stable diagnostics L035-L038.  Every
operation has exactly one body, so a verdict describes the code the
engine runs.  Bodies come parsed from :mod:`repro.analysis.facts`.

The module is importable standalone by file path (``tools/astlint.py``
loads it next to ``effects.py`` for the AL009 check), so the top level
imports nothing from the repo besides the effects helpers and the
substrate, with fallbacks to the lint loader's module names.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass

try:  # normal package import
    from repro.analysis.effects import _base_name, _dotted
    from repro.analysis.facts import function_facts, memo_report
except ImportError:  # loaded standalone by file path (tools/astlint.py)
    from _astlint_effects import _base_name, _dotted  # type: ignore
    from _astlint_facts import function_facts, memo_report  # type: ignore

__all__ = [
    "ELEMENTWISE",
    "ROW_PARALLEL",
    "SEQUENTIAL",
    "OPAQUE",
    "BATCHABLE_VERDICTS",
    "RowKind",
    "RowFinding",
    "analyze_rows",
    "classify",
    "row_domain",
    "VectorReport",
    "operation_vector_report",
    "audit_vectorization",
    "verdict_fingerprints",
    "pass_vectorize",
    "ShapeFact",
]

# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

ELEMENTWISE = "elementwise"
ROW_PARALLEL = "row-parallel"
SEQUENTIAL = "windowed-sequential"
OPAQUE = "opaque"

#: verdicts under which a Python row loop is avoidable (L037, AL009)
BATCHABLE_VERDICTS = frozenset({ELEMENTWISE, ROW_PARALLEL})

#: :class:`~repro.core.types.ValueType` values with row structure
ROW_VALUE_KINDS = frozenset(
    {"packets", "flows", "features", "labels", "predictions"}
)


class RowKind(enum.Enum):
    """What one row-dependence finding is about."""

    ROW_LOOP = "python-row-loop"
    LOOP_CARRIED = "loop-carried-dependence"
    SEQUENTIAL_CALL = "cross-row-sequential-call"
    ORDER_SENSITIVE = "row-order-sensitive-call"
    GROUPED_REDUCTION = "grouped-reduction-call"
    ROW_SELECTION = "row-subset-call"
    OBJECT_DTYPE = "object-dtype-fallback"
    WHOLE_INPUT = "whole-input-reduction"
    SOURCE_UNAVAILABLE = "source-unavailable"


@dataclass(frozen=True)
class RowFinding:
    """One row-dependence fact found in an operation body."""

    kind: RowKind
    line: int
    detail: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "line": self.line,
            "detail": self.detail,
        }


# Callees that force a cross-row (sequential) verdict when applied to
# input-derived data: incremental statistics, fits, sorts, prefix scans.
_SEQ_CALLS = frozenset(
    {
        "assemble_flows",
        "kitsune_packet_features",
        "damped_group_stats",
        "damped_interarrival_stats",
        "fit",
        "fit_transform",
        "fit_predict",
        "partial_fit",
        "sort",
        "argsort",
        "lexsort",
        "sort_by_time",
        "cumsum",
        "cumprod",
        "accumulate",
        "mean",
        "std",
        "var",
        "median",
        "average",
        "nanmean",
        "nanstd",
        "percentile",
        "quantile",
    }
)

# Callees that are order-sensitive *within* a row's segment: demote to
# sequential only when the rows themselves are the unit they run over.
_ORDER_CALLS = frozenset({"diff", "ediff1d"})

# Segmented per-group reductions: independent output rows, any order.
_GROUP_CALLS = frozenset(
    {
        "reduce",
        "reduceat",
        "segment",
        "segmented_median",
        "segmented_nunique",
        "segmented_entropy",
        "flow_membership",
        "propagate_labels",
    }
)

# Row-subset operations: each output row is one input row.
_SELECT_CALLS = frozenset({"select", "compress"})

# Python-level fallbacks numpy cannot fuse (object arrays, ufunc shims).
_OBJECT_CALLS = frozenset(
    {"vectorize", "frompyfunc", "apply_along_axis"}
)

# Callee names whose presence makes an operation row-order sensitive
# (it must declare a sort key, or emit L038).
_ORDER_SENSITIVE_NAMES = frozenset(
    {
        "diff",
        "ediff1d",
        "cumsum",
        "cumprod",
        "accumulate",
        "kitsune_packet_features",
        "damped_group_stats",
        "damped_interarrival_stats",
    }
)

_ACCUMULATE_METHODS = frozenset(
    {"append", "extend", "insert", "add", "update", "setdefault",
     "appendleft", "push"}
)

# ---------------------------------------------------------------------------
# The AST pass: input taint + row loops + callee markers
# ---------------------------------------------------------------------------


def _final_name(func: ast.AST) -> str | None:
    """The last component of a call target: ``np.diff`` -> ``diff``."""
    dotted = _dotted(func)
    if dotted is not None:
        return dotted.rsplit(".", 1)[-1]
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _target_names(target: ast.AST, into: set) -> None:
    if isinstance(target, ast.Name):
        into.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            _target_names(elt, into)
    elif isinstance(target, ast.Starred):
        _target_names(target.value, into)


class _RowVisitor(ast.NodeVisitor):
    """Single forward pass tracking which names derive from the inputs.

    The taint map assigns each name a role (``"inputs"`` or
    ``"params"``); call results inherit the strongest role of their
    receiver and arguments, literal collections are always fresh.
    Flow-insensitive like the PR 3 effect visitor: one taint map for
    the whole function, which is conservative in the safe direction.
    """

    def __init__(self, roles: dict) -> None:
        self.taint: dict = dict(roles)
        self.findings: list = []

    # -- taint -----------------------------------------------------------

    def _combine(self, *roles):
        if "inputs" in roles:
            return "inputs"
        if "params" in roles:
            return "params"
        return None

    def _role(self, node: ast.AST):
        if isinstance(node, ast.Name):
            return self.taint.get(node.id)
        if isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
            return self._role(node.value)
        if isinstance(node, ast.NamedExpr):
            return self._role(node.value)
        if isinstance(node, ast.IfExp):
            return self._combine(self._role(node.body), self._role(node.orelse))
        if isinstance(node, ast.BoolOp):
            return self._combine(*(self._role(v) for v in node.values))
        if isinstance(node, ast.BinOp):
            return self._combine(self._role(node.left), self._role(node.right))
        if isinstance(node, ast.UnaryOp):
            return self._role(node.operand)
        if isinstance(node, ast.Compare):
            return self._combine(
                self._role(node.left),
                *(self._role(c) for c in node.comparators),
            )
        if isinstance(node, ast.Call):
            roles = []
            if isinstance(node.func, ast.Attribute):
                roles.append(self._role(node.func.value))
            roles.extend(self._role(arg) for arg in node.args)
            roles.extend(self._role(kw.value) for kw in node.keywords)
            return self._combine(*roles)
        # literal collections and comprehensions build fresh values; a
        # loop over them is a constant-arity loop, not a row loop
        return None

    def _bind(self, target: ast.AST, role) -> None:
        names: set = set()
        _target_names(target, names)
        for name in names:
            if role is None:
                self.taint.pop(name, None)
            else:
                self.taint[name] = role

    # -- statements ------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        role = self._role(node.value)
        for target in node.targets:
            self._bind(target, role)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._bind(node.target, self._role(node.value))
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        role = self._role(node.iter)
        self._bind(node.target, role)
        if role == "inputs":
            detail = _dotted(node.iter) or _base_name(node.iter) or "<expr>"
            self.findings.append(
                RowFinding(RowKind.ROW_LOOP, node.lineno,
                           f"for-loop over {detail}")
            )
            self._check_carried(node)
        self.generic_visit(node)

    # -- loop-carried state ---------------------------------------------

    def _check_carried(self, loop: ast.For) -> None:
        bound: set = set()
        _target_names(loop.target, bound)
        for stmt in loop.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        _target_names(target, bound)
                elif isinstance(sub, (ast.For, ast.AnnAssign)):
                    _target_names(
                        sub.target if isinstance(sub, ast.For)
                        else sub.target,
                        bound,
                    )
        for stmt in loop.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.AugAssign):
                    base = _base_name(sub.target)
                    if base and base not in bound:
                        self.findings.append(
                            RowFinding(RowKind.LOOP_CARRIED, sub.lineno,
                                       f"augmented update of {base}")
                        )
                elif (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _ACCUMULATE_METHODS
                ):
                    base = _base_name(sub.func.value)
                    if base and base not in bound:
                        self.findings.append(
                            RowFinding(
                                RowKind.LOOP_CARRIED, sub.lineno,
                                f"{base}.{sub.func.attr}() accumulates "
                                "across rows",
                            )
                        )
                elif isinstance(sub, ast.Assign):
                    # x = f(x, row): self-referential rebinding carries
                    # state even though x is (re)bound inside the loop
                    targets: set = set()
                    for target in sub.targets:
                        _target_names(target, targets)
                    reads = {
                        n.id
                        for n in ast.walk(sub.value)
                        if isinstance(n, ast.Name)
                    }
                    for name in sorted(targets & reads):
                        self.findings.append(
                            RowFinding(RowKind.LOOP_CARRIED, sub.lineno,
                                       f"self-referential update of {name}")
                        )

    # -- calls -----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        final = _final_name(node.func)
        if final is not None:
            roles = []
            if isinstance(node.func, ast.Attribute):
                roles.append(self._role(node.func.value))
            roles.extend(self._role(arg) for arg in node.args)
            roles.extend(self._role(kw.value) for kw in node.keywords)
            tainted = self._combine(*roles) == "inputs"
            if tainted and final in _SEQ_CALLS:
                self.findings.append(
                    RowFinding(RowKind.SEQUENTIAL_CALL, node.lineno, final)
                )
            elif tainted and final in _ORDER_CALLS:
                self.findings.append(
                    RowFinding(RowKind.ORDER_SENSITIVE, node.lineno, final)
                )
            elif tainted and final in _GROUP_CALLS:
                self.findings.append(
                    RowFinding(RowKind.GROUPED_REDUCTION, node.lineno, final)
                )
            elif tainted and final in _SELECT_CALLS:
                self.findings.append(
                    RowFinding(RowKind.ROW_SELECTION, node.lineno, final)
                )
            if final in _OBJECT_CALLS:
                self.findings.append(
                    RowFinding(RowKind.OBJECT_DTYPE, node.lineno, final)
                )
            if final == "astype" and node.args:
                if _is_object_dtype(node.args[0]):
                    self.findings.append(
                        RowFinding(RowKind.OBJECT_DTYPE, node.lineno,
                                   "astype(object)")
                    )
        for kw in node.keywords:
            if kw.arg == "dtype" and _is_object_dtype(kw.value):
                self.findings.append(
                    RowFinding(RowKind.OBJECT_DTYPE, node.lineno,
                               "dtype=object")
                )
        self.generic_visit(node)


def _is_object_dtype(node: ast.AST) -> bool:
    if isinstance(node, ast.Name) and node.id == "object":
        return True
    if isinstance(node, ast.Constant) and node.value in ("object", "O"):
        return True
    dotted = _dotted(node)
    return dotted in ("np.object_", "numpy.object_")


def _default_roles(node: ast.AST) -> dict:
    """First positional arg -> inputs, second -> params (the op ABI)."""
    roles: dict = {}
    args = getattr(node, "args", None)
    if args is None:
        return roles
    positional = [*args.posonlyargs, *args.args]
    if positional:
        roles[positional[0].arg] = "inputs"
    if len(positional) > 1:
        roles[positional[1].arg] = "params"
    return roles


def analyze_rows(node: ast.AST, *, roles: dict | None = None) -> list:
    """Row-dependence findings for one function's AST.

    ``node`` is a ``FunctionDef``/``Lambda``; ``roles`` overrides the
    default argument-role assignment (first positional argument is the
    ``inputs`` list, second the ``params`` dict).
    """
    if roles is None:
        roles = _default_roles(node)
    visitor = _RowVisitor(roles)
    body = node.body if isinstance(node.body, list) else [node.body]
    for stmt in body:
        visitor.visit(stmt)
    return sorted(
        visitor.findings, key=lambda f: (f.line, f.kind.value, f.detail)
    )


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


def row_domain(input_kinds, output_kind) -> str:
    """``"rows"`` when row-structured data flows through the op."""
    if any(kind in ROW_VALUE_KINDS for kind in input_kinds):
        return "rows"
    if output_kind in ROW_VALUE_KINDS:
        return "rows"
    return "scalar"


def classify(findings, input_kinds, output_kind) -> str:
    """The per-row verdict for one operation.

    ``input_kinds``/``output_kind`` are :class:`ValueType` value
    strings; they decide row granularity questions the AST alone
    cannot (an intra-flow ``np.diff`` is row-local at flow granularity
    but cross-row at packet granularity) and classify whole-input
    reductions (features -> model/metrics) as sequential.
    """
    kinds = {finding.kind for finding in findings}
    if RowKind.SOURCE_UNAVAILABLE in kinds:
        return OPAQUE
    if row_domain(input_kinds, output_kind) == "scalar":
        # no rows flow through (model factories/wrappers): vacuously
        # elementwise, and there is nothing to batch anyway
        return ELEMENTWISE
    row_inputs = [kind for kind in input_kinds if kind in ROW_VALUE_KINDS]
    if row_inputs and output_kind not in ROW_VALUE_KINDS:
        # whole-input reduction: every output fact depends on all rows
        return SEQUENTIAL
    if RowKind.SEQUENTIAL_CALL in kinds or RowKind.LOOP_CARRIED in kinds:
        return SEQUENTIAL
    if RowKind.ORDER_SENSITIVE in kinds and "flows" not in input_kinds:
        # diff/scan over the row axis itself couples neighbouring rows
        return SEQUENTIAL
    if RowKind.GROUPED_REDUCTION in kinds or RowKind.ROW_SELECTION in kinds:
        return ROW_PARALLEL
    return ELEMENTWISE


def order_sensitive(findings) -> bool:
    """Whether any finding names an order-sensitive callee."""
    return any(
        finding.detail.rsplit(".", 1)[-1] in _ORDER_SENSITIVE_NAMES
        for finding in findings
    )


# ---------------------------------------------------------------------------
# Registry-facing reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorReport:
    """The vectorization-safety verdict for one registered operation."""

    operation: str
    verdict: str
    domain: str
    sort_key: str | None
    order_sensitive: bool
    findings: tuple = ()
    diagnostics: tuple = ()

    def codes(self) -> set:
        return {diagnostic.code for diagnostic in self.diagnostics}

    def to_dict(self) -> dict:
        return {
            "operation": self.operation,
            "verdict": self.verdict,
            "domain": self.domain,
            "sort_key": self.sort_key,
            "order_sensitive": self.order_sensitive,
            "findings": [finding.to_dict() for finding in self.findings],
            "diagnostics": [str(d) for d in self.diagnostics],
        }


def _fn_findings(fn, prefix: str = "") -> tuple:
    node = function_facts(fn).node
    if node is None:
        name = getattr(fn, "__name__", repr(fn))
        return (
            RowFinding(RowKind.SOURCE_UNAVAILABLE, 0, prefix + name),
        )
    findings = analyze_rows(node)
    if prefix:
        findings = [
            RowFinding(f.kind, f.line, prefix + f.detail) for f in findings
        ]
    return tuple(findings)


def operation_vector_report(operation) -> VectorReport:
    """Analyze (and memoise) one operation's vectorization safety."""
    return memo_report("vectorize", operation, _build_report)


def _build_report(operation) -> VectorReport:
    from repro.analysis.diagnostics import Diagnostic, Severity

    input_kinds = tuple(t.value for t in operation.input_types)
    output_kind = operation.output_type.value
    findings = _fn_findings(operation.fn)
    verdict = classify(findings, input_kinds, output_kind)
    domain = row_domain(input_kinds, output_kind)
    sort_key = operation.sort_key
    ordered = order_sensitive(findings)
    kinds = {finding.kind for finding in findings}

    diagnostics = []
    if RowKind.OBJECT_DTYPE in kinds:
        fallback = next(
            f for f in findings if f.kind is RowKind.OBJECT_DTYPE
        )
        diagnostics.append(
            Diagnostic(
                "L036", Severity.WARNING,
                f"operation {operation.name!r} falls back to object "
                f"arrays or Python-level ufuncs ({fallback.detail}); "
                "the hot path cannot stay columnar",
                operation=operation.name,
                hint="keep numeric dtypes end to end",
            )
        )
    if (
        RowKind.ROW_LOOP in kinds
        and verdict in BATCHABLE_VERDICTS
        and output_kind == "features"
    ):
        loop = next(f for f in findings if f.kind is RowKind.ROW_LOOP)
        diagnostics.append(
            Diagnostic(
                "L037", Severity.WARNING,
                f"featurizer {operation.name!r} is provably {verdict} "
                f"but iterates rows in Python ({loop.detail}, "
                f"line {loop.line})",
                operation=operation.name,
                hint="vectorize the body",
            )
        )
    if ordered and sort_key is None:
        diagnostics.append(
            Diagnostic(
                "L038", Severity.WARNING,
                f"operation {operation.name!r} is row-order sensitive "
                "but declares no sort key; results silently depend on "
                "input ordering",
                operation=operation.name,
                hint="declare sort_key= (usually 'ts') on the "
                "registration",
            )
        )
    return VectorReport(
        operation=operation.name,
        verdict=verdict,
        domain=domain,
        sort_key=sort_key,
        order_sensitive=ordered,
        findings=tuple(findings),
        diagnostics=tuple(diagnostics),
    )


def audit_vectorization(operations=None) -> dict:
    """Deterministic vectorization audit of the operation registry."""
    if operations is None:
        from repro.core.operations import OPERATIONS

        operations = OPERATIONS
    reports = [
        operation_vector_report(operations[name])
        for name in sorted(operations)
    ]
    summary = {
        "total": len(reports),
        "elementwise": sum(1 for r in reports if r.verdict == ELEMENTWISE),
        "row_parallel": sum(1 for r in reports if r.verdict == ROW_PARALLEL),
        "sequential": sum(1 for r in reports if r.verdict == SEQUENTIAL),
        "opaque": sum(1 for r in reports if r.verdict == OPAQUE),
    }
    return {
        "operations": [report.to_dict() for report in reports],
        "summary": summary,
    }


def verdict_fingerprints(template, *, outputs=None) -> dict:
    """Attach verdicts to PR 5 semantic fingerprints, not spellings.

    Canonicalizes the template and maps each canonical step's
    fingerprint to ``{"func", "verdict"}`` -- two differently spelled
    steps that intern to the same stage get (and must get) the same
    verdict.
    """
    from repro.analysis.equivalence import canonicalize
    from repro.core.operations import OPERATIONS

    graph = canonicalize(template, outputs=outputs)
    verdicts: dict = {}
    for step in graph.steps:
        operation = OPERATIONS.get(step.func)
        verdict = (
            operation_vector_report(operation).verdict
            if operation is not None
            else OPAQUE
        )
        verdicts[step.fingerprint] = {"func": step.func, "verdict": verdict}
    return verdicts


# ---------------------------------------------------------------------------
# Template-level shape/dtype propagation (L035/L036/L037/L038)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShapeFact:
    """Symbolic shape/dtype facts for one pipeline value.

    ``rows`` is a *provenance symbol*: two values share it only when
    the analyzer can prove they are row-aligned.  ``source_rows``
    carries the packet provenance through flow tables so labels
    propagated back to packets re-align with packet features.
    """

    kind: str  # packets | flows | matrix | vector | model | metrics | unknown
    unit: str | None = None  # packet | flow
    rows: int | None = None  # provenance symbol
    cols: int | None = None
    dtype: str | None = None
    trained_cols: int | None = None
    source_rows: int | None = None


_NPRINT_LAYER_BITS = {"ipv4": 97, "tcp": 57, "udp": 49, "icmp": 17}


def _nprint_cols(params: dict) -> int | None:
    layers = params.get("layers")
    if not isinstance(layers, (list, tuple)):
        return None
    cols = 0
    for layer in layers:
        if layer == "payload":
            try:
                cols += 16 + int(params.get("payload_bytes", 8)) * 8
            except (TypeError, ValueError):
                return None
        elif layer in _NPRINT_LAYER_BITS:
            cols += _NPRINT_LAYER_BITS[layer]
        else:
            return None
    return cols


def _spec_len(value) -> int | None:
    if isinstance(value, (list, tuple)):
        return len(value)
    return None


def _matrix_from(fact, cols) -> ShapeFact:
    if fact is None:
        return ShapeFact("matrix", cols=cols, dtype="float64")
    return ShapeFact(
        "matrix",
        unit=fact.unit,
        rows=fact.rows,
        cols=cols,
        dtype="float64",
        source_rows=fact.source_rows,
    )


def _vector_from(fact) -> ShapeFact:
    if fact is None:
        return ShapeFact("vector", dtype="int64")
    return ShapeFact(
        "vector",
        unit=fact.unit,
        rows=fact.rows,
        dtype="int64",
        source_rows=fact.source_rows,
    )


def pass_vectorize(graph, diagnostics) -> None:
    """Propagate shape facts and emit L035-L038 over one template.

    Runs after parameter/dataflow passes: ``node.params`` are validated
    with defaults filled wherever the step itself is well-formed.  All
    diagnostics here are warnings -- a shape mismatch the analyzer can
    see is almost always a real bug, but execution (which re-checks at
    runtime) stays the ground truth.
    """
    from repro.analysis.diagnostics import Diagnostic, Severity
    from repro.core.pipeline import SOURCE_NAME

    symbols = iter(range(1_000_000))
    facts: dict = {
        SOURCE_NAME: ShapeFact("packets", unit="packet", rows=next(symbols))
    }

    def fresh() -> int:
        return next(symbols)

    def warn(code, message, node, hint=None):
        diagnostics.append(
            Diagnostic(
                code, Severity.WARNING, message,
                step=node.index, operation=node.func, hint=hint,
            )
        )

    def mismatch(node, left, right, what):
        if (
            left is not None
            and right is not None
            and left.rows is not None
            and right.rows is not None
            and left.rows != right.rows
        ):
            warn(
                "L035",
                f"{what}: the two inputs of step {node.index} "
                f"({node.func}) come from different row provenances "
                "and may disagree in length",
                node,
                hint="derive both from the same filtered/grouped value",
            )

    for node in graph.nodes:
        if node.operation is None:
            continue
        try:
            report = operation_vector_report(node.operation)
        except Exception:
            report = None
        if report is not None:
            for diagnostic in report.diagnostics:
                if diagnostic.code in ("L036", "L037", "L038"):
                    diagnostics.append(
                        Diagnostic(
                            diagnostic.code,
                            Severity.WARNING,
                            diagnostic.message,
                            step=node.index,
                            operation=node.func,
                            hint=diagnostic.hint,
                        )
                    )
        in_facts = [facts.get(name) for name in node.inputs]
        try:
            out = _apply_shape_rule(
                node, in_facts, fresh, warn, mismatch
            )
        except Exception:
            out = ShapeFact("unknown")
        facts[node.output] = out


def _apply_shape_rule(node, in_facts, fresh, warn, mismatch) -> ShapeFact:
    func = node.func
    params = node.params if isinstance(node.params, dict) else {}
    first = in_facts[0] if in_facts else None

    if func in ("FieldExtract",):
        return first or ShapeFact("packets", unit="packet", rows=fresh())
    if func in ("FilterPackets", "Downsample", "SortByTime"):
        base = first or ShapeFact("packets", unit="packet")
        return ShapeFact("packets", unit="packet", rows=fresh(),
                         source_rows=None)
    if func == "Groupby":
        src = first.rows if first is not None else None
        return ShapeFact("flows", unit="flow", rows=fresh(),
                         source_rows=src)
    if func == "TimeSlice":
        src = first.source_rows if first is not None else None
        return ShapeFact("flows", unit="flow", rows=fresh(),
                         source_rows=src)
    if func == "PacketFields":
        return _matrix_from(first, _spec_len(params.get("fields")))
    if func == "ProtocolOneHot":
        return _matrix_from(first, 4)
    if func == "WlanFeatures":
        return _matrix_from(first, 22)
    if func == "NprintEncode":
        return _matrix_from(first, _nprint_cols(params))
    if func == "KitsuneFeatures":
        lambdas = _spec_len(params.get("lambdas"))
        return _matrix_from(
            first, 12 * lambdas if lambdas is not None else None
        )
    if func == "ApplyAggregates":
        return _matrix_from(first, _spec_len(params.get("list")))
    if func == "FirstNPackets":
        try:
            n = int(params.get("n", 8))
        except (TypeError, ValueError):
            return _matrix_from(first, None)
        blocks = 1
        blocks += 1 if params.get("include_iat", True) else 0
        blocks += 1 if params.get("include_direction", True) else 0
        return _matrix_from(first, n * blocks)
    if func == "ZeekConnLog":
        return _matrix_from(first, 12)
    if func == "FlowDiscriminators":
        return _matrix_from(first, 38)
    if func == "PairVolumes":
        return _matrix_from(first, 9)
    if func == "ConcatFeatures":
        left = in_facts[0] if len(in_facts) > 0 else None
        right = in_facts[1] if len(in_facts) > 1 else None
        mismatch(node, left, right, "ConcatFeatures row alignment")
        cols = None
        if (
            left is not None
            and right is not None
            and left.cols is not None
            and right.cols is not None
        ):
            cols = left.cols + right.cols
        base = left or right
        return _matrix_from(base, cols)
    if func == "SelectColumns":
        indices = params.get("indices")
        cols = _spec_len(indices)
        if (
            first is not None
            and first.cols is not None
            and isinstance(indices, (list, tuple))
            and all(isinstance(i, int) for i in indices)
        ):
            bad = [i for i in indices if not 0 <= i < first.cols]
            if bad:
                warn(
                    "L035",
                    f"SelectColumns indices {bad} are provably out of "
                    f"range for the {first.cols}-column input matrix",
                    node,
                    hint="the step will raise at runtime",
                )
        return _matrix_from(first, cols)
    if func == "Normalize":
        return _matrix_from(first, first.cols if first is not None else None)
    if func in ("Labels", "AttackIds", "DeviceLabels"):
        if first is not None and first.kind in ("packets", "flows"):
            return _vector_from(first)
        return ShapeFact("vector", dtype="int64")
    if func == "PropagateLabels":
        if first is not None and first.kind == "flows":
            return ShapeFact(
                "vector", unit="packet", rows=first.source_rows,
                dtype="int64",
            )
        return ShapeFact("vector", dtype="int64")
    if func in ("model", "WithScaler", "WithDecorrelation",
                "WithVarianceFilter", "WithPCA"):
        return ShapeFact("model")
    if func in ("train", "tune"):
        features = in_facts[1] if len(in_facts) > 1 else None
        labels = in_facts[2] if len(in_facts) > 2 else None
        mismatch(node, features, labels, "train/label alignment")
        return ShapeFact(
            "model",
            trained_cols=features.cols if features is not None else None,
        )
    if func == "predict":
        model = in_facts[0] if in_facts else None
        features = in_facts[1] if len(in_facts) > 1 else None
        if (
            model is not None
            and features is not None
            and model.trained_cols is not None
            and features.cols is not None
            and model.trained_cols != features.cols
        ):
            warn(
                "L035",
                f"model was trained on {model.trained_cols} feature "
                f"columns but predicts on {features.cols}",
                node,
                hint="train and predict must share one feature template",
            )
        if features is not None:
            return ShapeFact(
                "vector", unit=features.unit, rows=features.rows,
                dtype="int64", source_rows=features.source_rows,
            )
        return ShapeFact("vector", dtype="int64")
    if func == "evaluate":
        predictions = in_facts[0] if in_facts else None
        labels = in_facts[1] if len(in_facts) > 1 else None
        mismatch(node, predictions, labels, "evaluation alignment")
        return ShapeFact("metrics")
    return ShapeFact("unknown")
