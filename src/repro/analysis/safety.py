"""Registry-facing purity/parallel-safety layer on top of :mod:`effects`.

Where :mod:`repro.analysis.effects` analyzes *AST nodes*, this module
analyzes *registered operations*: it takes each callable's body node
and module context from the parse-once substrate
(:mod:`repro.analysis.facts`), runs the effect visitor against them,
folds in runtime facts the AST cannot see (mutable objects captured in
``fn.__closure__``), and publishes the result as an
:class:`EffectReport` with stable diagnostic codes L021--L027.

The engine consults these reports to decide, per step, whether the
result cache may memoize the output and whether the parallel wave
scheduler may run the step concurrently; ``repro audit`` renders the
same reports for humans and CI.  ``pass_effects`` is the template-level
bridge: it warns (L028) on steps whose operation the engine will
neither cache nor parallelize.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.effects import (
    IO,
    PURE,
    SEEDED,
    STATEFUL,
    EffectFinding,
    EffectKind,
    FunctionEffects,
    analyze_function,
)
from repro.analysis.facts import function_facts, memo_report

__all__ = [
    "EffectReport",
    "operation_report",
    "function_effects",
    "audit_registry",
    "pass_effects",
    "PURE",
    "SEEDED",
    "STATEFUL",
    "IO",
]

#: finding kind -> (diagnostic code, severity); PARAM_SEEDED_RNG is the
#: desired state and maps to no diagnostic at all.
_KIND_TO_CODE = {
    EffectKind.MUTATES_INPUT: ("L021", Severity.ERROR),
    EffectKind.MUTATES_PARAMS: ("L021", Severity.ERROR),
    EffectKind.WRITES_GLOBAL: ("L022", Severity.ERROR),
    EffectKind.MUTABLE_CLOSURE: ("L022", Severity.ERROR),
    EffectKind.READS_MUTABLE_GLOBAL: ("L023", Severity.ERROR),
    EffectKind.UNSEEDED_RNG: ("L024", Severity.ERROR),
    EffectKind.CONST_SEEDED_RNG: ("L025", Severity.WARNING),
    EffectKind.PERFORMS_IO: ("L026", Severity.WARNING),
    EffectKind.SOURCE_UNAVAILABLE: ("L027", Severity.WARNING),
}

_IMMUTABLE_CLOSURE_TYPES = (
    int,
    float,
    complex,
    bool,
    str,
    bytes,
    tuple,
    frozenset,
    type(None),
    type,
)


@dataclass(frozen=True)
class EffectReport:
    """The engine-facing verdict for one registered operation."""

    operation: str
    purity: str
    seed_params: tuple
    findings: tuple
    diagnostics: tuple

    @property
    def cacheable(self) -> bool:
        """May the result cache memoize this op's output?"""
        return self.purity in (PURE, SEEDED)

    @property
    def parallel_safe(self) -> bool:
        """May the wave scheduler run this op concurrently?"""
        return self.purity in (PURE, SEEDED)

    def codes(self) -> tuple:
        return tuple(sorted({d.code for d in self.diagnostics}))

    def to_dict(self) -> dict:
        # Deterministic on purpose: the JSON audit is diffed in CI, so
        # findings sort by (line, kind, detail) rather than AST-walk
        # order and seed params are alphabetical.
        return {
            "operation": self.operation,
            "purity": self.purity,
            "cacheable": self.cacheable,
            "parallel_safe": self.parallel_safe,
            "seed_params": sorted(self.seed_params),
            "codes": list(self.codes()),
            "findings": sorted(
                (
                    {"kind": f.kind.value, "line": f.line, "detail": f.detail}
                    for f in self.findings
                ),
                key=lambda f: (f["line"], f["kind"], f["detail"]),
            ),
        }


def _closure_findings(fn) -> list:
    """Mutable objects captured by reference in ``fn.__closure__``."""
    findings = []
    cells = getattr(fn, "__closure__", None) or ()
    names = getattr(fn.__code__, "co_freevars", ()) if hasattr(fn, "__code__") else ()
    for name, cell in zip(names, cells):
        try:
            value = cell.cell_contents
        except ValueError:  # empty cell
            continue
        if callable(value) or isinstance(value, _IMMUTABLE_CLOSURE_TYPES):
            continue
        findings.append(
            EffectFinding(
                kind=EffectKind.MUTABLE_CLOSURE,
                line=getattr(fn.__code__, "co_firstlineno", 0),
                detail=(
                    f"captures mutable {type(value).__name__} {name!r}"
                    " by closure"
                ),
            )
        )
    return findings


def function_effects(fn) -> FunctionEffects:
    """Effect analysis for a live callable (source + runtime closure)."""
    found = function_facts(fn)
    if found.node is None:
        name = getattr(fn, "__name__", repr(fn))
        return FunctionEffects(
            name=name,
            findings=[
                EffectFinding(
                    kind=EffectKind.SOURCE_UNAVAILABLE,
                    line=0,
                    detail=f"cannot recover source for {name}",
                )
            ],
        )
    fx = analyze_function(found.node, module=found.context)
    fx.findings.extend(_closure_findings(fn))
    return fx


def _diagnostics_for(name: str, fx: FunctionEffects) -> tuple:
    out = []
    for finding in fx.findings:
        mapped = _KIND_TO_CODE.get(finding.kind)
        if mapped is None:
            continue
        code, severity = mapped
        out.append(
            Diagnostic(
                code=code,
                severity=severity,
                message=f"{finding.detail} (line {finding.line})",
                operation=name,
                hint="copy before mutating, thread seeds through params,"
                " and keep module state behind UPPER_CASE constants",
            )
        )
    return tuple(out)


def _build_report(operation) -> EffectReport:
    fx = function_effects(operation.fn)
    return EffectReport(
        operation=operation.name,
        purity=fx.purity,
        seed_params=fx.seed_params,
        findings=tuple(fx.findings),
        diagnostics=_diagnostics_for(operation.name, fx),
    )


def operation_report(operation) -> EffectReport:
    """The memoised :class:`EffectReport` for a registered operation."""
    return memo_report("effects", operation, _build_report)


def audit_registry(operations=None) -> dict:
    """``{name: EffectReport}`` for every registered operation."""
    if operations is None:
        from repro.core.operations import OPERATIONS

        operations = OPERATIONS
    return {
        name: operation_report(op) for name, op in sorted(operations.items())
    }


def pass_effects(graph, diagnostics) -> None:
    """Template-level pass: warn on steps the engine must gate (L028)."""
    for node in graph.nodes:
        if node.operation is None:
            continue
        report = operation_report(node.operation)
        if report.cacheable and report.parallel_safe:
            continue
        codes = ", ".join(report.codes()) or "no findings"
        diagnostics.append(
            Diagnostic(
                code="L028",
                severity=Severity.WARNING,
                message=(
                    f"operation implementation is {report.purity} ({codes}):"
                    " the engine will not cache this step and will serialize"
                    " it in parallel mode"
                ),
                step=node.index,
                operation=node.func,
                hint="run `repro audit -v` for per-finding detail",
            )
        )
