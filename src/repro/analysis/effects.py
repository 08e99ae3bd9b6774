"""Pass 3: effect/purity inference over filter classes.

Classifies every filter as ``PURE`` / ``STATEFUL`` / ``IO`` /
``NONDETERMINISTIC`` from the AST of its class (attribute writes outside
``__init__``, random/time use, file/socket/dataset access, mutation of
input buffers), checks declarations (``FilterSpec.effects``) against the
inference, rolls summaries up to subgraphs and exposes
:func:`certify_memoisable` — the purity gate a result cache needs before
it may memoise a subgraph's output.

Inference is deliberately conservative: a filter is only ``PURE`` when
nothing in its class suggests otherwise, and an unresolvable factory
yields *unknown* (``EffectSummary.effect is None``), which certification
treats as impure.  ``__init__`` is exempt from the stateful check —
constructor configuration happens once per copy, before any data — but
``init()`` is not: per-cycle accumulators are exactly the state that
makes replay unsound.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from enum import IntEnum
from typing import TYPE_CHECKING, Any

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport
from repro.analysis.rules import RULES
from repro.errors import GraphError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.graph import FilterGraph, FilterSpec

__all__ = [
    "Effect",
    "EffectSummary",
    "MemoCertificate",
    "EFFECT_NAMES",
    "infer_class_effects",
    "spec_effects",
    "graph_effects",
    "subgraph_effect",
    "certify_memoisable",
    "verify_effects",
]


class Effect(IntEnum):
    """Effects lattice; rollups take the maximum (worst) member."""

    PURE = 0
    STATEFUL = 1
    IO = 2
    NONDETERMINISTIC = 3

    @property
    def label(self) -> str:
        """Lower-case name, as used by ``FilterSpec.effects``."""
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "Effect":
        """The effect named by ``text`` (``'pure'``, ``'io'``, ...)."""
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(f"unknown effects class {text!r}") from None


#: Valid ``FilterSpec.effects`` declarations.
EFFECT_NAMES: frozenset[str] = frozenset(e.label for e in Effect)


@dataclass(frozen=True)
class EffectSummary:
    """The effects classification of one filter.

    ``effect is None`` means *unknown*: no declaration and no resolvable
    class to infer from.  ``source`` records where the classification
    came from: ``"declared"`` (FilterSpec.effects), ``"inferred"`` (class
    AST), ``"assumed"`` (source filters with nothing else to go on are
    assumed at least IO) or ``"unknown"``.
    """

    effect: Effect | None
    source: str
    reasons: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        """Human-readable effect name (``'unknown'`` when unresolved)."""
        return self.effect.label if self.effect is not None else "unknown"


@dataclass
class MemoCertificate:
    """Result of :func:`certify_memoisable`.

    ``ok`` is True only when every member filter is provably PURE and the
    subgraph is convex; ``report`` carries the E7xx findings that justify
    a rejection (empty on success).
    """

    ok: bool
    subgraph: tuple[str, ...]
    effect: Effect | None
    members: dict[str, EffectSummary] = field(default_factory=dict)
    report: DiagnosticReport = field(default_factory=DiagnosticReport)


# -- class-level inference ---------------------------------------------------

#: Lifecycle callbacks examined by the inference.
_LIFECYCLE = frozenset({"__init__", "init", "handle", "process", "flush", "finalize"})

#: Dotted-call prefixes that mean blocking I/O wherever they appear.
_IO_CALL_PREFIXES: tuple[str, ...] = (
    "open",
    "socket.",
    "requests.",
    "urllib.",
    "http.",
    "subprocess.",
    "os.system",
    "os.popen",
    "os.read",
    "os.write",
    "os.remove",
    "os.makedirs",
    "shutil.",
    "np.load",
    "np.save",
    "numpy.load",
    "numpy.save",
    "pickle.load",
    "pickle.dump",
)

#: Attribute-chain segments that mark a self attribute as an I/O handle
#: (``self.dataset.chunk_field(...)`` reads from external storage).
_IO_ATTR_HINTS: frozenset[str] = frozenset(
    {
        "dataset",
        "storage",
        "store",
        "stores",
        "reader",
        "file",
        "files",
        "fh",
        "db",
        "conn",
        "client",
        "sock",
        "socket",
    }
)

#: Dotted-call prefixes that mean nondeterministic input.
_NONDET_CALL_PREFIXES: tuple[str, ...] = (
    "random.",
    "np.random.",
    "numpy.random.",
    "secrets.",
    "uuid.uuid",
    "os.urandom",
    "time.time",
    "time.monotonic",
    "time.perf_counter",
    "time.time_ns",
)


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` as a string for Name/Attribute chains, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _target_root(node: ast.AST) -> ast.AST:
    """The innermost value of an assignment target chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node


def _is_self_write(target: ast.AST) -> bool:
    """True when an assignment target is an attribute/item of ``self``."""
    if not isinstance(target, (ast.Attribute, ast.Subscript)):
        return False
    root = _target_root(target)
    return isinstance(root, ast.Name) and root.id == "self"


class _MethodScan(ast.NodeVisitor):
    """Collect effect evidence from one method body."""

    def __init__(self, method: str, params: frozenset[str]) -> None:
        self.method = method
        self.params = params
        self.reasons: dict[Effect, list[str]] = {
            Effect.STATEFUL: [],
            Effect.IO: [],
            Effect.NONDETERMINISTIC: [],
        }

    def _note(self, effect: Effect, text: str) -> None:
        self.reasons[effect].append(f"{self.method}(): {text}")

    def _scan_targets(self, targets: Iterable[ast.AST]) -> None:
        if self.method == "__init__":
            return  # constructor configuration is not per-cycle state
        for target in targets:
            if _is_self_write(target):
                self._note(
                    Effect.STATEFUL, f"writes {_dotted(target) or 'self attribute'}"
                )
            else:
                root = _target_root(target)
                if (
                    isinstance(target, (ast.Attribute, ast.Subscript))
                    and isinstance(root, ast.Name)
                    and root.id in self.params
                ):
                    self._note(
                        Effect.STATEFUL,
                        f"mutates its argument {root.id!r} (escaping mutation)",
                    )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._scan_targets(node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._scan_targets([node.target])
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._scan_targets([node.target])
        self.generic_visit(node)

    def visit_Expr(self, node: ast.Expr) -> None:
        # A discarded call through a self attribute chain mutates that
        # state for its effect (self._zbuf.rasterize(...)).
        if self.method != "__init__" and isinstance(node.value, ast.Call):
            dotted = _dotted(node.value.func)
            if dotted and dotted.startswith("self."):
                self._note(Effect.STATEFUL, f"calls {dotted}() for effect")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is not None:
            if dotted == "open" or any(
                dotted == p.rstrip(".") or dotted.startswith(p)
                for p in _IO_CALL_PREFIXES
            ):
                self._note(Effect.IO, f"calls {dotted}()")
            if any(
                dotted == p.rstrip(".") or dotted.startswith(p)
                for p in _NONDET_CALL_PREFIXES
            ):
                self._note(Effect.NONDETERMINISTIC, f"calls {dotted}()")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        dotted = _dotted(node)
        if isinstance(node.ctx, ast.Load) and dotted and dotted.startswith("self."):
            segments = dotted.split(".")[1:-1] or dotted.split(".")[1:]
            if any(seg.lstrip("_") in _IO_ATTR_HINTS for seg in segments):
                self._note(Effect.IO, f"reads through I/O handle {dotted}")
        self.generic_visit(node)


def _class_node(cls: type) -> ast.ClassDef | None:
    try:
        source = textwrap.dedent(inspect.getsource(cls))
        tree = ast.parse(source)
    except (OSError, TypeError, SyntaxError, IndentationError):
        return None
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            return node
    return None


_CLASS_CACHE: dict[type, EffectSummary] = {}


def infer_class_effects(cls: type) -> EffectSummary:
    """Infer the effects class of a filter class from its AST.

    Walks the class **and its base classes** (a raster filter inherits
    its camera latch from ``_RasterBase``); evidence accumulates and the
    result is the worst effect found.  Unreadable source yields unknown.
    """
    cached = _CLASS_CACHE.get(cls)
    if cached is not None:
        return cached
    reasons: dict[Effect, list[str]] = {
        Effect.STATEFUL: [],
        Effect.IO: [],
        Effect.NONDETERMINISTIC: [],
    }
    saw_source = False
    for klass in cls.__mro__:
        if klass is object or klass.__module__ in ("repro.core.filter",):
            continue
        node = _class_node(klass)
        if node is None:
            continue
        saw_source = True
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = frozenset(
                a.arg for a in item.args.args if a.arg not in ("self", "ctx")
            )
            scan = _MethodScan(item.name, params)
            for stmt in item.body:
                scan.visit(stmt)
            for effect, found in scan.reasons.items():
                reasons[effect].extend(found)
    if not saw_source:
        summary = EffectSummary(None, "unknown", ("class source unavailable",))
    else:
        effect = Effect.PURE
        collected: list[str] = []
        for candidate in (Effect.STATEFUL, Effect.IO, Effect.NONDETERMINISTIC):
            if reasons[candidate]:
                effect = max(effect, candidate)
                collected.extend(reasons[candidate][:3])
        summary = EffectSummary(effect, "inferred", tuple(collected))
    _CLASS_CACHE[cls] = summary
    return summary


def _resolve_factory_class(factory: Any) -> type | None:
    """The filter class a factory builds, if statically resolvable.

    Handles direct class factories and the common closure idioms
    ``lambda: ExtractFilter(iso)`` / ``lambda: real.ExtractFilter(iso)``
    by scanning the code object's names against its globals and closure.
    """
    if isinstance(factory, type):
        return factory
    code = getattr(factory, "__code__", None)
    if code is None:
        func = getattr(factory, "func", None)  # functools.partial
        return _resolve_factory_class(func) if func is not None else None
    namespace: dict[str, Any] = dict(getattr(factory, "__globals__", {}))
    closure = getattr(factory, "__closure__", None)
    if closure:
        namespace.update(
            {
                name: cell.cell_contents
                for name, cell in zip(code.co_freevars, closure)
            }
        )
    names = list(code.co_names) + list(code.co_freevars)
    candidates: list[type] = []
    for name in names:
        obj = namespace.get(name)
        if isinstance(obj, type):
            candidates.append(obj)
        elif obj is not None and inspect.ismodule(obj):
            for attr in names:
                sub = getattr(obj, attr, None)
                if isinstance(sub, type):
                    candidates.append(sub)
    for candidate in candidates:
        if any(k.__name__.endswith("Filter") for k in candidate.__mro__):
            return candidate
    return candidates[0] if candidates else None


def spec_effects(spec: "FilterSpec") -> EffectSummary:
    """The effects classification of one filter spec.

    A valid declaration wins; otherwise the real ``factory`` (never the
    simulation cost model) is resolved and inferred.  Source filters
    with no declaration are at least IO — they produce data from the
    outside world.
    """
    if spec.effects is not None and spec.effects in EFFECT_NAMES:
        return EffectSummary(Effect.parse(spec.effects), "declared")
    cls = _resolve_factory_class(spec.factory) if spec.factory is not None else None
    if cls is None:
        if spec.is_source:
            return EffectSummary(
                Effect.IO, "assumed", ("source filters read external data",)
            )
        return EffectSummary(None, "unknown", ("factory is not resolvable",))
    inferred = infer_class_effects(cls)
    if spec.is_source and inferred.effect is not None:
        return EffectSummary(
            max(inferred.effect, Effect.IO),
            inferred.source,
            inferred.reasons + ("source filters read external data",),
        )
    return inferred


def graph_effects(graph: "FilterGraph") -> dict[str, EffectSummary]:
    """Effect summaries for every filter in the graph, by name."""
    return {name: spec_effects(spec) for name, spec in graph.filters.items()}


def subgraph_effect(
    summaries: Mapping[str, EffectSummary], members: Iterable[str]
) -> Effect | None:
    """Roll member effects up to the subgraph (None if any is unknown)."""
    worst = Effect.PURE
    for name in members:
        summary = summaries[name]
        if summary.effect is None:
            return None
        worst = max(worst, summary.effect)
    return worst


def verify_effects(graph: "FilterGraph") -> list[Diagnostic]:
    """Run the graph-wide ``E7xx`` rules (E701 declaration, E702 nondet)."""
    out: list[Diagnostic] = []
    for name, spec in graph.filters.items():
        declared: Effect | None = None
        if spec.effects is not None and spec.effects in EFFECT_NAMES:
            declared = Effect.parse(spec.effects)
        cls = _resolve_factory_class(spec.factory) if spec.factory is not None else None
        inferred = infer_class_effects(cls) if cls is not None else None
        if (
            declared is not None
            and inferred is not None
            and inferred.effect is not None
            and declared < inferred.effect
        ):
            evidence = "; ".join(inferred.reasons[:3])
            out.append(
                RULES["E701"].diagnostic(
                    name,
                    f"filter {name!r} declares effects={declared.label!r} but "
                    f"its code infers {inferred.effect.label!r} ({evidence})",
                )
            )
        resolved = spec_effects(spec)
        if resolved.effect is Effect.NONDETERMINISTIC:
            evidence = "; ".join(resolved.reasons[:2]) or "declared"
            out.append(
                RULES["E702"].diagnostic(
                    name,
                    f"filter {name!r} is nondeterministic ({evidence}); "
                    f"replay cannot reproduce its output",
                )
            )
    return out


def certify_memoisable(
    graph: "FilterGraph", subgraph: Iterable[str]
) -> MemoCertificate:
    """Certify that a subgraph's output may be memoised.

    The certificate is granted only when (a) every member filter is
    provably ``PURE`` — declared or inferred — (b) no member is of
    unknown effect, and (c) the subgraph is *convex*: no path leaves the
    member set and re-enters it.  Rejections carry E703/E704/E705
    diagnostics naming the offending filters.
    """
    members = tuple(dict.fromkeys(subgraph))
    if not members:
        raise GraphError("cannot certify an empty subgraph")
    for name in members:
        if name not in graph.filters:
            raise GraphError(f"unknown filter {name!r} in subgraph")
    report = DiagnosticReport()
    summaries: dict[str, EffectSummary] = {}
    for name in members:
        summary = spec_effects(graph.filters[name])
        summaries[name] = summary
        if summary.effect is None:
            report.append(
                RULES["E704"].diagnostic(
                    name,
                    f"filter {name!r} has unknown effects "
                    f"({'; '.join(summary.reasons) or 'no evidence'}); "
                    f"the certifier must assume it is impure",
                )
            )
        elif summary.effect is not Effect.PURE:
            evidence = "; ".join(summary.reasons[:3]) or summary.source
            report.append(
                RULES["E703"].diagnostic(
                    name,
                    f"filter {name!r} is {summary.label} ({evidence}); "
                    f"memoising its output would replay stale state",
                )
            )

    # Convexity: an outside filter both reachable from the member set
    # and reaching back into it sits on a member-to-member path.
    member_set = set(members)
    downstream: set[str] = set()
    upstream: set[str] = set()
    for name in members:
        downstream |= graph.downstream_of(name)
        upstream |= graph.upstream_of(name)
    straddlers = sorted((downstream & upstream) - member_set)
    if straddlers:
        report.append(
            RULES["E705"].diagnostic(
                ",".join(members),
                f"subgraph is not convex: {straddlers} sit on paths "
                f"between members but are not included",
            )
        )
    return MemoCertificate(
        ok=not report.diagnostics,
        subgraph=members,
        effect=subgraph_effect(summaries, members),
        members=summaries,
        report=report,
    )
