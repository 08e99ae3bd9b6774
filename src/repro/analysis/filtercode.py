"""Pass 2: AST lint of :class:`~repro.core.filter.Filter` subclasses.

Pure stdlib-``ast`` analysis — nothing is imported or executed, so the
lint runs safely over ``examples/*.py`` pipeline definitions in CI.  A
class is considered filter code when any base name is ``Filter`` or ends
with ``Filter`` (covers ``real.ReadFilter``-style attribute bases).

Rules (``C6xx`` in the catalogue):

- **C601** payload mutation after ``ctx.write(...)`` in the same callback;
- **C602** a filter that overrides ``handle``/``process`` but never writes
  downstream nor exposes ``result()`` (nothing ever reaches consumers
  beyond the end-of-work marker);
- **C603** blocking calls (``time.sleep``, file/network I/O) inside the
  per-buffer ``handle``/``process`` callback;
- **C604** unpicklable state on ``self`` (lambdas, locks, open handles) —
  promoted from WARNING to ERROR when the pipeline targets the process
  engine, whose workers cross a fork/pickle boundary;
- **C605** accumulator attributes grown from ``handle``/``flush`` but
  never reset in ``init`` — stale state leaks across cycles when the
  instance is reused by ``run_cycles`` or a warm pool.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from pathlib import Path
from typing import Any

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.rules import RULES

__all__ = ["lint_source", "lint_file", "lint_class", "lint_graph_filters"]

#: Callback methods whose bodies are linted.
CALLBACK_METHODS = frozenset(
    {"init", "handle", "flush", "finalize", "process", "__init__"}
)

#: The per-buffer hot path: blocking calls here stall the whole copy set.
HOT_CALLBACKS = frozenset({"handle", "process"})

#: Dotted-name prefixes considered blocking in a per-buffer callback.
_BLOCKING_PREFIXES = (
    "time.sleep",
    "os.system",
    "os.popen",
    "subprocess.",
    "socket.",
    "requests.",
    "urllib.",
    "http.client.",
)

#: Bare call names considered blocking in a per-buffer callback.
_BLOCKING_NAMES = frozenset({"open", "input", "sleep"})

#: Container methods that grow state in place (C605 accumulation).
_ACCUMULATE_METHODS = frozenset({"append", "extend", "update", "add"})

#: Constructors whose results cannot cross a fork/pickle boundary.
_UNPICKLABLE_CALLS = (
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "threading.Event",
    "multiprocessing.Lock",
    "multiprocessing.RLock",
    "open",
)


def _dotted_name(node: ast.expr) -> str:
    """``a.b.c`` for an Attribute/Name chain, else an empty string."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _root_name(node: ast.expr) -> str:
    """The leftmost Name of a Name/Attribute/Subscript chain, else ''."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _is_filter_class(node: ast.ClassDef) -> bool:
    """Heuristic: the class subclasses (something named like) Filter."""
    for base in node.bases:
        name = _dotted_name(base)
        short = name.rsplit(".", 1)[-1]
        if short == "Filter" or short.endswith("Filter"):
            return True
    return False


def _ordered_nodes(fn: ast.FunctionDef) -> list[ast.AST]:
    """Every node of a function body in source order."""
    nodes = [n for n in ast.walk(fn) if hasattr(n, "lineno")]
    nodes.sort(key=lambda n: (n.lineno, n.col_offset))
    return nodes


class _ClassLint:
    """Collects ``C6xx`` findings for one filter class definition."""

    def __init__(self, node: ast.ClassDef, filename: str, process_engine: bool) -> None:
        self.node = node
        self.filename = filename
        self.process_engine = process_engine
        self.findings: list[Diagnostic] = []

    def _loc(self, node: ast.AST) -> str:
        return f"{self.filename}:{getattr(node, 'lineno', self.node.lineno)}"

    def run(self) -> list[Diagnostic]:
        methods = {
            item.name: item
            for item in self.node.body
            if isinstance(item, ast.FunctionDef)
        }
        writes = False
        for name, fn in methods.items():
            for sub in ast.walk(fn):
                if isinstance(sub, ast.Call) and isinstance(
                    sub.func, ast.Attribute
                ):
                    if sub.func.attr == "write":
                        writes = True
                    elif (
                        sub.func.attr in ("handle", "flush")
                        and _root_name(sub.func.value) == "self"
                    ):
                        writes = True  # delegation to an inner filter
            if name in CALLBACK_METHODS:
                self._check_mutation_after_send(name, fn)
            if name in HOT_CALLBACKS:
                self._check_blocking_calls(name, fn)
            self._check_unpicklable_state(name, fn)
        self._check_class_level_state()
        self._check_stale_cycle_state(methods)
        overrides_handle = bool(HOT_CALLBACKS & set(methods))
        if overrides_handle and not writes and "result" not in methods:
            self.findings.append(
                RULES["C602"].diagnostic(
                    self.node.name,
                    f"{self.node.name} overrides handle() but never calls "
                    f"ctx.write() and has no result(); downstream filters "
                    f"would only ever see its end-of-work marker",
                    location=self._loc(self.node),
                )
            )
        return self.findings

    # -- C601 ---------------------------------------------------------------
    def _check_mutation_after_send(self, method: str, fn: ast.FunctionDef) -> None:
        sent: dict[str, int] = {}  # name -> line of first write()
        for node in _ordered_nodes(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "write"
                and node.args
            ):
                name = _root_name(node.args[0])
                if name and name not in sent:
                    sent[name] = node.lineno
                continue
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if not isinstance(target, (ast.Subscript, ast.Attribute)):
                    continue  # rebinding a bare name is not a mutation
                name = _root_name(target)
                if name in sent and node.lineno > sent[name]:
                    self.findings.append(
                        RULES["C601"].diagnostic(
                            f"{self.node.name}.{method}",
                            f"{self.node.name}.{method} mutates {name!r} on "
                            f"line {node.lineno} after writing it downstream "
                            f"on line {sent[name]}",
                            location=self._loc(node),
                        )
                    )

    # -- C603 ---------------------------------------------------------------
    def _check_blocking_calls(self, method: str, fn: ast.FunctionDef) -> None:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func)
            if not name:
                continue
            blocking = name in _BLOCKING_NAMES or any(
                name == p or name.startswith(p) for p in _BLOCKING_PREFIXES
            )
            if blocking:
                self.findings.append(
                    RULES["C603"].diagnostic(
                        f"{self.node.name}.{method}",
                        f"{self.node.name}.{method} calls blocking "
                        f"{name}() in the per-buffer callback",
                        location=self._loc(node),
                    )
                )

    # -- C604 ---------------------------------------------------------------
    def _unpicklable_value(self, value: ast.expr) -> str:
        if isinstance(value, ast.Lambda):
            return "a lambda"
        if isinstance(value, ast.GeneratorExp):
            return "a generator"
        if isinstance(value, ast.Call):
            name = _dotted_name(value.func)
            short = name.rsplit(".", 1)[-1]
            if name in _UNPICKLABLE_CALLS or short in ("Lock", "RLock"):
                return f"{name}()"
        return ""

    def _check_unpicklable_state(self, method: str, fn: ast.FunctionDef) -> None:
        severity = Severity.ERROR if self.process_engine else None
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign) or node.value is None:
                continue
            what = self._unpicklable_value(node.value)
            if not what:
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    self.findings.append(
                        RULES["C604"].diagnostic(
                            f"{self.node.name}.{method}",
                            f"{self.node.name}.{method} stores {what} on "
                            f"self.{target.attr}; it cannot cross the "
                            f"process engine's fork/pickle boundary",
                            severity=severity,
                            location=self._loc(node),
                        )
                    )

    # -- C605 ---------------------------------------------------------------
    @staticmethod
    def _self_attr(node: ast.expr) -> str:
        """``x`` for a ``self.x`` expression, else an empty string."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return ""

    def _attrs_reset_in(self, fn: ast.FunctionDef) -> set[str]:
        """Attributes a method (re)binds or clears on ``self``."""
        reset: set[str] = set()
        for node in ast.walk(fn):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                attr = self._self_attr(target)
                if attr:
                    reset.add(attr)
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "clear"
            ):
                attr = self._self_attr(node.func.value)
                if attr:
                    reset.add(attr)
        return reset

    def _check_stale_cycle_state(
        self, methods: dict[str, ast.FunctionDef]
    ) -> None:
        """C605: accumulators grown per buffer but never re-armed per cycle.

        ``init`` runs once per cycle; ``__init__`` once per copy lifetime.
        An attribute that only ever grows from ``handle``/``flush`` carries
        the previous unit of work into the next whenever the instance is
        reused (``run_cycles``, warm pools).  Resets performed by helper
        methods the ``init`` body calls on ``self`` are honoured one level
        deep (the ``def init(self, ctx): self._reset()`` idiom).
        """
        grown: dict[str, tuple[str, ast.AST]] = {}
        for name in ("handle", "process", "flush"):
            fn = methods.get(name)
            if fn is None:
                continue
            for node in ast.walk(fn):
                attr = ""
                if isinstance(node, ast.AugAssign):
                    attr = self._self_attr(node.target)
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _ACCUMULATE_METHODS
                ):
                    attr = self._self_attr(node.func.value)
                if attr and attr not in grown:
                    grown[attr] = (name, node)
        if not grown:
            return
        reset: set[str] = set()
        init_fn = methods.get("init")
        if init_fn is not None:
            reset |= self._attrs_reset_in(init_fn)
            for node in ast.walk(init_fn):
                if isinstance(node, ast.Call):
                    helper = methods.get(self._self_attr(node.func))
                    if helper is not None:
                        reset |= self._attrs_reset_in(helper)
        for attr, (method, node) in sorted(grown.items()):
            if attr in reset:
                continue
            self.findings.append(
                RULES["C605"].diagnostic(
                    f"{self.node.name}.{attr}",
                    f"{self.node.name}.{method} grows self.{attr} but "
                    f"init() never resets it; the accumulator carries the "
                    f"previous cycle's data when the copy is reused "
                    f"(run_cycles, warm pools)",
                    location=self._loc(node),
                )
            )

    def _check_class_level_state(self) -> None:
        severity = Severity.ERROR if self.process_engine else None
        for item in self.node.body:
            if isinstance(item, ast.Assign) and isinstance(
                item.value, ast.Lambda
            ):
                for target in item.targets:
                    if isinstance(target, ast.Name):
                        self.findings.append(
                            RULES["C604"].diagnostic(
                                f"{self.node.name}.{target.id}",
                                f"{self.node.name}.{target.id} is a "
                                f"class-level lambda; it cannot cross the "
                                f"process engine's fork/pickle boundary",
                                severity=severity,
                                location=self._loc(item),
                            )
                        )


def lint_source(
    source: str,
    filename: str = "<string>",
    process_engine: bool = False,
) -> list[Diagnostic]:
    """Lint every filter class defined in ``source`` (no imports, pure AST)."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [
            RULES["C600"].diagnostic(
                filename,
                f"cannot parse {filename}: {exc.msg}",
                location=f"{filename}:{exc.lineno or 0}",
            )
        ]
    findings: list[Diagnostic] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_filter_class(node):
            findings.extend(_ClassLint(node, filename, process_engine).run())
    findings.sort(key=lambda d: (d.location, d.rule))
    return findings


def lint_file(
    path: str | Path, process_engine: bool = False
) -> list[Diagnostic]:
    """Lint one Python file without importing it."""
    path = Path(path)
    return lint_source(
        path.read_text(encoding="utf-8"),
        filename=str(path),
        process_engine=process_engine,
    )


def lint_class(cls: type, process_engine: bool = False) -> list[Diagnostic]:
    """Lint one live filter class via its source (``inspect.getsource``)."""
    try:
        source = textwrap.dedent(inspect.getsource(cls))
        filename = inspect.getsourcefile(cls) or "<class>"
    except (OSError, TypeError):
        return []  # dynamically built classes have no linteable source
    tree = ast.parse(source)
    findings: list[Diagnostic] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls.__name__:
            findings.extend(_ClassLint(node, filename, process_engine).run())
            break
    return findings


def lint_graph_filters(
    graph: Any, process_engine: bool = False
) -> list[Diagnostic]:
    """Lint the filter classes a graph's factories directly expose.

    Only factories that *are* classes can be linted statically; closure
    factories (the common idiom) are covered by linting their defining
    module with :func:`lint_file`.
    """
    findings: list[Diagnostic] = []
    for spec in graph.filters.values():
        factory = spec.factory
        if isinstance(factory, type):
            findings.extend(lint_class(factory, process_engine=process_engine))
    return findings
