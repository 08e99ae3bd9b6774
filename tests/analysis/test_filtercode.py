"""Per-rule fixtures for the AST filter-code lint (``C6xx``)."""

import textwrap

from repro.analysis import lint_class, lint_file, lint_graph_filters, lint_source
from repro.analysis.diagnostics import Severity
from repro.core import Filter, FilterGraph


def lint(code, **kw):
    return lint_source(textwrap.dedent(code), filename="fixture.py", **kw)


def rules_of(diags):
    return {d.rule for d in diags}


# -- C600 parse errors -------------------------------------------------------


def test_c600_syntax_error_reported_not_raised():
    (diag,) = lint("class Broken(Filter:\n    pass\n")
    assert diag.rule == "C600"
    assert diag.severity is Severity.ERROR
    assert "fixture.py" in diag.location


# -- C601 payload mutation after send ----------------------------------------


def test_c601_mutation_after_write():
    diags = lint(
        """
        class Bad(Filter):
            def handle(self, ctx, buffer):
                ctx.write(buffer)
                buffer.payload[0] = 0  # mutates what was already sent
        """
    )
    hits = [d for d in diags if d.rule == "C601"]
    assert len(hits) == 1
    assert hits[0].severity is Severity.ERROR
    assert hits[0].subject == "Bad.handle"
    assert hits[0].hint


def test_c601_attribute_mutation_after_write():
    diags = lint(
        """
        class Bad(Filter):
            def flush(self, ctx):
                out = DataBuffer(8, payload=self.acc)
                ctx.write(out)
                out.tags["late"] = True
        """
    )
    assert "C601" in rules_of(diags)


def test_c601_silent_when_mutation_precedes_write():
    diags = lint(
        """
        class Good(Filter):
            def handle(self, ctx, buffer):
                buffer.payload[0] = 1
                ctx.write(buffer)
        """
    )
    assert "C601" not in rules_of(diags)


def test_c601_silent_on_rebinding_bare_name():
    diags = lint(
        """
        class Good(Filter):
            def handle(self, ctx, buffer):
                ctx.write(buffer)
                buffer = None  # rebinding, not mutating the sent object
        """
    )
    assert "C601" not in rules_of(diags)


# -- C602 missing downstream output ------------------------------------------


def test_c602_handle_without_write_or_result():
    diags = lint(
        """
        class Sinkhole(Filter):
            def handle(self, ctx, buffer):
                self.total = buffer.payload
        """
    )
    hits = [d for d in diags if d.rule == "C602"]
    assert len(hits) == 1
    assert hits[0].severity is Severity.WARNING


def test_c602_silent_with_write_result_or_delegation():
    quiet = [
        """
        class Writer(Filter):
            def handle(self, ctx, buffer):
                ctx.write(buffer)
        """,
        """
        class Sink(Filter):
            def handle(self, ctx, buffer):
                self.total = buffer.payload
            def result(self):
                return self.total
        """,
        """
        class Wrapper(Filter):
            def handle(self, ctx, buffer):
                self._inner.handle(ctx, buffer)  # delegation writes for us
        """,
    ]
    for code in quiet:
        assert "C602" not in rules_of(lint(code)), code


# -- C603 blocking calls in the hot path -------------------------------------


def test_c603_blocking_calls_in_handle():
    diags = lint(
        """
        import time

        class Slow(Filter):
            def handle(self, ctx, buffer):
                time.sleep(0.1)
                with open("/tmp/log") as fh:
                    fh.read()
                ctx.write(buffer)
        """
    )
    hits = [d for d in diags if d.rule == "C603"]
    assert len(hits) == 2  # time.sleep and open
    assert all(d.severity is Severity.WARNING for d in hits)


def test_c603_silent_outside_hot_callbacks():
    diags = lint(
        """
        class Fine(Filter):
            def init(self, ctx):
                self.fh = open("/tmp/data")  # setup, not per-buffer

            def handle(self, ctx, buffer):
                ctx.write(buffer)
        """
    )
    assert "C603" not in rules_of(diags)


# -- C604 unpicklable state --------------------------------------------------


def test_c604_lock_and_lambda_state():
    diags = lint(
        """
        import threading

        class Stateful(Filter):
            scale = lambda self, x: x * 2

            def __init__(self):
                self.lock = threading.Lock()
                self.key = lambda b: b.tags["seq"]

            def handle(self, ctx, buffer):
                ctx.write(buffer)
        """
    )
    hits = [d for d in diags if d.rule == "C604"]
    assert len(hits) == 3  # class lambda, Lock(), instance lambda
    assert all(d.severity is Severity.WARNING for d in hits)


def test_c604_promoted_to_error_for_process_engine():
    code = """
    import threading

    class Stateful(Filter):
        def __init__(self):
            self.lock = threading.Lock()

        def handle(self, ctx, buffer):
            ctx.write(buffer)
    """
    (warn,) = [d for d in lint(code) if d.rule == "C604"]
    assert warn.severity is Severity.WARNING
    (err,) = [d for d in lint(code, process_engine=True) if d.rule == "C604"]
    assert err.severity is Severity.ERROR


def test_c604_silent_for_plain_state():
    diags = lint(
        """
        class Plain(Filter):
            def __init__(self):
                self.total = 0
                self.seen = []

            def handle(self, ctx, buffer):
                self.total += buffer.payload
                ctx.write(buffer)
        """
    )
    assert "C604" not in rules_of(diags)


# -- entry points ------------------------------------------------------------


def test_non_filter_classes_are_ignored():
    diags = lint(
        """
        class Helper:
            def handle(self, ctx, buffer):
                pass  # not a Filter subclass: out of scope
        """
    )
    assert diags == []


def test_lint_file_matches_lint_source(tmp_path):
    path = tmp_path / "filters.py"
    path.write_text(
        "class Bad(Filter):\n"
        "    def handle(self, ctx, buffer):\n"
        "        ctx.write(buffer)\n"
        "        buffer.payload[0] = 0\n"
    )
    diags = lint_file(path)
    assert rules_of(diags) == {"C601"}
    assert str(path) in diags[0].location


class MutatingFilter(Filter):
    def handle(self, ctx, buffer):
        ctx.write(buffer)
        buffer.tags["late"] = 1


def test_lint_class_on_live_class():
    diags = lint_class(MutatingFilter)
    assert rules_of(diags) == {"C601"}


def test_lint_graph_filters_covers_class_factories():
    g = FilterGraph()
    g.add_filter("src", factory=lambda: None, is_source=True)
    g.add_filter("bad", factory=MutatingFilter)
    g.connect("src", "bad")
    diags = lint_graph_filters(g)
    assert rules_of(diags) == {"C601"}
    # Closure factories have no linteable class source; they are skipped.
    g2 = FilterGraph()
    g2.add_filter("src", factory=lambda: MutatingFilter(), is_source=True)
    assert lint_graph_filters(g2) == []


def test_repo_filter_modules_lint_clean():
    from pathlib import Path

    root = Path(__file__).resolve().parents[2] / "src" / "repro"
    for path in sorted(root.rglob("*.py")):
        diags = lint_file(path)
        errors = [d for d in diags if d.severity is Severity.ERROR]
        assert not errors, f"{path}: {[str(d) for d in errors]}"


def test_c605_accumulator_never_reset():
    diags = lint(
        """
        class Leaky(Filter):
            def __init__(self):
                self.seen = []
                self.total = 0

            def handle(self, ctx, buffer):
                self.seen.append(buffer)
                self.total += 1
                ctx.write(buffer)
        """
    )
    assert rules_of(diags) == {"C605"}
    subjects = {d.subject for d in diags if d.rule == "C605"}
    assert subjects == {"Leaky.seen", "Leaky.total"}


def test_c605_flagged_when_only_init_dunder_resets():
    # __init__ runs once per copy lifetime; cycle reuse still leaks.
    diags = lint(
        """
        class FlushLeaky(Filter):
            def flush(self, ctx):
                self.emitted += 1
                ctx.write(DataBuffer(8, payload=self.emitted))
        """
    )
    assert rules_of(diags) == {"C605"}


def test_c605_silent_when_init_resets():
    diags = lint(
        """
        class Clean(Filter):
            def init(self, ctx):
                self.seen = []
                self.total = 0

            def handle(self, ctx, buffer):
                self.seen.append(buffer)
                self.total += 1
                ctx.write(buffer)
        """
    )
    assert "C605" not in rules_of(diags)


def test_c605_honours_init_reset_helpers_and_clear():
    diags = lint(
        """
        class Delegating(Filter):
            def init(self, ctx):
                self._reset()
                self.cache.clear()

            def _reset(self):
                self.total = 0

            def handle(self, ctx, buffer):
                self.total += 1
                self.cache.update({buffer.nbytes: buffer})
                ctx.write(buffer)
        """
    )
    assert "C605" not in rules_of(diags)
