"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def test_experiments_single(capsys):
    assert main(["experiments", "table1", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "Ra->M" in out


def test_experiments_unknown_name(capsys):
    assert main(["experiments", "bogus"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_render_writes_ppm(tmp_path, capsys):
    out = tmp_path / "img.ppm"
    code = main(
        [
            "render",
            "--grid", "17",
            "--image", "48",
            "--chunks", "8",
            "--files", "4",
            "--out", str(out),
        ]
    )
    assert code == 0
    data = out.read_bytes()
    assert data.startswith(b"P6 48 48 255\n")
    assert len(data) == len(b"P6 48 48 255\n") + 48 * 48 * 3
    assert "active pixels" in capsys.readouterr().out


def test_render_zbuffer_rera(tmp_path):
    out = tmp_path / "img.ppm"
    code = main(
        [
            "render",
            "--grid", "13",
            "--image", "32",
            "--chunks", "8",
            "--files", "4",
            "--config", "RERa-M",
            "--algorithm", "zbuffer",
            "--copies", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert out.exists()


def test_simulate_prints_makespan(capsys):
    code = main(
        [
            "simulate",
            "--scale", "0.01",
            "--rogue", "2",
            "--blue", "2",
            "--bg-jobs", "4",
            "--policy", "DD",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "makespan" in out
    assert "acks" in out  # DD generates acknowledgment traffic


def test_simulate_policy_variants(capsys):
    for policy in ("RR", "WRR"):
        assert main(
            ["simulate", "--scale", "0.01", "--rogue", "1", "--blue", "1",
             "--policy", policy, "--image", "512"]
        ) == 0


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_bad_choice():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate", "--policy", "MAGIC"])


@pytest.mark.parametrize("command", ["render", "simulate", "serve", "lint"])
def test_parser_choices_are_the_session_vocabulary(command):
    """--policy (and --algorithm) list repro.configurations' tuples; tile
    routing is no session policy, so TILE is refused."""
    from repro.configurations import ALGORITHMS, POLICIES

    parser = build_parser()
    for name in POLICIES:
        assert parser.parse_args([command, "--policy", name]).policy == name
    if command != "lint":
        for name in ALGORITHMS:
            assert parser.parse_args([command, "--algorithm", name]).algorithm == name
    with pytest.raises(SystemExit):
        parser.parse_args([command, "--policy", "TILE"])


def test_simulate_trace_timeline(capsys):
    code = main(
        ["simulate", "--scale", "0.01", "--rogue", "1", "--blue", "1",
         "--trace", "--image", "512"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "trace" in out
    assert "|" in out  # the timeline strips


def test_simulate_trace_out_and_trace_subcommand(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    code = main(
        ["simulate", "--scale", "0.01", "--rogue", "1", "--blue", "1",
         "--policy", "DD", "--image", "512", "--trace-out", str(path)]
    )
    assert code == 0
    assert "events ->" in capsys.readouterr().out
    assert path.exists()

    code = main(["trace", str(path), "--width", "40"])
    assert code == 0
    out = capsys.readouterr().out
    assert "clock: sim" in out
    assert "per-copy utilisation" in out
    assert "|" in out  # the timeline strips


def test_render_trace_out_round_trips(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    code = main(
        [
            "render",
            "--grid", "13",
            "--image", "32",
            "--chunks", "8",
            "--files", "4",
            "--out", str(tmp_path / "img.ppm"),
            "--trace-out", str(path),
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert main(["trace", str(path)]) == 0
    assert "clock: wall" in capsys.readouterr().out


def test_trace_missing_file(tmp_path, capsys):
    assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
    assert "cannot read trace" in capsys.readouterr().err


def test_trace_corrupt_file(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text("this is not jsonl\n")
    assert main(["trace", str(path)]) == 2
    assert "malformed trace" in capsys.readouterr().err


META_V2 = '{"type": "meta", "version": 2, "clock": "sim", "dropped": 0}\n'


@pytest.mark.parametrize(
    "text, line",
    [
        (META_V2 + '{"type": "event", "end": 1.0, "copy": "c", "kind": "recv"}\n', 2),
        (META_V2 + '{"type": "queue", "t": 0.0, "queue": "q"}\n', 2),
        (META_V2 + "[1, 2]\n", 2),
        ('{"type": "meta", "version": 1, "clock": "sim", "dropped": 0}\n'
         '{"type": "event", "t": 1.0, "copy": "c", "kind": "recv", "detail": ""}\n', 1),
    ],
    ids=["event-without-t", "queue-without-depth", "not-an-object",
         "version-1"],
)
def test_trace_malformed_file(tmp_path, capsys, text, line):
    """Every malformed record is one stderr line naming it, and exit 2."""
    path = tmp_path / "bad.jsonl"
    path.write_text(text)
    assert main(["trace", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"malformed trace {str(path)!r}: trace line {line}: ")
    assert err.count("\n") == 1


def test_trace_rejects_bad_width(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(META_V2)
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace", str(path), "--width", "0"])


# -- lint --------------------------------------------------------------------

BAD_PIPELINE_MODULE = """\
from repro.core.graph import FilterGraph
from repro.core.placement import Placement

graph = FilterGraph()
graph.add_filter("a", is_source=True)
graph.add_filter("b")
graph.add_filter("merge", phase_synchronised=True)
graph.add_filter("floating")
graph.connect("a", "b")
graph.connect("a", "merge")
graph.connect("b", "merge")

placement = Placement()
placement.place("a", ["h0"])
placement.place("b", [("h0", 1), ("h1", 1)])
placement.place("merge", [("h0", 2)])
placement.place("ghost", ["h0"])
"""


def test_lint_rules_catalogue(capsys):
    assert main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("G102", "P203", "W302", "Z401", "E703"):
        assert rule in out


def test_lint_without_inputs_is_usage_error(capsys):
    assert main(["lint"]) == 2
    assert "nothing to lint" in capsys.readouterr().err


@pytest.mark.parametrize("capacity", ["0", "-3"])
def test_lint_refuses_a_queue_no_engine_accepts(capacity, capsys, monkeypatch):
    """Every engine refuses ``queue_capacity < 1``; so does lint, with one
    line on stderr and nothing linted."""
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "examples"))
    code = main(
        ["lint", "--queue-capacity", capacity,
         "--graph-module", "deep_lint_targets:targets"]
    )
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"cannot lint: queue_capacity must be >= 1, got {capacity}\n"


def test_lint_json_output(tmp_path, capsys, monkeypatch):
    import json

    (tmp_path / "badmod.py").write_text(BAD_PIPELINE_MODULE)
    monkeypatch.syspath_prepend(str(tmp_path))
    assert main(["lint", "--format", "json", "--graph-module", "badmod"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 2
    assert payload["summary"]["error"] >= 1
    for diag in payload["diagnostics"]:
        assert set(diag) == {
            "rule", "name", "severity", "subject", "message", "hint"
        }
        assert diag["hint"]


def test_lint_graph_module_detects_many_rules(tmp_path, capsys, monkeypatch):
    """A purpose-built bad pipeline trips seven distinct rules."""
    import json

    (tmp_path / "badmod.py").write_text(BAD_PIPELINE_MODULE)
    monkeypatch.syspath_prepend(str(tmp_path))
    code = main(
        [
            "lint",
            "--graph-module", "badmod",
            "--format", "json",
            "--policy", "DD",
            "--queue-capacity", "2",
        ]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    rules = {d["rule"] for d in payload["diagnostics"]}
    expected = {
        "G103",  # floating filter neither source nor consumer
        "G107",  # unreachable from every source
        "P201",  # floating has no placement
        "P202",  # ghost placed but not in graph
        "P204",  # multi-copy sink
        "W302",  # DD window 4 > queue capacity 2
        "Z401",  # phase-synchronised fan-in
    }
    assert rules == expected
    for diag in payload["diagnostics"]:
        assert diag["hint"], diag


def test_lint_graph_module_attr_callable(tmp_path, capsys, monkeypatch):
    (tmp_path / "goodmod.py").write_text(
        "from repro.core.graph import FilterGraph\n"
        "from repro.core.placement import Placement\n\n"
        "def build():\n"
        "    g = FilterGraph()\n"
        "    g.add_filter('src', is_source=True)\n"
        "    g.add_filter('sink')\n"
        "    g.connect('src', 'sink')\n"
        "    p = Placement()\n"
        "    p.place('src', ['h0'])\n"
        "    p.place('sink', ['h0'])\n"
        "    return g, p\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    assert main(["lint", "--graph-module", "goodmod:build"]) == 0
    assert "no diagnostics" in capsys.readouterr().out


def test_lint_graph_module_import_error(capsys):
    assert main(["lint", "--graph-module", "no.such.module"]) == 2
    assert "cannot load" in capsys.readouterr().err


def test_lint_reports_exactly_the_engine_gate(tmp_path, capsys, monkeypatch):
    """``lint --graph-module`` names the rules every engine constructor names.

    A sink placed as two copies is a P204 WARNING in the gate's report, and
    so an ``analysis`` trace event of every run; lint over the same module
    reports the same rules.
    """
    import importlib
    import json

    from repro.engines.threaded import ThreadedEngine

    (tmp_path / "gatemod.py").write_text(
        "from repro.core import DataBuffer, Filter\n"
        "from repro.core.graph import FilterGraph\n"
        "from repro.core.placement import Placement\n\n"
        "class One(Filter):\n"
        "    def flush(self, ctx):\n"
        "        ctx.write(DataBuffer(8, payload=1))\n\n"
        "class Sink(Filter):\n"
        "    def handle(self, ctx, buffer):\n"
        "        pass\n\n"
        "def build():\n"
        "    g = FilterGraph()\n"
        "    g.add_filter('src', factory=One, is_source=True)\n"
        "    g.add_filter('sink', factory=Sink)\n"
        "    g.connect('src', 'sink')\n"
        "    p = Placement()\n"
        "    p.place('src', ['h0'])\n"
        "    p.place('sink', [('h0', 2)])\n"
        "    return g, p\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    code = main(["lint", "--format", "json", "--graph-module", "gatemod:build"])
    linted = {d["rule"] for d in json.loads(capsys.readouterr().out)["diagnostics"]}
    engine = ThreadedEngine(*importlib.import_module("gatemod").build())
    assert engine._analysis_report.rule_ids() == {"P204"}
    assert linted == engine._analysis_report.rule_ids()
    assert code == 0


def test_lint_deep_over_the_shipped_configurations(capsys, monkeypatch):
    """CI's step over ``deep_lint_targets``, output pinned.

    The four configurations, the strip pipeline and ADR pass the engine
    gate clean; the exit code is 0.
    """
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "examples"))
    code = main(["lint", "--graph-module", "deep_lint_targets:targets"])
    assert capsys.readouterr().out == "no diagnostics\n"
    assert code == 0


@pytest.mark.parametrize("policy", ["RR", "WRR", "DD"])
def test_lint_passes_the_shipped_strip_pipeline(policy, capsys, monkeypatch):
    """Each strip owner is a single-copy sink fed by its own stream, so no
    rule refuses the pipeline under any session policy.  Every stream runs
    the session policy: under WRR each owner's stream is the W301 warning
    any stream into one single-copy set gets, and lint still exits 0."""
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "examples"))
    code = main(
        ["lint", "--format", "json", "--policy", policy,
         "--graph-module", "deep_lint_targets:strip_target"]
    )
    diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
    found = [(d["rule"], d["subject"]) for d in diagnostics]
    expected = (
        [("W301", "RE->Ra0"), ("W301", "RE->Ra1")] if policy == "WRR" else []
    )
    assert found == expected
    assert code == 0


def test_lint_graph_module_list_of_pairs(tmp_path, capsys, monkeypatch):
    """A builder may return a list of (graph, placement) lint targets."""
    (tmp_path / "listmod.py").write_text(
        "from repro.core.graph import FilterGraph\n"
        "from repro.core.placement import Placement\n\n"
        "def build_all():\n"
        "    out = []\n"
        "    for tag in ('one', 'two'):\n"
        "        g = FilterGraph()\n"
        "        g.add_filter('src', is_source=True)\n"
        "        g.add_filter('sink')\n"
        "        g.connect('src', 'sink')\n"
        "        p = Placement()\n"
        "        p.place('src', ['h0'])\n"
        "        p.place('sink', ['h0'])\n"
        "        out.append((g, p))\n"
        "    return out\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    assert main(["lint", "--graph-module", "listmod:build_all"]) == 0
    assert "no diagnostics" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--copies", "--max-inflight", "--image"])
def test_serve_refuses_defaults_no_query_could_use(
    flag, capsys, monkeypatch, tmp_path
):
    """A service that could answer no query exits 2 before it listens or
    writes a store (it used to bind, print "listening" and fail each query)."""
    import tempfile

    import repro.serve

    def listening(*_args, **_kwargs):
        raise AssertionError("the server was started")

    monkeypatch.setattr(repro.serve, "run_server", listening)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert main(["serve", "--port", "0", flag, "0"]) == 2
    captured = capsys.readouterr()
    assert "must be >= 1, got 0" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


BAD_INPUTS = [
    (["render", "--copies", "0"], "must have >= 1 copies, got 0"),
    (["render", "--grid", "1"], "3 axes of >= 2 points"),
    (["render", "--chunks", "0"], "nchunks must be >= 1, got 0"),
    (["render", "--files", "0"], "nfiles must be >= 1, got 0"),
    (["render", "--timestep", "-1"], "timestep -1 outside"),
    (["render", "--image", "0"], "image dimensions must be >= 1, got 0x0"),
    (["simulate", "--rogue", "0", "--blue", "0"], "no storage targets"),
    (["simulate", "--scale", "0"], "scale must be in (0, 1], got 0.0"),
    (
        ["simulate", "--scale", "0.01", "--image", "0"],
        "image dimensions must be >= 1, got 0x0",
    ),
]

NEGATIVE_COUNTS = [
    (["--rogue", "-1", "--blue", "1"], "rogue_nodes must be >= 0, got -1"),
    (["--rogue", "1", "--blue", "-1"], "blue_nodes must be >= 0, got -1"),
    (["--rogue", "1", "--blue", "1", "--bg-jobs", "-1"],
     "background jobs must be >= 0, got -1"),
]


@pytest.mark.parametrize(
    "argv, complaint", BAD_INPUTS, ids=[" ".join(argv) for argv, _ in BAD_INPUTS]
)
def test_bad_input_is_a_message_not_a_traceback(
    argv, complaint, capsys, monkeypatch, tmp_path
):
    """Input no run could use exits 2 with one line on stderr, before any
    engine exists (these used to be tracebacks and exit 1; ``render --image
    0`` failed only inside a copy, ``simulate --image 0`` not at all)."""
    from repro import engines

    def constructed(*_args, **_kwargs):
        raise AssertionError("an engine was constructed")

    for name in ("ThreadedEngine", "ProcessEngine", "SimulatedEngine"):
        monkeypatch.setattr(getattr(engines, name), "__init__", constructed)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"cannot {argv[0]}: ")
    assert complaint in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "counts, complaint", NEGATIVE_COUNTS,
    ids=[" ".join(counts) for counts, _ in NEGATIVE_COUNTS],
)
def test_simulate_refuses_negative_counts(counts, complaint, capsys, monkeypatch):
    """A negative node or background-job count exits 2 with one line and
    builds no engine (``--rogue -1`` used to run on the other nodes and
    exit 0, ``--bg-jobs -1`` to die with a traceback)."""
    from repro import engines

    def constructed(*_args, **_kwargs):
        raise AssertionError("an engine was constructed")

    monkeypatch.setattr(engines.SimulatedEngine, "__init__", constructed)
    assert main(["simulate", "--scale", "0.01", *counts]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"cannot simulate: {complaint}\n"
    assert captured.out == ""
