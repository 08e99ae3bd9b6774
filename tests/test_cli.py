"""Tests for the command-line interface."""

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


def test_trace_rejects_bad_width(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"type": "meta", "version": 1, "clock": "sim", "dropped": 0}\n')
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace", str(path), "--width", "0"])


# -- lint --------------------------------------------------------------------

BAD_FILTER_SOURCE = """\
import time

from repro.core import Filter


class LeakyFilter(Filter):
    def handle(self, ctx, buffer):
        time.sleep(0.01)
        ctx.write(buffer)
        buffer.tags["late"] = 1
"""

BAD_PIPELINE_MODULE = BAD_FILTER_SOURCE + """\


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
graph.connect("a", "b", name="dup")

placement = Placement()
placement.place("a", ["h0"])
placement.place("b", [("h0", 1), ("h1", 1)])
placement.place("merge", [("h0", 2)])
placement.place("ghost", ["h0"])
"""


def test_lint_rules_catalogue(capsys):
    assert main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("G102", "P203", "W302", "Z401", "C601"):
        assert rule in out


def test_lint_without_inputs_is_usage_error(capsys):
    assert main(["lint"]) == 2
    assert "nothing to lint" in capsys.readouterr().err


def test_lint_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "nope.py")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_lint_clean_file_passes(tmp_path, capsys):
    path = tmp_path / "clean.py"
    path.write_text("x = 1\n")
    assert main(["lint", str(path)]) == 0
    assert "no diagnostics" in capsys.readouterr().out


def test_lint_bad_filter_file_fails_with_hints(tmp_path, capsys):
    path = tmp_path / "bad.py"
    path.write_text(BAD_FILTER_SOURCE)
    assert main(["lint", str(path)]) == 1
    out = capsys.readouterr().out
    assert "C601" in out
    assert "C603" in out
    assert "fix:" in out


def test_lint_directory_recurses(tmp_path, capsys):
    sub = tmp_path / "pkg"
    sub.mkdir()
    (sub / "bad.py").write_text(BAD_FILTER_SOURCE)
    assert main(["lint", str(tmp_path)]) == 1
    assert "C601" in capsys.readouterr().out


def test_lint_json_output(tmp_path, capsys):
    import json

    path = tmp_path / "bad.py"
    path.write_text(BAD_FILTER_SOURCE)
    assert main(["lint", "--format", "json", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["summary"]["error"] >= 1
    rules = {d["rule"] for d in payload["diagnostics"]}
    assert {"C601", "C603"} <= rules
    for diag in payload["diagnostics"]:
        assert diag["hint"]


def test_lint_graph_module_detects_many_rules(tmp_path, capsys, monkeypatch):
    """Acceptance: a purpose-built bad pipeline trips >= 8 distinct rules."""
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
        "G108",  # parallel streams a->b
        "P201",  # floating has no placement
        "P202",  # ghost placed but not in graph
        "P204",  # multi-copy sink
        "W302",  # DD window 4 > queue capacity 2
        "Z401",  # phase-synchronised fan-in
        "C601",  # mutation after send
        "C603",  # blocking call in handle
    }
    assert expected <= rules
    assert len(rules) >= 8
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


def test_lint_deep_runs_the_deep_passes(tmp_path, capsys, monkeypatch):
    """--deep adds E7xx/F9xx findings shallow lint cannot see."""
    import json

    (tmp_path / "deepmod.py").write_text(
        "import random\n"
        "from repro.core import DataBuffer, Filter\n"
        "from repro.core.graph import FilterGraph\n"
        "from repro.core.placement import Placement\n\n"
        "class Jitter(Filter):\n"
        "    def handle(self, ctx, buffer):\n"
        "        ctx.write(DataBuffer(8, payload=random.random()))\n\n"
        "def build():\n"
        "    g = FilterGraph()\n"
        "    g.add_filter('src', is_source=True)\n"
        "    g.add_filter('jit', factory=Jitter)\n"
        "    g.connect('src', 'jit')\n"
        "    p = Placement()\n"
        "    p.place('src', ['h0'])\n"
        "    p.place('jit', ['h0'])\n"
        "    return g, p\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    # Shallow lint: clean.
    assert main(["lint", "--graph-module", "deepmod:build"]) == 0
    capsys.readouterr()
    # Deep lint: the nondeterministic filter surfaces as E702.
    main(
        ["lint", "--deep", "--format", "json",
         "--graph-module", "deepmod:build"]
    )
    payload = json.loads(capsys.readouterr().out)
    rules = {d["rule"] for d in payload["diagnostics"]}
    assert "E702" in rules


def test_lint_deep_over_the_shipped_configurations(capsys, monkeypatch):
    """CI's deep-lint targets at the default bound, output pinned.

    Recorded when the protocol pass was still inside ``verify_pipeline``
    (a88fbce): three of the four configurations are truncated at 4,000
    states, ``RERa-M`` is proved, nothing else fires, the exit code is 0.
    """
    root = Path(__file__).resolve().parents[1]
    monkeypatch.chdir(root)
    monkeypatch.syspath_prepend(str(root / "examples"))
    code = main(
        ["lint", "--deep", "--process",
         "--graph-module", "deep_lint_targets:targets",
         "src/repro/core/fuse.py", "src/repro/viz"]
    )
    truncated = (
        "INFO    F904 (state-space-truncated) graph: protocol exploration "
        "truncated at 4000 states (max_states=4000); no wedge found so far\n"
        "        fix: Re-run repro.analysis.protocol.check_protocol directly "
        "with a higher max_states for a complete proof.\n"
    )
    assert capsys.readouterr().out == truncated * 3 + "-- 3 info (3 total)\n"
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
    assert main(
        ["lint", "--deep", "--protocol-max-states", "100000",
         "--graph-module", "listmod:build_all"]
    ) == 0
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
