"""Tests for the ASCII bar-chart renderer and the experiments entry point."""

import inspect
import runpy

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.charts import bar_chart
from repro.experiments.common import ResultTable


def sample_table():
    t = ResultTable("Demo", ["group", "system", "seconds"])
    t.add(group="g1", system="A", seconds=1.0)
    t.add(group="g1", system="B", seconds=2.0)
    t.add(group="g2", system="A", seconds=4.0)
    t.add(group="g2", system="B", seconds=0.5)
    return t


def test_bar_lengths_proportional():
    chart = bar_chart(sample_table(), "seconds", ["group"], "system", width=40)
    lines = chart.splitlines()
    bars = {
        line.split()[0]: line.count("#")
        for line in lines
        if "#" in line
    }
    # The peak (4.0) gets the full width; 2.0 gets half of it.
    assert max(bars.values()) == 40
    a_g1 = next(line for line in lines if line.strip().startswith("A")).count("#")
    b_g1 = [line for line in lines if line.strip().startswith("B")][0].count("#")
    assert abs(b_g1 - 2 * a_g1) <= 1


def test_groups_and_values_present():
    chart = bar_chart(sample_table(), "seconds", ["group"], "system")
    assert "group=g1" in chart
    assert "group=g2" in chart
    assert "4.000" in chart


def test_empty_table():
    t = ResultTable("Empty", ["group", "system", "seconds"])
    assert "(no data)" in bar_chart(t, "seconds", ["group"], "system")


def test_zero_values_do_not_crash():
    t = ResultTable("Zeros", ["group", "system", "seconds"])
    t.add(group="g", system="A", seconds=0.0)
    chart = bar_chart(t, "seconds", ["group"], "system")
    assert "0.000" in chart


def test_main_single_experiment_via_cli(capsys, monkeypatch):
    # ``python -m repro.experiments`` is ``repro experiments``: the CLI's
    # options (``--scale`` among them) reach the package's __main__.
    monkeypatch.setattr("sys.argv", ["repro.experiments", "--scale", "0.05", "table1"])
    with pytest.raises(SystemExit) as done:
        runpy.run_module("repro.experiments", run_name="__main__")
    assert done.value.code == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "[Table 1 regenerated in" in out


def test_every_run_takes_scale():
    paper = [e for e in EXPERIMENTS if not e.extension]
    assert len(paper) == 8 and len(EXPERIMENTS) == 9
    for experiment in EXPERIMENTS:
        run = experiment.load().run
        assert "scale" in inspect.signature(run).parameters, experiment.name


def test_figure2a_renders(tmp_path):
    from repro.experiments import figure2a

    out = tmp_path / "fig.ppm"
    # scale is a fraction of the 41^3 grid's voxels: 0.07 is a 17^3 grid.
    table = figure2a.run(scale=0.07, image=48, output=out)
    assert "17^3 grid" in table.title
    assert out.read_bytes().startswith(b"P6 48 48 255\n")
    assert table.value("value", quantity="triangles") > 0
    assert table.value("value", quantity="active pixels") > 20
