"""Tests for the ASCII bar-chart renderer and the experiments entry point."""

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


def test_main_single_experiment_via_cli(capsys):
    # The experiments CLI path is exercised in tests/test_cli.py; here we
    # check the package __main__ plumbing imports cleanly.
    import repro.experiments.__main__ as entry

    assert callable(entry.main)
    paper = [e for e in entry.EXPERIMENTS if not e.extension]
    assert len(paper) == 8 and len(entry.EXPERIMENTS) == 9
    for experiment in entry.EXPERIMENTS:
        assert callable(experiment.load().run), experiment.name


def test_figure2a_renders(tmp_path):
    from repro.experiments import figure2a

    out = tmp_path / "fig.ppm"
    table = figure2a.run(grid=17, image=48, output=out)
    assert out.exists()
    assert table.value("value", quantity="triangles") > 0
    assert table.value("value", quantity="active pixels") > 20
