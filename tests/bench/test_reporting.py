"""Report formatting."""

from repro.workload.reporting import format_series, format_table


def test_table_alignment():
    out = format_table(
        ["name", "value"],
        [["short", 1], ["a-much-longer-name", 123_456]],
    )
    lines = out.split("\n")
    assert lines[0].startswith("name")
    assert set(lines[1]) <= {"-", " "}
    # Columns line up: the header and the separator share widths.
    assert len(lines[1]) >= len(lines[0].rstrip())
    assert "123,456" in out


def test_table_float_formatting():
    out = format_table(["x"], [[3.14159], [29_038.0]])
    assert "3.14" in out
    assert "29,038" in out


def test_table_ragged_rows_tolerated():
    out = format_table(["a", "b", "c"], [["1"], ["1", "2", "3"]])
    assert "1" in out


def test_series():
    out = format_series("fig7", [("100%", 224), ("0%", 29_038)])
    assert out.startswith("fig7:")
    assert "224" in out
    assert "29,038" in out
