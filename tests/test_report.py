import csv

import numpy
import pytest

from macrolens import report

HEADER = ("none", "flag", "zero", "small", "numpy", "text")
ROWS = [
    (None, True, 0, 1e-7, numpy.float64(0.1), 'say "hi"\nthere'),
    ("x", False, -3, 2.5, numpy.float64(1e16), ""),
]


class TestWriteTable:
    """The bytes of each table format, pinned: a ``str`` field is written
    as it stands and every other value through ``fmt_value``."""

    def test_csv_bytes(self, tmp_path):
        path = report.write_table(tmp_path / "t", HEADER, ROWS, "csv")
        assert path.read_bytes() == (
            b'"none","flag","zero","small","numpy","text"\n'
            b'"","1","0","1e-07","0.1","say ""hi""\nthere"\n'
            b'"x","0","-3","2.5","1e+16",""\n'
        )

    def test_json_bytes(self, tmp_path):
        path = report.write_table(tmp_path / "t", HEADER, ROWS, "json")
        assert path.read_bytes() == (
            b'[\n  {\n    "flag": true,\n    "none": null,\n    "numpy": 0.1,\n'
            b'    "small": 1e-07,\n    "text": "say \\"hi\\"\\nthere",\n    "zero": 0\n  },\n'
            b'  {\n    "flag": false,\n    "none": "x",\n    "numpy": 1e+16,\n'
            b'    "small": 2.5,\n    "text": "",\n    "zero": -3\n  }\n]\n'
        )

    def test_str_subclass_goes_through_fmt_value(self, tmp_path):
        class Label(str):
            def __str__(self):
                return "label"

        path = report.write_table(tmp_path / "t", ("a",), [(Label("raw"),)], "csv")
        assert path.read_bytes() == b'"a"\n"label"\n'

    PLAIN_ROWS = [
        ("text", 2**70, -0.0, None),
        ("", -1, float("nan"), 1e16),
        ('q"', 0, float("inf"), float("-inf")),
    ]

    def test_plain_cells_written_as_fmt_value_writes_them(self, tmp_path):
        """A table of only ``str``, ``int``, ``float`` and ``None`` cells
        goes to ``csv.writer`` as it stands, with the per-cell bytes."""
        path = report.write_table(tmp_path / "t", ("a", "b", "c", "d"), self.PLAIN_ROWS, "csv")
        with open(tmp_path / "per_cell.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\n")
            writer.writerow(("a", "b", "c", "d"))
            writer.writerows([report.fmt_value(v) for v in row] for row in self.PLAIN_ROWS)
        assert path.read_bytes() == (tmp_path / "per_cell.csv").read_bytes() == (
            b'"a","b","c","d"\n'
            b'"text","1180591620717411303424","-0.0",""\n'
            b'"","-1","nan","1e+16"\n'
            b'"q""","0","inf","-inf"\n'
        )

    @pytest.mark.parametrize("cell, written", [
        (True, b"1"), (False, b"0"), (numpy.float64(0.1), b"0.1"), (numpy.float64(1e16), b"1e+16"),
    ])
    def test_one_other_cell_sends_the_table_through_fmt_value(self, cell, written, tmp_path):
        rows = [*self.PLAIN_ROWS, ("x", 1, 0.5, cell)]
        path = report.write_table(tmp_path / "t", ("a", "b", "c", "d"), rows, "csv")
        assert path.read_bytes().splitlines()[-1] == b'"x","1","0.5","' + written + b'"'
