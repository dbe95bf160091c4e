import numpy

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
