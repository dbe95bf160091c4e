import json
import sys

import numpy
import pytest

from macrolens import report
from oracles import oracle_csv


class Label(str):
    def __str__(self):
        return "label"


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
        path = report.write_table(tmp_path / "t", ("a",), [(Label("raw"),)], "csv")
        assert path.read_bytes() == b'"a"\n"label"\n'

    PLAIN_ROWS = [
        ("text", 2**70, -0.0, None),
        ("", -1, float("nan"), 1e16),
        ('q"', 0, float("inf"), float("-inf")),
    ]

    def test_plain_cells_written_as_fmt_value_writes_them(self, tmp_path):
        """``str``, ``int``, ``float`` and ``None`` cells are written with
        the text ``fmt_value`` gives them, ``-0.0``, ``nan``, ``inf`` and
        an int past 64 bits included."""
        header = ("a", "b", "c", "d")
        path = report.write_table(tmp_path / "t", header, self.PLAIN_ROWS, "csv")
        assert path.read_bytes() == oracle_csv(header, self.PLAIN_ROWS) == (
            b'"a","b","c","d"\n'
            b'"text","1180591620717411303424","-0.0",""\n'
            b'"","-1","nan","1e+16"\n'
            b'"q""","0","inf","-inf"\n'
        )

    @pytest.mark.parametrize("cell, written", [
        (True, b"1"), (False, b"0"), (numpy.float64(0.1), b"0.1"), (numpy.float64(1e16), b"1e+16"),
    ])
    def test_one_other_cell_is_written_as_fmt_value_writes_it(self, cell, written, tmp_path):
        rows = [*self.PLAIN_ROWS, ("x", 1, 0.5, cell)]
        path = report.write_table(tmp_path / "t", ("a", "b", "c", "d"), rows, "csv")
        assert path.read_bytes().splitlines()[-1] == b'"x","1","0.5","' + written + b'"'


# the numbers below are equal dict keys in groups (1, 1.0, True and
# numpy.float64(1.0); 0, 0.0, -0.0 and False) but print differently
MIXED = [1, 1.0, True, numpy.float64(1.0), 0, 0.0, -0.0, False, numpy.float64(-0.0),
         float("nan"), float("inf"), float("-inf"), 2**70, -(2**70), None, "1", "1.0", "0.0"]
NUMBERS = [1, 1.0, 0, 0.0, -0.0, float("nan"), float("inf"), float("-inf"), 2**70, 1e16, 1e-7, -3]
TEXT = ['say "hi"', '"', '""', "a\r\nb", "\r", "\n", "", ",", "naïve ∑ 日本 \U0001f600",
        "\x7f\x1b", " lead and trail "]

ORACLE_TABLES = {
    "mixed types in a column": (
        ("mixed", "reversed", "numbers", "label"),
        [(v, w, n, "raw") for v, w, n in zip(MIXED, MIXED[::-1], NUMBERS * 2)],
    ),
    "equal keys that print differently": (
        ("with_bool", "zeros", "numbers", "numpy"),
        [(1, 0.0, 1, numpy.float64(1.0)), (1.0, -0.0, 1.0, numpy.float64(-0.0)),
         (True, False, 0.0, numpy.float64(1.0)), (1, 0, -0.0, 1.0)],
    ),
    "a str subclass beside the equal plain str": (
        ("a", "b"),
        [("raw", Label("raw")), (Label("raw"), "raw"), ("raw", "raw"), (Label("x"), "label")],
    ),
    "quotes, line ends and non-ASCII text": (
        ("text", "twice", "pair"),
        [(t, t, t + t) for t in TEXT] + [(t, None, t) for t in TEXT],
    ),
    "zero rows": (("a", "b"), []),
}


class TestWriteCsvAgainstOracle:
    """``write_table``'s CSV bytes equal ``csv.writer``'s over each cell's
    ``fmt_value`` text (``tests/oracles.py``), whatever the cells' types."""

    @pytest.mark.parametrize("case", ORACLE_TABLES)
    def test_table(self, case, tmp_path):
        header, rows = ORACLE_TABLES[case]
        path = report.write_table(tmp_path / "t", header, rows, "csv")
        assert path.read_bytes() == oracle_csv(header, rows)

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="csv.writer writes NUL from Python 3.11 on")
    def test_nul(self, tmp_path):
        rows = [("a\x00b", "\x00"), ("\x00", 0)]
        path = report.write_table(tmp_path / "t", ("a", "b"), rows, "csv")
        assert path.read_bytes() == oracle_csv(("a", "b"), rows)

    def test_text_bytes(self, tmp_path):
        rows = [("a\x00b", 'q"', "x\r\ny"), ("é∑", "", "\x00")]
        path = report.write_table(tmp_path / "t", ("a", "b", "c"), rows, "csv")
        assert path.read_bytes() == (
            '"a","b","c"\n"a\x00b","q""","x\r\ny"\n"é∑","","\x00"\n'.encode("utf-8")
        )

    def test_many_blocks_with_column_types_changing_between_them(self, tmp_path):
        """Rows from a one-pass iterator, over several blocks; each column
        changes its cell types from one block to the next, and one has more
        distinct strings than a block has rows, which recur."""
        n = 3 * report.BLOCK_ROWS + 7
        shapes = [
            lambda i: (f'id"{i % 1500}', "same", i, i / 7),
            lambda i: (f'id"{i % 1500}', Label("same"), float(i), i % 2 == 0),
            lambda i: (f'id"{i % 1500}', None if i % 3 else "same", i % 5 or None,
                       numpy.float64(i) / 3),
            lambda i: (i, "same", "text", -0.0),
        ]
        rows = [shapes[i // report.BLOCK_ROWS](i) for i in range(n)]
        header = ("id", "label", "n", "x")
        path = report.write_table(tmp_path / "t", header, iter(rows), "csv")
        assert path.read_bytes() == oracle_csv(header, rows)


JSON_CELLS = ["é∑ 李", 'q"', "x\ny", "a\x00b", float("nan"), float("inf"), float("-inf"), -0.0,
              None, True, False, 2**70, 0, 2.5, numpy.float64(0.1), ""]


def dumped(header, rows) -> bytes:
    """The bytes the JSON writer wrote before it streamed: one ``json.dump``
    of every row object, then a newline."""
    payload = [dict(zip(header, row)) for row in rows]
    return (json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n").encode()


@pytest.mark.parametrize("n", [0, 1, report.BLOCK_ROWS, report.BLOCK_ROWS + 1,
                               2 * report.BLOCK_ROWS + 1])
def test_json_blocks_write_json_dumps_bytes(n, tmp_path):
    """JSON is written ``BLOCK_ROWS`` rows at a time from a one-pass
    iterator, with the bytes of one ``json.dump`` of the whole table."""
    header = ("é", 'k"', "b", "a")
    rows = [tuple(JSON_CELLS[(i * 3 + j) % len(JSON_CELLS)] for j in range(4)) for i in range(n)]
    path = report.write_table(tmp_path / "t", header, iter(rows), "json")
    assert path.read_bytes() == dumped(header, rows)
