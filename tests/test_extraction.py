import random
import re
import time
from collections import Counter
from dataclasses import astuple, fields
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from macrolens import extraction
from macrolens.extraction import (
    MacroDefinition,
    body_features,
    definition_columns,
    extract_definitions,
    name_features,
    strip_comments,
)
from macrolens.timelines import Occurrence

GOLDEN = Path(__file__).parent / "data" / "golden"


def defs_of(source):
    return [(d.name, d.body, d.command) for d in extract_definitions(source, "p").definitions]


class TestExtractDefinitions:
    def test_basic_def(self):
        assert defs_of("\\def\\Reals{\\mathbb{R}}") == [("\\Reals", "\\mathbb{R}", "def")]

    def test_basic_newcommand(self):
        assert defs_of("\\newcommand{\\eps}{\\epsilon}") == [("\\eps", "\\epsilon", "newcommand")]

    def test_commented_out(self):
        assert defs_of("% \\def\\x{y}\nplain text") == []

    def test_nested_braces_body(self):
        # verified against an independent hand brace matcher below
        source = "\\def\\a{{b}{c{d}}}"
        assert defs_of(source) == [("\\a", "{b}{c{d}}", "def")]
        assert _independent_group_scan(source, source.index("{")) == "{b}{c{d}}"

    def test_escaped_percent_survives(self):
        assert defs_of("100\\% sure \\def\\x{y}") == [("\\x", "y", "def")]

    def test_renewcommand(self):
        assert defs_of("\\renewcommand{\\v}{w}") == [("\\v", "w", "renewcommand")]

    def test_parameter_signatures(self):
        res = extract_definitions("\\def\\pair#1#2{(#1, #2)}\\newcommand{\\n}[2][d]{x#1}", "p")
        assert [(d.name, d.signature) for d in res.definitions] == [
            ("\\pair", "#1#2"),
            ("\\n", "[2][d]"),
        ]

    def test_lookalike_commands_ignored(self):
        assert defs_of("\\gdef\\a{1}\\edef\\b{2}\\defx\\c{3}") == []

    def test_nested_definition_not_emitted(self):
        assert defs_of("\\def\\outer{\\def\\inner{hidden}}") == [
            ("\\outer", "\\def\\inner{hidden}", "def")
        ]

    def test_unbalanced_body_skipped_then_recovers(self):
        res = extract_definitions("\\def\\bad{never ends\n\\def\\ok{fine}", "p")
        assert [(d.name, d.body) for d in res.definitions] == [("\\ok", "fine")]
        assert res.skipped == 1

    def test_malformed_newcommands_counted(self):
        src = "\\newcommand{notaname}{x}\n\\newcommand{\\okx}[a]{x}\n\\newcommand{\\fine}{yes}"
        res = extract_definitions(src, "p")
        assert [(d.name, d.body) for d in res.definitions] == [("\\fine", "yes")]
        assert res.skipped == 2

    def test_single_nonletter_names(self):
        assert defs_of("\\def\\!{\\;}") == [("\\!", "\\;", "def")]

    def test_source_order_and_offsets(self):
        res = extract_definitions("\\def\\a{1} text \\def\\b{2}", "p")
        offsets = [d.offset for d in res.definitions]
        assert offsets == sorted(offsets)
        assert [d.name for d in res.definitions] == ["\\a", "\\b"]


def _independent_group_scan(text, start):
    """Hand-built brace matcher used as an oracle for body capture."""
    assert text[start] == "{"
    depth = 0
    i = start
    while i < len(text):
        if text[i] == "\\":
            i += 2
            continue
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[start + 1 : i]
        i += 1
    raise AssertionError("unbalanced")


class TestNormalizeBody:
    """A body comes out with whitespace runs collapsed and ends trimmed,
    everything else byte-for-byte; an unbalanced body defines nothing."""

    @staticmethod
    def body_of(raw):
        return [d.body for d in extract_definitions(f"\\def\\x{{{raw}}}", "p").definitions]

    def test_identity(self):
        assert self.body_of("\\mathbb{R}") == ["\\mathbb{R}"]

    def test_whitespace_collapse(self):
        assert self.body_of("  a   b  ") == ["a b"]

    def test_interior_spacing_preserved_as_single(self):
        raw = "\\raisebox{-.5pt}  {\\drawsquare{6.5}{0.4}}"
        assert self.body_of(raw) == ["\\raisebox{-.5pt} {\\drawsquare{6.5}{0.4}}"]

    def test_unbalanced_rejected(self):
        res = extract_definitions("\\def\\x{{a}", "p")
        assert (res.definitions, res.skipped) == ([], 1)


class TestFeatures:
    def test_name_features_hand_count(self):
        length, non_alpha, frac_lower, frac_upper = name_features("\\Yfund")
        assert (length, non_alpha) == (6.0, 1.0)
        assert frac_upper == pytest.approx(1 / 6)
        assert frac_lower == pytest.approx(4 / 6)

    def test_fraction_bound(self):
        _, _, frac_lower, frac_upper = name_features("\\Re")
        assert frac_lower + frac_upper <= 1

    def test_body_depth_hand_trace(self):
        assert body_features("{a{b}}")[2] == 2.0

    def test_flat_body(self):
        assert body_features("x") == (1.0, 0.0, 0.0)

    def test_values_are_floats(self):
        assert {type(v) for v in (*name_features("\\x"), *body_features("{x}"))} == {float}

    def test_escaped_braces_not_depth(self):
        assert body_features("\\{x\\}")[2] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            body_features("")
        with pytest.raises(ValueError):
            name_features("")


class TestPaperConventions:
    """The effective definitions and convention flags that
    ``definition_columns`` fills for one paper."""

    @staticmethod
    def effective(source):
        """(name, signature, body, convention flag) of each effective
        definition of ``source`` (LaTeX or definitions), in name order."""
        if isinstance(source, str):
            source = extract_definitions(source, "p").definitions
        cols = definition_columns([source])
        string = cols.strings.__getitem__
        return list(zip(map(string, cols.effective_name), map(string, cols.effective_signature),
                        map(string, cols.effective_body), cols.convention))

    def test_last_definition_wins(self):
        assert self.effective("\\def\\x{a}\\renewcommand{\\x}{b}") == [("\\x", "", "b", 1)]

    def test_first_name_kept_for_shared_body(self):
        assert self.effective("\\def\\Reals{\\mathbb{R}}\\def\\R{\\mathbb{R}}") == [
            ("\\R", "", "\\mathbb{R}", 0), ("\\Reals", "", "\\mathbb{R}", 1)]

    def test_signature_distinguishes_bodies(self):
        assert self.effective("\\def\\f#1{#1}\\def\\g{#1}") == [
            ("\\f", "#1", "#1", 1), ("\\g", "", "#1", 1)]

    def test_offset_tie_goes_to_the_name_defined_first(self):
        """Of two effective definitions of one body at one offset, the
        convention is the name whose first definition comes first in
        offset order, not the one whose surviving definition is given first."""
        def at(name, body, offset):
            return MacroDefinition("p", name, body, "def", "", offset)

        assert self.effective([at("\\a", "x", 0), at("\\b", "y", 1), at("\\a", "y", 1)]) == [
            ("\\a", "", "y", 1), ("\\b", "", "y", 0)]
        assert self.effective([at("\\b", "y", 1), at("\\a", "y", 1)]) == [
            ("\\a", "", "y", 0), ("\\b", "", "y", 1)]


class TestRecords:
    """Definitions and timeline occurrences are immutable tuple records."""

    def test_fields_cannot_be_assigned(self):
        d = extract_definitions("\\def\\x{a}", "p").definitions[0]
        records = [
            (d, "body"),
            (Occurrence("p", 0, "\\x", ("a",)), "group_rank"),
        ]
        for record, name in records:
            with pytest.raises(AttributeError):
                setattr(record, name, "y")
            assert getattr(record, name) != "y"

    def test_positional_fields(self):
        d = extract_definitions("\\newcommand{\\x}[1]{a}", "p").definitions[0]
        assert tuple(d) == ("p", "\\x", "a", "newcommand", "[1]", 0)
        assert Occurrence._fields == ("paper_id", "group_rank", "name", "authors")


_NAME_CHARS = st.text(alphabet="abcdefgXYZ", min_size=1, max_size=8)
_BODY_ATOMS = st.sampled_from(["x", "y z", "\\cmd", "\\{", "\\}", "#1", "$a$", ""])


@st.composite
def balanced_bodies(draw, depth=0):
    parts = draw(st.lists(_BODY_ATOMS, max_size=4))
    if depth < 2 and draw(st.booleans()):
        inner = draw(balanced_bodies(depth=depth + 1))
        parts.append("{" + inner + "}")
    return "".join(parts)


class TestParserProperties:
    @given(name=_NAME_CHARS, body=balanced_bodies(), command=st.sampled_from(["def", "newcommand", "renewcommand"]))
    @settings(max_examples=200)
    def test_roundtrip_idempotent(self, name, body, command):
        if command == "def":
            source = f"\\def\\{name}{{{body}}}"
        else:
            source = f"\\{command}{{\\{name}}}{{{body}}}"
        res = extract_definitions(source, "p")
        assert len(res.definitions) == 1
        d = res.definitions[0]
        assert d.name == "\\" + name
        assert d.body == " ".join(body.split())
        # extracting the re-serialized definition gives the same pair
        again = extract_definitions(f"\\def{d.name}{{{d.body}}}", "p").definitions
        assert len(again) == 1
        assert (again[0].name, again[0].body) == (d.name, d.body)

    @given(st.text(alphabet="\\{}%defnewcomand xy#1", max_size=120))
    @settings(max_examples=400)
    def test_fuzz_never_raises_and_bodies_balanced(self, source):
        res = extract_definitions(source, "p")
        for d in res.definitions:
            assert oracles.oracle_check_balanced(d.body)

    @given(st.lists(st.sampled_from(["\\def\\a{1}", "\\def\\b{2}", "text", "% note"]), max_size=6))
    def test_extraction_independent_of_surroundings_order(self, chunks):
        # per-chunk extraction equals extraction of each chunk alone
        combined = extract_definitions("\n".join(chunks), "p").definitions
        names = [d.name for d in combined]
        expected = [c[4:6] for c in chunks if c.startswith("\\def")]
        assert names == [e for e in expected]


# Atoms of the random sources: the lexical specials one by one, escapes
# and runs of two and three backslashes, whitespace beyond `` \t\n\r\f\v``
# that ``str.isspace()`` accepts (U+2003, U+001C), and whole command words
# so that candidates are common.
_ATOMS = [
    "\\", "{", "}", "[", "]", "%", "*", "\n", " ", "def", "newcommand", "renewcommand",
    "\\\\", "\\\\\\", "\\{", "\\%", "\u2003", "\x1c", "\\def", "\\newcommand",
    "\\renewcommand", "\\a", "\\Bc", "{\\x}", "[1]", "[2][d]", "#1", "x", "3",
]
_EDIT_CHARS = "{}[]\\%"
# A whole run of backslashes, then a command word.
_RUN_BEFORE_COMMAND = re.compile(r"(?<!\\)(\\+)(?:def|newcommand|renewcommand)")


def _extract_counting_pairings(source):
    """``extract_definitions(source)`` and the number of brace tables it built."""
    real = extraction._brace_pairs
    calls = []

    def counted(text):
        calls.append(text)
        return real(text)

    extraction._brace_pairs = counted
    try:
        return extract_definitions(source, "p"), len(calls)
    finally:
        extraction._brace_pairs = real


def _compare(source, seen):
    """Assert the extractor and the reference scanner agree on ``source``;
    tally what the source exercised into ``seen``."""
    got, pairings = _extract_counting_pairings(source)
    ref = oracles.oracle_extract_definitions(source, "p")
    assert [tuple(d) for d in got.definitions] == [astuple(d) for d in ref.definitions], source
    assert got.skipped == ref.skipped, source
    stripped = strip_comments(source)
    assert stripped == oracles.oracle_strip_comments(source), source
    for text in (source, stripped):
        assert (extraction._brace_pairs(text)[1] == 0) == oracles.oracle_check_balanced(text), text
    if source:
        assert body_features(source) == astuple(oracles.oracle_body_features(source)), source
    seen["skipped"] += got.skipped
    if "\\def" not in source and "newcommand" not in source:
        seen["early exit"] += 1
    else:
        seen["full path"] += 1
        if pairings:
            seen["table built"] += 1
        elif got.definitions:
            seen["defined by the pattern alone"] += 1
    seen["comment stripped"] += stripped != source
    seen["unbalanced"] += not oracles.oracle_check_balanced(stripped)
    seen["lone trailing backslash"] += (len(source) - len(source.rstrip("\\"))) % 2
    runs = {len(m.group(1)) for m in _RUN_BEFORE_COMMAND.finditer(stripped)}
    seen["command word after an odd run of 3 or more"] += any(r % 2 and r >= 3 for r in runs)
    seen["command word after an even run"] += any(r % 2 == 0 for r in runs)
    for d in got.definitions:
        seen[d.command] += 1
        seen["signature"] += d.signature != ""
        seen["[n] signature"] += d.signature.startswith("[")


class TestAgainstReferenceScanner:
    """Every output of the extractor equals the former char-by-char
    scanner's (``tests/oracles.py``), offsets and skip counts included."""

    def test_definition_fields_match_reference(self):
        assert MacroDefinition._fields == tuple(f.name for f in fields(oracles.OracleDefinition))

    def test_random_sources(self):
        rng = random.Random(20261018)
        seen = Counter()
        for _ in range(15000):
            _compare("".join(rng.choices(_ATOMS, k=rng.randint(0, 40))), seen)
        for key in ("def", "newcommand", "renewcommand", "signature", "[n] signature",
                    "skipped", "comment stripped", "unbalanced", "lone trailing backslash",
                    "early exit", "full path", "defined by the pattern alone", "table built",
                    "command word after an odd run of 3 or more", "command word after an even run"):
            assert seen[key] > 50, (key, seen)

    def test_mutated_golden_sources(self):
        rng = random.Random(7)
        seen = Counter()
        sources = [p.read_text(encoding="utf-8") for p in sorted(GOLDEN.glob("g*.tex"))]
        assert len(sources) == 20
        for source in sources:
            _compare(source, seen)
            for _ in range(300):
                chars = list(source)
                for _ in range(rng.randint(1, 4)):
                    specials = [i for i, c in enumerate(chars) if c in _EDIT_CHARS]
                    if specials and rng.random() < 0.5:
                        del chars[rng.choice(specials)]
                    else:
                        chars.insert(rng.randint(0, len(chars)), rng.choice(_EDIT_CHARS))
                _compare("".join(chars), seen)
        for key in ("def", "newcommand", "renewcommand", "[n] signature", "skipped", "unbalanced"):
            assert seen[key] > 50, (key, seen)

    def test_whitespace_agrees_with_isspace(self):
        """Names, separators and ``strip`` see the same whitespace as
        ``str.isspace()``, for every character up to U+3000, the last one
        it accepts."""
        seen = Counter()
        for c in map(chr, range(0x3001)):
            _compare(f"\\def\\{c}{{x}}\\newcommand{c}{{{c}\\a{c}}}{c}[1]{c}{{y}}", seen)
        assert seen["def"] > 0 and seen["skipped"] > 0

    @pytest.mark.parametrize("source, defined, skipped", [
        ("% \\def\\x{y}\nplain", 0, 0),  # defining command only in a comment
        ("\\de%x\nf\\x{y}", 0, 0),  # stripping keeps the newline: no ``\def``
        ("\\\\def\\x{y}", 0, 0),  # an escaped backslash, then the letters
        ("\\newcommandx{\\x}{y}", 0, 0),  # a longer control sequence
        ("\\renewcommand", 0, 1),  # a lone defining command
        ("\\newcommand{\\x}{y}", 1, 0),
    ])
    def test_early_exit_edges(self, source, defined, skipped):
        _compare(source, Counter())
        got = extract_definitions(source, "p")
        assert (len(got.definitions), got.skipped) == (defined, skipped)

    _DEEPEST = "{" * extraction._MAX_FAST_DEPTH + "x" + "}" * extraction._MAX_FAST_DEPTH

    @pytest.mark.parametrize("source, pairings", [
        (f"\\def\\a{{{_DEEPEST}}}", 0),  # nested as deep as the pattern reaches
        (f"\\def\\a{{{{{_DEEPEST}}}}}", 1),  # one level deeper
        ("\\newcommand{\\a}[1][{x}]{y#1}", 1),  # a brace group inside [...]
        ("\\newcommand{\\a}[1][x\\]]{y#1}", 0),  # an escaped ] inside [...]
        ("\\newcommand{\\a}[\u00b2]{y}", 1),  # isdigit() but not \\d
        ("\\def\\a#1\\{{x#1}", 0),  # an escaped brace in the parameter text
        ("\\def\\a}{x}", 1),  # a stray } before the body
        ("\\newcommand{\u2003\\a\u2003}{x}", 0),  # whitespace that isspace() accepts
        ("\\newcommand*{\\a}[2]{#1#2}\\renewcommand* \\b {y}", 0),
        ("\\def\\a{x}\\def\\b\\", 1),  # a lone trailing backslash as parameter text
        ("\\def\\a{x\\", 1),  # and inside a body
        ("\\def\\a{x}\\", 0),  # and after the last definition
    ])
    def test_pattern_or_table(self, source, pairings):
        """Each case agrees with the reference, and takes the path named."""
        _compare(source, Counter())
        assert _extract_counting_pairings(source)[1] == pairings

    def test_broken_bodies_extract_in_linear_time(self):
        source = "\\def\\a{x\n" * 4000
        start = time.perf_counter()
        result = extract_definitions(source, "p")
        elapsed = time.perf_counter() - start
        assert (result.definitions, result.skipped) == ([], 4000)
        assert elapsed < 1.0

    def test_one_failed_pattern_attempt_per_paper(self):
        """After the pattern's first rejection the rest of the paper goes
        through the brace table: 4,000 good definitions after an unmatched
        ``{`` take one whole-definition attempt, in linear time."""
        source = "\\def\\a{\n" + "\\def\\b{x}\n" * 4000
        attempts = Counter()
        finditer = extraction._DEFINITION.finditer

        def counted(text):
            for m in finditer(text):
                if m.group(1) is not None:  # a defining command, not an escaped backslash
                    attempts["matched" if m.group(8) is not None else "failed"] += 1
                yield m

        with mock.patch.object(extraction, "_DEFINITION", mock.Mock(finditer=counted)):
            start = time.perf_counter()
            result = extract_definitions(source, "p")
            elapsed = time.perf_counter() - start
        assert (len(result.definitions), result.skipped) == (4000, 1)
        assert attempts == Counter(failed=1)
        assert elapsed < 1.0
        _compare(source, Counter())

    def test_no_possessive_or_atomic_syntax(self):
        """The patterns compile on every Python the project supports (3.10
        has neither possessive quantifiers nor atomic groups)."""
        patterns = [v for v in vars(extraction).values() if isinstance(v, re.Pattern)]
        patterns.append(extraction._TO_BRACE.__self__)
        assert extraction._DEFINITION in patterns
        for pattern in patterns:
            for syntax in ("(?>", "*+", "++", "?+"):
                assert syntax not in pattern.pattern, (syntax, pattern.pattern)


# Atoms for comment stripping: backslash runs of length 1 to 6, the line
# break ``\n`` and characters that end a line elsewhere but not here.
_COMMENT_ATOMS = ["\\" * n for n in range(1, 7)] + [
    "%", "%", "\n", "\r", "\r\n", "\u2028", "\x85", "x", " ", "{", "\\def",
]


class TestEscapeParity:
    """Comment stripping and the candidate search find escapes by the
    parity of the backslash run before a character: stripping agrees with
    the reference's token-by-token scan, and both stay linear on long
    runs and many escapes."""

    def test_strip_comments_against_reference(self):
        rng = random.Random(2028)
        seen = Counter()
        for _ in range(20000):
            source = "".join(rng.choices(_COMMENT_ATOMS, k=rng.randint(0, 30)))
            stripped = strip_comments(source)
            assert stripped == oracles.oracle_strip_comments(source), source
            seen["comment stripped"] += stripped != source
            seen["escaped % kept"] += "%" in stripped
            seen["no final newline"] += "%" in source and not source.endswith("\n")
            for line in source.split("\n"):
                k = line.find("%")
                if k > 0 and line[k - 1] == "\\":
                    run = k - len(line[:k].rstrip("\\"))
                    seen["odd run before %" if run % 2 else "even run before %"] += 1
        for key in ("comment stripped", "escaped % kept", "no final newline",
                    "odd run before %", "even run before %"):
            assert seen[key] > 500, (key, seen)

    @staticmethod
    def _timed(function, *args):
        start = time.perf_counter()
        result = function(*args)
        return result, time.perf_counter() - start

    def test_long_backslash_run_then_percent(self):
        for run in (1 << 20, (1 << 20) + 1):
            source = "\\def\\a{b}\n" + "\\" * run + "%\\def\\c{d}\nx"
            stripped, elapsed = self._timed(strip_comments, source)
            kept = "%\\def\\c{d}" if run % 2 else ""
            assert stripped == "\\def\\a{b}\n" + "\\" * run + kept + "\nx"
            assert elapsed < 1.0
            result, elapsed = self._timed(extract_definitions, source, "p")
            assert [d.name for d in result.definitions] == ["\\a"] + (["\\c"] if run % 2 else [])
            assert elapsed < 1.0

    def test_many_escaped_percents(self):
        source = "\\def\\a{b}\n" + "\\%\n" * 100_000
        stripped, elapsed = self._timed(strip_comments, source)
        assert stripped == source and elapsed < 1.0
        result, elapsed = self._timed(extract_definitions, source, "p")
        assert len(result.definitions) == 1 and elapsed < 1.0

    def test_many_escaped_backslashes_before_def(self):
        source = "\\\\def\\x{y}\n" * 100_000
        result, elapsed = self._timed(extract_definitions, source, "p")
        assert (result.definitions, result.skipped) == ([], 0)
        assert elapsed < 1.0


class TestBracePassCount:
    """Braces are paired at most once per paper, and only for a paper
    holding a definition that the whole-definition pattern rejects."""

    def test_no_defining_command(self):
        result, calls = _extract_counting_pairings("\\section{A}{\\bf x} % \\gdef\n\\edef\\y{z}")
        assert (result.definitions, result.skipped, calls) == ([], 0, 0)

    def test_several_definitions(self):
        source = "\\def\\a{{x}{y}}\n\\newcommand{\\b}[1]{#1 {z}}\n\\renewcommand\\c{\\{ {w} \\}}"
        result, calls = _extract_counting_pairings(source)
        assert [d.body for d in result.definitions] == ["{x}{y}", "#1 {z}", "\\{ {w} \\}"]
        assert calls == 0

    def test_damaged_definition_first(self):
        source = "\\def\\a{x\n\\def\\b{{y}}\n\\newcommand{\\c}[1]{#1}"
        result, calls = _extract_counting_pairings(source)
        reference = oracles.oracle_extract_definitions(source, "p")
        assert [tuple(d) for d in result.definitions] == [astuple(d) for d in reference.definitions]
        assert (len(result.definitions), result.skipped) == (2, reference.skipped) == (2, 1)
        assert calls == 1
