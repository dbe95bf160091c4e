"""LaTeX macro definition extraction and surface features.

Recognizes ``\\def``, ``\\newcommand`` and ``\\renewcommand`` in raw
(possibly non-compilable) LaTeX source without expanding anything.
Three lexical rules, each stated once below:

* escape (``_ESCAPE``): a backslash and the character after it are one
  opaque token, so ``\\{`` is not a brace and ``\\%`` starts no comment;
* comment: an unescaped ``%`` drops the rest of its line (see below);
* name (``_NAME``): a control-sequence name is a backslash followed by
  ASCII letters, or by one character that is neither a brace nor
  whitespace.

Read from a token boundary, escaping comes down to parity: a character
is escaped exactly when the run of backslashes right before it has odd
length, because the character before the run ends a token (or the scan
starts at the run) and the run is then read as pairs.  Both scans apply
this rule instead of stepping token by token:

* :func:`strip_comments` finds each ``%`` with ``str.find`` and counts
  the backslashes before it within its line, whose start is a boundary.
* The main loop's searches (``_DEFINITION``, ``_CANDIDATE``) look only
  for a defining command or a backslash pair, stepped over as one token.
  Only an escaped backslash holds a backslash past its first character,
  so a command word is found exactly where a token scan from the same
  position finds it.

A source that holds neither ``\\def`` nor ``newcommand`` defines
nothing and is returned empty before any other work.  This is exact:
every defining command the scan accepts contains one of the two
substrings, and comment stripping cannot create one, because it removes
text from a ``%`` up to a newline it keeps, so any text it joins holds
that newline.

Otherwise comments are stripped first, and ``finditer`` drives one
pattern (``_DEFINITION``) from one defining command to the next.  Past
the command word it tries (``_WELL_FORMED``) a whole well-formed
definition up to just after the body: a ``\\def`` name, parameter text
and body; or a ``\\(re)newcommand`` with an optional ``*``, a
``{\\name}`` or ``\\name``, an optional ``[n]`` and ``[default]``, and a
body.  The body is a brace group nested at most ``_MAX_FAST_DEPTH``
deep, unrolled so that every position has one way to match.  A match
yields the general parser's record, with the same name, signature, body,
offset, resume position and skip count:

* the general parser pairs braces with one stack over the whole text, so
  a ``{`` at k gets the first ``}`` after k where the depth counted from
  k returns to zero, and that is the only place where a balanced group
  matched from k can end;
* both read escape tokens from the same positions: the main loop finds a
  command word only on a token boundary, so the pattern starts on one,
  and the body's ``{`` is a real brace to both;
* ``_NAME`` takes a letter run whole; a shorter name would put the same
  parameter text and body at the same place, so it fails where the whole
  run failed and the pattern returns the general parser's name;
* ``\\s`` matches exactly ``str.isspace()`` (as ``strip`` does), and
  every ``\\d`` character passes ``str.isdigit()``.

The general parser stays the only path for what the pattern rejects: a
damaged body, nesting deeper than the bound, braces inside ``[...]``, a
count such as ``[²]`` that ``isdigit`` accepts and ``\\d`` does not.  A
rejection matches the command word alone.  At the first one, one pass
over the stripped text pairs every brace (:func:`_brace_pairs`), and
from that candidate on the paper is parsed as before (``_CANDIDATE``),
finding each body by a table lookup.  A body lies between a ``{`` and
the ``}`` paired with it, so it is balanced by construction and its
braces are not paired again.

Definitions nested inside another definition's body are not emitted:
scanning resumes after a successfully parsed body, which matches what
the source defines at end-of-preamble.  Malformed candidates (bad name,
unbalanced body) are skipped and counted, and scanning continues.

Scanning is linear in source length.  Stripping counts each backslash
for at most one ``%``, and each candidate search reads on from where the
last ended.  A paper makes at most one failed pattern attempt, which
reads each character a bounded number of times.  After it, a candidate's
scan stops before the position where the main scan resumes, and brace
groups are jumped over through the table rather than read again.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

from .corpus import COLUMN_TYPE, Columns, in_corpus_order, interner

_ESCAPE = r"\\."
# Brace groups nested deeper than this inside a body are left to the
# general parser; the pattern grows linearly with the bound.
_MAX_FAST_DEPTH = 8


def _balanced(depth: int) -> str:
    """Pattern for text whose brace groups are balanced and nest at most
    ``depth`` deep, unrolled so that every position has one way to match."""
    unit = _ESCAPE if depth == 0 else rf"{_ESCAPE}|\{{{_balanced(depth - 1)}\}}"
    return rf"[^\\{{}}]*(?:(?:{unit})[^\\{{}}]*)*"


# Escape tokens and braces; ``.`` spans newlines, so any character can
# be escaped.  Only a lone trailing backslash matches nothing.
_TOKEN = re.compile(_ESCAPE + r"|[{}]", re.S)
# Text and escape tokens up to the next brace, or up to a lone trailing
# backslash, or to the end.
_TO_BRACE = re.compile(_balanced(0), re.S).match
# ``\s`` matches exactly the characters for which ``str.isspace()`` holds.
# The lookahead keeps a failed match from retrying shorter letter runs.
_NAME = re.compile(r"\\(?:[A-Za-z]+(?![A-Za-z])|[^{}\s])")
# A defining command not followed by a letter, or an escaped backslash,
# which the main loop steps over as one token.
_COMMAND = r"(def|newcommand|renewcommand)(?![A-Za-z])"
_CANDIDATE = re.compile(rf"\\(?:{_COMMAND}|\\)")
_SPACE = re.compile(r"\s*")
_OFFSET = attrgetter("offset")
# The rest of a whole well-formed definition (see the module docstring);
# the lookbehinds pick the branch for the command word just matched.
_WELL_FORMED = (
    rf"(?:(?<=\\def)\s*({_NAME.pattern})({_balanced(0)})"
    rf"|(?<=newcommand)\*?\s*(?:\{{\s*({_NAME.pattern})\s*\}}|({_NAME.pattern}))"
    rf"\s*(?:\[\s*(\d)\s*\]\s*(?:\[([^\\{{}}\]]*(?:{_ESCAPE}[^\\{{}}\]]*)*)\]\s*)?)?)"
    rf"\{{({_balanced(_MAX_FAST_DEPTH)})\}}"
)
# A candidate and, when well formed, the rest of its definition.  Groups: the command
# word; \def name and parameters; \newcommand name braced or bare, count, default; the body.
_DEFINITION = re.compile(rf"\\(?:{_COMMAND}(?:{_WELL_FORMED})?|\\)", re.S)


class MacroDefinition(NamedTuple):
    """One extracted definition: ``name`` expands to ``body``.

    ``signature`` records the parameter text (``#1#2`` style for \\def,
    ``[n]`` or ``[n][default]`` for \\newcommand); empty for
    parameterless macros.  ``offset`` is the character position of the
    definition in the comment-stripped source and fixes source order.
    """

    paper_id: str
    name: str
    body: str
    command: str
    signature: str = ""
    offset: int = 0


@dataclass
class ExtractionResult:
    definitions: list[MacroDefinition]
    skipped: int


def strip_comments(source: str) -> str:
    """Drop ``%`` to end-of-line comments; ``\\%`` survives."""
    kept: list[str] = []
    start = 0  # the first character neither kept nor dropped yet
    k = source.find("%")
    while k >= 0:
        j = k
        while j > start and source[j - 1] == "\\":
            j -= 1
        if (k - j) % 2 == 0:  # not an escaped ``%``
            kept.append(source[start:k])
            start = k = source.find("\n", k)
            if k < 0:
                return "".join(kept)
        k = source.find("%", k + 1)
    kept.append(source[start:])
    return "".join(kept)


def _brace_pairs(text: str) -> tuple[dict[int, int], int]:
    """Each paired ``{``'s index mapped to its ``}``'s index, and the
    number of braces left unpaired."""
    pairs: dict[int, int] = {}
    opened: list[int] = []
    stray = 0
    i = _TO_BRACE(text).end()
    while i < len(text):
        c = text[i]
        if c == "{":
            opened.append(i)
        elif c == "}":
            if opened:
                pairs[opened.pop()] = i
            else:
                stray += 1
        else:
            break  # a lone trailing backslash
        i = _TO_BRACE(text, i + 1).end()
    return pairs, stray + len(opened)


def _collapse_space(text: str) -> str:
    """Whitespace runs collapsed to one space, ends trimmed; everything
    else is kept byte-for-byte, so equal bodies compare equal across papers."""
    return " ".join(text.split())


def _group(text: str, pairs: dict[int, int], k: int) -> tuple[str | None, int]:
    """The content of the brace group opening at ``text[k]`` and the index
    after it, or (None, k + 1) when that brace has no pair."""
    close = pairs.get(k)
    if close is None:
        return None, k + 1
    return text[k + 1 : close], close + 1


def _control_sequence(text: str, k: int) -> tuple[str | None, int]:
    """The name at the backslash ``text[k]`` and the index after it, or
    (None, index after the backslash's escape token) when it starts none."""
    m = _NAME.match(text, k)
    if m is not None:
        return m.group(), m.end()
    m = _TOKEN.match(text, k)
    return None, (len(text) if m is None else m.end())


def _bracket_group(text: str, pairs: dict[int, int], i: int) -> tuple[str | None, int]:
    """Scan the ``[...]`` opening at ``text[i]``, jumping over brace groups.

    Returns (content, index after the ``]``); (None, index after a stray
    ``}``); or (None, len(text)) at an unpaired ``{`` or the text's end.
    """
    j = i + 1
    while True:
        tok = _TOKEN.search(text, j)
        stop = len(text) if tok is None else tok.start()
        close = text.find("]", j, stop)
        if close >= 0:
            return text[i + 1 : close], close + 1
        if tok is None:
            return None, len(text)
        if tok.group() == "}":
            return None, tok.end()
        if tok.group() == "{":
            group_close = pairs.get(tok.start())
            if group_close is None:
                return None, len(text)
            j = group_close + 1
        else:
            j = tok.end()


def _parse_def(text: str, i: int) -> tuple[str | None, str, int]:
    """Parse a ``\\def`` from ``i`` (just past the command word) up to its
    body: (name, signature, index of the body's ``{``), or (None, "",
    index to resume at)."""
    k = _SPACE.match(text, i).end()
    if not text.startswith("\\", k):
        return None, "", k
    name, k = _control_sequence(text, k)
    if name is None:
        return None, "", k
    for tok in _TOKEN.finditer(text, k):
        if tok.group() == "}":
            return None, "", tok.end()  # stray close brace in parameter text
        if tok.group() == "{":
            return name, _collapse_space(text[k : tok.start()]), tok.start()
    return None, "", len(text)


def _parse_newcommand(text: str, pairs: dict[int, int], i: int) -> tuple[str | None, str, int]:
    """Parse a ``\\newcommand``/``\\renewcommand`` from ``i``, as
    :func:`_parse_def` does."""
    if text.startswith("*", i):
        i += 1
    k = _SPACE.match(text, i).end()
    if k >= len(text):
        return None, "", k
    if text[k] == "{":
        inner, k = _group(text, pairs, k)
        if inner is None:
            return None, "", k  # resume inside the unbalanced group
        name = inner.strip()
        if not _NAME.fullmatch(name):
            return None, "", k
    elif text[k] == "\\":
        name, k = _control_sequence(text, k)
        if name is None:
            return None, "", k
    else:
        return None, "", k + 1
    signature = ""
    k = _SPACE.match(text, k).end()
    if text.startswith("[", k):
        arg_count, k = _bracket_group(text, pairs, k)
        count = "" if arg_count is None else arg_count.strip()
        if len(count) != 1 or not count.isdigit():
            return None, "", k
        signature = f"[{count}]"
        k = _SPACE.match(text, k).end()
        if text.startswith("[", k):
            default, k = _bracket_group(text, pairs, k)
            if default is None:
                return None, "", k
            signature += f"[{default}]"
        k = _SPACE.match(text, k).end()
    if not text.startswith("{", k):
        return None, "", k
    return name, signature, k


def extract_definitions(source: str, paper_id: str) -> ExtractionResult:
    """All recognized macro definitions in ``source``, in source order."""
    if "\\def" not in source and "newcommand" not in source:
        return ExtractionResult(definitions=[], skipped=0)
    text = strip_comments(source)
    defs: list[MacroDefinition] = []
    for m in _DEFINITION.finditer(text):
        command, def_name, params, braced_name, bare_name, count, default, body = m.groups()
        if body is None:
            if command is None:
                continue  # an escaped backslash
            break  # the first candidate the pattern rejects
        defs.append(tuple.__new__(MacroDefinition, (  # the generated __new__ less its binding
            paper_id, def_name or braced_name or bare_name, _collapse_space(body), command,
            _collapse_space(params) if params is not None
            else "" if count is None else f"[{count}]" if default is None
            else f"[{count}][{default}]",
            m.start(),
        )))
    else:
        return ExtractionResult(definitions=defs, skipped=0)
    pairs, _ = _brace_pairs(text)
    skipped = 0
    i = m.start()  # the general search finds the rejected candidate again
    while (m := _CANDIDATE.search(text, i)) is not None:
        i = m.end()
        command = m.group(1)
        if command is None:
            continue  # an escaped backslash
        if command == "def":
            name, signature, i = _parse_def(text, i)
        else:
            name, signature, i = _parse_newcommand(text, pairs, i)
        body = None
        if name is not None:
            body, i = _group(text, pairs, i)  # an unpaired ``{`` resumes after itself
        if body is None:
            skipped += 1
            continue
        defs.append(
            MacroDefinition(paper_id, name, _collapse_space(body), command, signature, m.start())
        )
    return ExtractionResult(definitions=defs, skipped=skipped)


class Definitions(Columns):
    """Every paper's definitions and effective definitions as int columns
    over one string table, the papers in corpus order.

    Paper ``i`` has ``counts[i]`` definitions, the next ones of ``name``,
    ``body``, ``command`` and ``signature`` (string ids) in source order,
    and ``effective[i]`` effective definitions, the next ones of
    ``effective_name``, ``effective_body`` and ``effective_signature`` in
    name order.  ``convention`` is 1 where that definition is the paper's
    convention for its body.  :class:`DefinitionRows` states both
    rules.  Each string has one id, so equal ids are equal strings.
    """

    COLUMNS = ("counts", "name", "body", "command", "signature", "effective",
               "effective_name", "effective_body", "effective_signature", "convention")


_TEXT = ("name", "body", "command", "signature")  # a definition's string columns, in id order
_EFFECTIVE = ("effective_name", "effective_body", "effective_signature")
# each column of rows, and the column that holds its rows' lengths
_ROWS = {**dict.fromkeys(_TEXT, "counts"), **dict.fromkeys((*_EFFECTIVE, "convention"), "effective")}


class DefinitionRows:
    """Each paper's definitions appended as int rows over one string
    table, one paper at a time; :meth:`definitions` gives their columns.

    A paper's definitions are read in offset order (a stable sort, so a tie
    keeps the order given).  The last definition of a name is its effective
    one (redefinition semantics).  Of the effective definitions of one body
    (``(signature, body)``), the earliest is the paper's convention for it;
    an offset tie goes to the name defined first.  A string gets the next id
    when first seen, a paper's names first, then its bodies, commands and
    signatures.
    """

    def __init__(self) -> None:
        self.ids = interner()
        self.cols = {column: array(COLUMN_TYPE) for column in Definitions.COLUMNS}
        self.skipped = 0  # malformed definitions, counted by :meth:`extract`

    def extract(self, source: str, paper_id: str) -> None:
        """Appends the rows of the definitions found in ``source``."""
        res = extract_definitions(source, paper_id)
        self.skipped += res.skipped
        self.append(res.definitions)

    def append(self, defs: Sequence[MacroDefinition]) -> None:
        """Appends one paper's rows."""
        cols, ids = self.cols, self.ids
        cols["counts"].append(len(defs))
        if not defs:
            cols["effective"].append(0)
            return
        _, *texts, _ = zip(*defs)
        for column, values in zip(_TEXT, texts):
            cols[column].extend(map(ids.__getitem__, values))
        effective = {d.name: d for d in sorted(defs, key=_OFFSET)}
        conventions: dict[tuple[str, str], str] = {}
        for d in sorted(effective.values(), key=_OFFSET):
            conventions.setdefault((d.signature, d.body), d.name)
        chosen = set(conventions.values())
        _, names, bodies, _, signatures, _ = zip(*(d for _, d in sorted(effective.items())))
        cols["effective"].append(len(names))
        for column, values in zip(_EFFECTIVE, (names, bodies, signatures)):
            cols[column].extend(map(ids.__getitem__, values))
        cols["convention"].extend(map(chosen.__contains__, names))

    def definitions(self, order: Sequence[int] | None = None) -> Definitions:
        """The columns, the papers taken in ``order`` (by default as
        appended), with string ids renumbered as if appended in that order."""
        cols, strings = in_corpus_order(order, self.cols, list(self.ids), _ROWS, _TEXT + _EFFECTIVE)
        return Definitions(strings, **cols)


def definition_columns(by_paper: Iterable[Sequence[MacroDefinition]]) -> Definitions:
    """The columns of each paper's definitions, the papers in corpus order
    (see :class:`DefinitionRows`)."""
    rows = DefinitionRows()
    for defs in by_paper:
        rows.append(defs)
    return rows.definitions()


def name_features(name: str) -> tuple[float, float, float, float]:
    """A name's orthography (backslash included), in column order: length,
    non-letter count, lower- and upper-case fractions."""
    if not name:
        raise ValueError("empty name")
    lower = sum(1 for c in name if "a" <= c <= "z")
    upper = sum(1 for c in name if "A" <= c <= "Z")
    n = len(name)
    return float(n), float(n - lower - upper), lower / n, upper / n


def body_features(body: str) -> tuple[float, float, float]:
    """A body's orthography, in feature column order: length, non-letter
    count, deepest brace nesting (escaped braces do not nest)."""
    if not body:
        raise ValueError("empty body")
    letters = sum(1 for c in body if "a" <= c <= "z" or "A" <= c <= "Z")
    depth = max_depth = 0
    for tok in _TOKEN.finditer(body):
        if tok.group() == "{":
            depth += 1
            max_depth = max(max_depth, depth)
        elif tok.group() == "}":
            depth -= 1
    return float(len(body)), float(len(body) - letters), float(max_depth)
