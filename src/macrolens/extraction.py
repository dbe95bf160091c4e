"""LaTeX macro definition extraction and surface features.

Recognizes ``\\def``, ``\\newcommand`` and ``\\renewcommand`` in raw
(possibly non-compilable) LaTeX source without expanding anything.
Comments are stripped first; bodies are captured as balanced brace
groups with backslash escapes honored (``\\{`` is not a brace).

Definitions nested inside another definition's body are not emitted:
scanning resumes after a successfully parsed body, which matches what
the source defines at end-of-preamble.  Malformed candidates (bad name,
unbalanced body) are skipped and counted, and scanning continues.
"""

from __future__ import annotations

from dataclasses import dataclass

_COMMANDS = ("\\def", "\\newcommand", "\\renewcommand")


def _is_letter(ch: str) -> bool:
    return ("a" <= ch <= "z") or ("A" <= ch <= "Z")


@dataclass(frozen=True)
class MacroDefinition:
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

    @property
    def body_key(self) -> tuple[str, str]:
        """Identity under which bodies compare equal across papers."""
        return (self.signature, self.body)


@dataclass
class ExtractionResult:
    definitions: list[MacroDefinition]
    skipped: int


def strip_comments(source: str) -> str:
    """Drop ``%`` to end-of-line comments; ``\\%`` survives."""
    out: list[str] = []
    for line in source.split("\n"):
        i = 0
        n = len(line)
        while i < n:
            c = line[i]
            if c == "\\":
                i += 2
                continue
            if c == "%":
                line = line[:i]
                break
            i += 1
        out.append(line)
    return "\n".join(out)


def _scan_control_sequence(text: str, i: int) -> tuple[str | None, int]:
    """Parse a control sequence starting at the backslash at ``i``.

    Returns (sequence including backslash, next index), or (None, next
    index) when the backslash starts nothing usable as a name.
    """
    j = i + 1
    n = len(text)
    if j >= n:
        return None, j
    c = text[j]
    if _is_letter(c):
        k = j
        while k < n and _is_letter(text[k]):
            k += 1
        return text[i:k], k
    if c in "{}" or c.isspace():
        return None, j + 1
    return text[i : j + 1], j + 1


def _scan_group(text: str, i: int) -> tuple[str | None, int]:
    """Scan the balanced ``{...}`` group starting at ``text[i]``.

    Returns (group content without the outer braces, index after the
    closing brace), or (None, len(text)) when unbalanced.
    """
    depth = 0
    j = i
    n = len(text)
    while j < n:
        c = text[j]
        if c == "\\":
            j += 2
            continue
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return text[i + 1 : j], j + 1
        j += 1
    return None, n


def _skip_ws(text: str, i: int) -> int:
    n = len(text)
    while i < n and text[i].isspace():
        i += 1
    return i


def check_balanced(text: str) -> bool:
    """True iff braces balance, treating ``\\X`` as opaque."""
    depth = 0
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\\":
            i += 2
            continue
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth < 0:
                return False
        i += 1
    return depth == 0


def normalize_body(raw: str) -> str:
    """Canonical body text: whitespace runs collapsed, ends trimmed.

    Everything else (control sequences, braces, punctuation) is kept
    byte-for-byte so that equal bodies compare equal across papers.
    """
    if not check_balanced(raw):
        raise ValueError("unbalanced braces in macro body")
    return " ".join(raw.split())


def _parse_def(text: str, i: int, paper_id: str, start: int) -> tuple[MacroDefinition | None, int]:
    """Parse a ``\\def`` at ``i`` (just past the command word)."""
    k = _skip_ws(text, i)
    if k >= len(text) or text[k] != "\\":
        return None, k
    name, k = _scan_control_sequence(text, k)
    if name is None:
        return None, k
    sig_start = k
    n = len(text)
    while k < n:
        c = text[k]
        if c == "\\":
            k += 2
            continue
        if c == "{":
            break
        if c == "}":
            return None, k + 1  # stray close brace in parameter text
        k += 1
    if k >= n:
        return None, n
    signature = " ".join(text[sig_start:k].split())
    body, k2 = _scan_group(text, k)
    if body is None:
        return None, k + 1  # resume inside the unbalanced group
    return (
        MacroDefinition(
            paper_id=paper_id,
            name=name,
            body=normalize_body(body),
            command="def",
            signature=signature,
            offset=start,
        ),
        k2,
    )


def _parse_newcommand(
    text: str, i: int, paper_id: str, start: int, command: str
) -> tuple[MacroDefinition | None, int]:
    """Parse a ``\\newcommand``/``\\renewcommand`` at ``i``."""
    n = len(text)
    if i < n and text[i] == "*":
        i += 1
    k = _skip_ws(text, i)
    if k >= n:
        return None, n
    if text[k] == "{":
        inner, k2 = _scan_group(text, k)
        if inner is None:
            return None, k + 1  # resume inside the unbalanced group
        k = k2
        name = inner.strip()
        if not _valid_name(name):
            return None, k
    elif text[k] == "\\":
        name, k = _scan_control_sequence(text, k)
        if name is None:
            return None, k
    else:
        return None, k + 1
    signature = ""
    k = _skip_ws(text, k)
    if k < n and text[k] == "[":
        arg_count, k = _scan_bracket_group(text, k)
        if arg_count is None or not (arg_count.strip().isdigit() and len(arg_count.strip()) == 1):
            return None, k
        signature = f"[{arg_count.strip()}]"
        k = _skip_ws(text, k)
        if k < n and text[k] == "[":
            default, k = _scan_bracket_group(text, k)
            if default is None:
                return None, k
            signature += f"[{default}]"
        k = _skip_ws(text, k)
    if k >= n or text[k] != "{":
        return None, k
    body, k2 = _scan_group(text, k)
    if body is None:
        return None, k + 1
    return (
        MacroDefinition(
            paper_id=paper_id,
            name=name,
            body=normalize_body(body),
            command=command,
            signature=signature,
            offset=start,
        ),
        k2,
    )


def _scan_bracket_group(text: str, i: int) -> tuple[str | None, int]:
    """Scan ``[...]`` starting at ``text[i]``; braces inside are opaque."""
    depth = 0
    j = i + 1
    n = len(text)
    while j < n:
        c = text[j]
        if c == "\\":
            j += 2
            continue
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth < 0:
                return None, j + 1
        elif c == "]" and depth == 0:
            return text[i + 1 : j], j + 1
        j += 1
    return None, n


def _valid_name(name: str) -> bool:
    if len(name) < 2 or name[0] != "\\":
        return False
    rest = name[1:]
    if all(_is_letter(c) for c in rest):
        return True
    return len(rest) == 1 and not rest.isspace() and rest not in "{}"


def extract_definitions(source: str, paper_id: str) -> ExtractionResult:
    """All recognized macro definitions in ``source``, in source order."""
    text = strip_comments(source)
    defs: list[MacroDefinition] = []
    skipped = 0
    i = 0
    n = len(text)
    while i < n:
        if text[i] != "\\":
            i += 1
            continue
        seq, j = _scan_control_sequence(text, i)
        if seq is None:
            i = j
            continue
        if seq == "\\def":
            parsed, j2 = _parse_def(text, j, paper_id, i)
        elif seq in ("\\newcommand", "\\renewcommand"):
            parsed, j2 = _parse_newcommand(text, j, paper_id, i, seq[1:])
        else:
            i = j
            continue
        if parsed is None:
            skipped += 1
            i = max(j2, j)
        else:
            defs.append(parsed)
            i = j2
    return ExtractionResult(definitions=defs, skipped=skipped)


@dataclass(frozen=True)
class Convention:
    """One paper's effective use of a body: the name it settled on."""

    body_key: tuple[str, str]
    name: str
    offset: int


def effective_definitions(definitions: list[MacroDefinition]) -> dict[str, MacroDefinition]:
    """Each name's surviving definition in one paper: the last definition
    of a name wins (redefinition semantics)."""
    effective: dict[str, MacroDefinition] = {}
    for d in sorted(definitions, key=lambda d: d.offset):
        effective[d.name] = d
    return effective


def paper_conventions(definitions: list[MacroDefinition]) -> list[Convention]:
    """Collapse one paper's definitions to its effective (body, name) choices.

    When a paper gives several names to one body, the earliest surviving
    definition (see :func:`effective_definitions`) provides the name used.
    """
    best: dict[tuple[str, str], MacroDefinition] = {}
    for d in effective_definitions(definitions).values():
        cur = best.get(d.body_key)
        if cur is None or d.offset < cur.offset:
            best[d.body_key] = d
    chosen = sorted(best.values(), key=lambda d: d.offset)
    return [Convention(body_key=d.body_key, name=d.name, offset=d.offset) for d in chosen]


@dataclass(frozen=True)
class NameFeatures:
    """Orthographic features of a macro name (backslash included)."""

    length: int
    non_alpha: int
    frac_lower: float
    frac_upper: float


@dataclass(frozen=True)
class BodyFeatures:
    length: int
    non_alpha: int
    max_brace_depth: int


def name_features(name: str) -> NameFeatures:
    if not name:
        raise ValueError("empty name")
    lower = sum(1 for c in name if "a" <= c <= "z")
    upper = sum(1 for c in name if "A" <= c <= "Z")
    return NameFeatures(
        length=len(name),
        non_alpha=len(name) - lower - upper,
        frac_lower=lower / len(name),
        frac_upper=upper / len(name),
    )


def body_features(body: str) -> BodyFeatures:
    if not body:
        raise ValueError("empty body")
    non_alpha = sum(1 for c in body if not _is_letter(c))
    depth = 0
    max_depth = 0
    i = 0
    n = len(body)
    while i < n:
        c = body[i]
        if c == "\\":
            i += 2
            continue
        if c == "{":
            depth += 1
            max_depth = max(max_depth, depth)
        elif c == "}":
            depth -= 1
        i += 1
    return BodyFeatures(length=len(body), non_alpha=non_alpha, max_brace_depth=max_depth)
