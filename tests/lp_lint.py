"""Strict LP-format linter and reader, independent of the writer.

lint_lp checks section structure, row syntax, name and number tokens,
duplicate row names, and that binaries were declared with valid names. It
returns a list of problems; an empty list means the file lints clean.
read_lp reads a clean file back into coefficients a MIP solver can take.
"""

import re

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NUM = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_TERM = rf"(?:{_NUM}\s+)?{_NAME}"
_EXPR = rf"[+-]?\s*{_TERM}(?:\s*[+-]\s*{_TERM})*"

_ROW_RE = re.compile(rf"^({_NAME})\s*:\s*({_EXPR})\s*(<=|>=|=)\s*({_NUM})$")
_OBJ_RE = re.compile(rf"^({_NAME})\s*:\s*({_EXPR})$")
_BOUND_RES = (
    re.compile(rf"^{_NAME}\s*(<=|>=|=)\s*{_NUM}$"),
    re.compile(rf"^{_NUM}\s*<=\s*{_NAME}\s*<=\s*{_NUM}$"),
    re.compile(rf"^{_NAME}\s+free$", re.IGNORECASE),
)
_NAME_RE = re.compile(rf"^{_NAME}$")

_SECTIONS = {
    "minimize": "objective",
    "maximize": "objective",
    "subject to": "constraints",
    "st": "constraints",
    "s.t.": "constraints",
    "bounds": "bounds",
    "binaries": "binaries",
    "binary": "binaries",
    "generals": "generals",
    "general": "generals",
    "end": "end",
}
_ORDER = ["start", "objective", "constraints", "bounds", "binaries", "generals", "end"]


def lint_lp(text: str):
    problems = []
    state = "start"
    row_names = set()
    seen_constraints = 0

    def advance(new_state: str, line_no: int):
        nonlocal state
        if _ORDER.index(new_state) <= _ORDER.index(state):
            problems.append(f"line {line_no}: section {new_state!r} out of order")
        state = new_state

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        section = _SECTIONS.get(line.lower())
        if section:
            advance(section, line_no)
            continue
        if state == "start":
            problems.append(f"line {line_no}: content before the objective section")
        elif state == "objective":
            if not _OBJ_RE.match(line) and not re.fullmatch(rf"{_EXPR}", line):
                problems.append(f"line {line_no}: bad objective syntax: {line!r}")
        elif state == "constraints":
            m = _ROW_RE.match(line)
            if not m:
                problems.append(f"line {line_no}: bad constraint syntax: {line!r}")
                continue
            name = m.group(1)
            if name in row_names:
                problems.append(f"line {line_no}: duplicate row name {name!r}")
            row_names.add(name)
            seen_constraints += 1
        elif state == "bounds":
            if not any(r.match(line) for r in _BOUND_RES):
                problems.append(f"line {line_no}: bad bound syntax: {line!r}")
        elif state in ("binaries", "generals"):
            for tok in line.split():
                if not _NAME_RE.match(tok):
                    problems.append(f"line {line_no}: bad variable name {tok!r}")
        elif state == "end":
            problems.append(f"line {line_no}: content after End")

    if state != "end":
        problems.append("missing End terminator")
    if seen_constraints == 0:
        problems.append("no constraint rows")
    return problems


_SIGNED_TERM_RE = re.compile(rf"([+-]?)\s*(?:({_NUM})\s+)?({_NAME})")


def _coefficients(expr: str):
    coefs = {}
    for sign, num, name in _SIGNED_TERM_RE.findall(expr):
        value = float(num) if num else 1.0
        coefs[name] = coefs.get(name, 0.0) + (-value if sign == "-" else value)
    return coefs


def read_lp(text: str):
    """A minimization model from lint-clean LP text, as (objective, rows,
    bounds, binaries): objective and each row's coefficients map variable
    names to numbers, rows are (coefficients, sense, rhs), bounds are
    (name, sense, value) from the `name <op> value` bound lines, and
    binaries lists the binary variables. Anything else raises ValueError."""
    problems = lint_lp(text)
    if problems:
        raise ValueError("; ".join(problems))
    objective, rows, bounds, binaries = {}, [], [], []
    state = "start"
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        section = _SECTIONS.get(line.lower())
        if section:
            if section == "objective" and line.lower() != "minimize":
                raise ValueError(f"only minimization is read, not {line!r}")
            state = section
        elif state == "objective":
            objective = _coefficients(line.split(":", 1)[-1])
        elif state == "constraints":
            _, expr, sense, rhs = _ROW_RE.match(line).groups()
            rows.append((_coefficients(expr), sense, float(rhs)))
        elif state == "bounds":
            m = re.fullmatch(rf"({_NAME})\s*(<=|>=|=)\s*({_NUM})", line)
            if not m:
                raise ValueError(f"unread bound line {line!r}")
            bounds.append((m.group(1), m.group(2), float(m.group(3))))
        elif state == "binaries":
            binaries.extend(line.split())
        else:
            raise ValueError(f"unread {state} line {line!r}")
    return objective, rows, bounds, binaries
