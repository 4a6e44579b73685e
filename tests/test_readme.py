"""The README's examples run as written: each command of the "Command line"
block exits 0 and prints what its comment says, and each call of the
"Library" block returns its commented value. An option or parameter that
the code drops cannot stay in the docs."""

import re
import shlex
from pathlib import Path

import pytest

from zetaroutes import zeta_exact
from zetaroutes.cli import run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading, language):
    """The first fenced code block in `language` under the ## heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def _commented(block):
    """(code, comment) per line of the block; the comment is '' if none."""
    pairs = []
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        pairs.append((code.strip(), comment.strip()))
    return pairs


COMMANDS = [(code, c) for code, c in _commented(_block("Command line", "sh")) if code]
COUNTS = {"two": 2, "three": 3, "four": 4}


def _printed(comment):
    """The lines a command's comment says it prints first, and whether they
    are all it prints: "V", "V, remark" or "V four times, remark". None for
    a comment that gives no value."""
    m = re.fullmatch(r"(\S+)(?: (\w+) times)?(, .*)?", comment)
    if m is None:
        return None
    value, count, remark = m.groups()
    return [value] * (COUNTS[count] if count else 1), remark is None


def test_command_block_is_found():
    assert len(COMMANDS) == 11
    assert sum(_printed(c) is not None for _, c in COMMANDS) == 5


@pytest.mark.parametrize("line, comment", COMMANDS, ids=[code for code, _ in COMMANDS])
def test_readme_command_runs(capsys, line, comment):
    program, *argv = shlex.split(line)
    assert program == "zetaroutes"
    assert run(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    shown = _printed(comment)
    if shown is not None:
        lines, whole = shown
        got = out.splitlines()
        assert (got if whole else got[: len(lines)]) == lines


def _shows(comment, value):
    """Whether the comment gives repr(value): "..." stands for elided digits,
    and ", " may start a remark."""
    text = repr(value)
    cuts = [len(comment)] + [m.start() for m in re.finditer(", ", comment)]
    return any(
        re.fullmatch(re.escape(comment[:i]).replace(r"\.\.\.", r"\d*"), text) for i in cuts
    )


def test_readme_library_block_returns_its_commented_values():
    pairs = _commented(_block("Library", "python"))
    namespace = {}
    exec("\n".join(code for code, comment in pairs if not comment), namespace)
    checked = [(code, comment) for code, comment in pairs if comment]
    assert len(checked) == 5
    for code, comment in checked:
        assert _shows(comment, eval(code, namespace)), code


def _names(text):
    return re.findall(r"`(\w+)`", text)


def test_exact_route_table_is_zeta_exact_routes():
    # Each row's route and its `reads` cell, in the order of zeta_exact.ROUTES.
    section = README.split("**Exact (rational arithmetic, zero tolerance)**\n", 1)[1]
    rows = section.strip().split("\n\n", 1)[0].splitlines()[2:]
    table = [[_names(cell) for cell in row.strip("|").split("|")[:2]] for row in rows]
    assert table == [
        [[route.value], list(reads)] for route, (*_, reads) in zeta_exact.ROUTES.items()
    ]


def test_route_option_sentence_names_the_routes():
    sentence = README.split("`zeta exact --route` takes ", 1)[1].split(";", 1)[0]
    assert _names(sentence) == [*(route.value for route in zeta_exact.ROUTES), "all"]
