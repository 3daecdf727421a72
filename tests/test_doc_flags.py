"""The docs name only flags the CLI accepts.

Every ``--flag`` on a ``python -m repro <cmd>`` line (in a fenced block or
an inline code span) must be an option of that subcommand's parser, and
every inline code span that starts with ``--`` in README.md and docs/
must be an option of some ``repro`` parser — so deleting a flag from the
CLI fails here until the docs stop mentioning it.  A value written after
a flag with a closed vocabulary (``--oracle-mode exact``, or alternatives
``a|b``) must be one of its choices.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").rglob("*.md"))]

_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
_FLAG_VALUE = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]*)[ =]([^\s`-][^\s`]*)")
_COMMAND = re.compile(r"python3? -m repro\s+(.*)")
_FENCE = re.compile(r"^```.*?^```", re.S | re.M)


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _options(parser: argparse.ArgumentParser) -> set:
    return {flag for action in parser._actions for flag in action.option_strings}


def _every_parser(parser):
    yield parser
    for child in _subparsers(parser).values():
        yield from _every_parser(child)


def _command_parser(parser, words):
    """The deepest (sub)parser the leading subcommand words select."""
    for word in words:
        child = _subparsers(parser).get(word)
        if child is None:
            break
        parser = child
    return parser


def _fenced_lines(text: str):
    """Lines of fenced code blocks, backslash continuations joined."""
    in_fence, buf = False, ""
    for line in text.splitlines():
        if line.strip().startswith("```"):
            in_fence, buf = not in_fence, ""
            continue
        if not in_fence:
            continue
        buf = f"{buf} {line.strip()}" if buf else line
        if buf.rstrip().endswith("\\"):
            buf = buf.rstrip()[:-1]
            continue
        yield buf
        buf = ""


PARSER = build_parser()
PARSERS = {parser.prog: parser for parser in _every_parser(PARSER)}


def _mentions():
    """``(doc, command, flag)`` for every documented flag, and
    ``(doc, flag, value)`` for every value written after one.

    ``command`` is the (sub)parser a ``python -m repro`` line selects, or
    ``None`` for a bare inline ``--flag``.
    """
    found, values = set(), set()
    for doc in DOCS:
        text = doc.read_text()
        spans = [
            " ".join(span.split())
            for span in re.findall(r"`([^`]+)`", _FENCE.sub("", text))
        ]
        snippets = [(line, False) for line in _fenced_lines(text)]
        for snippet, inline in [*snippets, *((span, True) for span in spans)]:
            match = _COMMAND.search(snippet)
            if match:
                args = match.group(1)
                command = _command_parser(PARSER, args.split()).prog
                found |= {(doc.name, command, flag) for flag in _FLAG.findall(args)}
            elif inline and snippet.startswith("--"):
                args = snippet
                found.add((doc.name, None, _FLAG.match(args).group(0)))
            else:
                continue
            values |= {(doc.name, *pair) for pair in _FLAG_VALUE.findall(args)}
    return sorted(found, key=str), sorted(values)


MENTIONS, VALUES = _mentions()

#: Flag -> union of its choices over every parser that has it.
CHOICES: dict = {}
for _parser in PARSERS.values():
    for _action in _parser._actions:
        for _flag in _action.option_strings if _action.choices is not None else ():
            CHOICES.setdefault(_flag, set()).update(_action.choices)


def test_the_docs_mention_flags():
    # A broken extractor would make the check below vacuous.
    assert len(MENTIONS) >= 40
    assert any(command is None for _doc, command, _flag in MENTIONS)


@pytest.mark.parametrize(
    "doc, command, flag",
    [
        pytest.param(*mention, id=f"{mention[0]}:{mention[1] or 'inline'}:{mention[2]}")
        for mention in MENTIONS
    ],
)
def test_documented_flag_is_accepted(doc, command, flag):
    if command is None:
        accepted = set().union(*map(_options, PARSERS.values()))
    else:
        accepted = _options(PARSERS[command])
    assert flag in accepted, (
        f"{doc} documents {flag}, unknown to {command or 'every repro command'}"
    )


@pytest.mark.parametrize(
    "doc, flag, value",
    [
        pytest.param(*pair, id=f"{pair[0]}:{pair[1]}={pair[2]}")
        for pair in VALUES
        if pair[1] in CHOICES
    ],
)
def test_documented_choice_is_accepted(doc, flag, value):
    for alternative in value.split("|"):
        assert alternative in CHOICES[flag], (
            f"{doc} documents {flag} {alternative}, not one of {sorted(CHOICES[flag])}"
        )
