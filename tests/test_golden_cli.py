"""Replay the pinned CLI corpus byte-for-byte.

tests/golden/cli_records.json holds command lines and their exact output
lines; any change to record layout, canonical literals, or enumeration
order shows up here first.
"""

import argparse
import ast
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from kummerwit.cli import build_parser, dispatch

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "cli_records.json").read_text())


@pytest.mark.parametrize("row", GOLDEN, ids=lambda row: " ".join(row["argv"]))
def test_golden_record(row):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dispatch(list(row["argv"]))
    assert code == 0
    assert buf.getvalue().strip().splitlines() == row["output"]


def test_golden_inject_record_under_optimized_python():
    """python -O strips asserts; the verifier's checks are not asserts, so
    a witness inject record replays byte for byte in that mode too."""
    row = next(r for r in GOLDEN if r["argv"][:2] == ["witness", "inject"])
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-O", "-m", "kummerwit.cli", *row["argv"]],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "".join(line + "\n" for line in row["output"])


_REPLAY = """
import contextlib, io, json, sys
from kummerwit.cli import dispatch
records = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    records.append([code, out.getvalue(), err.getvalue()])
json.dump({"optimize": sys.flags.optimize, "records": records}, sys.stdout)
"""


def test_golden_corpus_under_optimized_python():
    """Every golden record replays byte for byte (exit code, stdout, and no
    stderr) under python -O, in one subprocess: no output rests on an
    assert."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", _REPLAY],
                          input=json.dumps([row["argv"] for row in GOLDEN]),
                          capture_output=True, text=True, timeout=600,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert (proc.returncode, proc.stderr) == (0, "")
    got = json.loads(proc.stdout)
    assert got["optimize"] == 1
    want = [[0, "".join(line + "\n" for line in row["output"]), ""] for row in GOLDEN]
    assert len(got["records"]) == len(want) == 79
    for row, rec, exp in zip(GOLDEN, got["records"], want):
        assert rec == exp, row["argv"]


def test_no_assert_statements_in_src():
    """python -O deletes asserts, so no check in src/ may be one: a lemma's
    check is proved (proof in the docstring, check in a test) or raises."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    found = [f"{path.relative_to(src)}:{node.lineno}" for path in sorted(src.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []


def test_every_cap_is_named_in_readme():
    """Each public module-level *_MAX constant under src/ is a cap a user can
    meet, so README names it."""
    root = pathlib.Path(__file__).resolve().parents[1]
    caps = sorted(target.id for path in (root / "src").rglob("*.py")
                  for node in ast.parse(path.read_text()).body if isinstance(node, ast.Assign)
                  for target in node.targets
                  if isinstance(target, ast.Name) and target.id.endswith("_MAX")
                  and not target.id.startswith("_"))
    assert len(caps) >= 7
    readme = (root / "README.md").read_text()
    assert [cap for cap in caps if cap not in readme] == []


def _cli_actions() -> list[list[str]]:
    """[command, action] for every action of every subcommand, [command]
    for a subcommand without an action."""
    out = []
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command, parser in subparsers.choices.items():
        action = next((a for a in parser._actions if a.dest == "action"), None)
        out += [[command, choice] for choice in action.choices] if action else [[command]]
    return out


def test_every_cli_action_has_a_golden_record():
    actions = _cli_actions()
    assert len(actions) >= 25
    missing = [prefix for prefix in actions
               if not any(row["argv"][:len(prefix)] == prefix for row in GOLDEN)]
    assert missing == []
