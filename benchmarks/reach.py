"""Which ``src/repro`` functions each entry point reaches.

Usage::

    python3 benchmarks/reach.py                       # all four entries
    python3 benchmarks/reach.py --entries smoke,experiments,examples \\
        -o /tmp/reach.md --justify docs/reachability.md

Each entry point runs in a subprocess whose ``PYTHONPATH`` starts with a
generated ``sitecustomize`` module.  It installs a ``sys.setprofile`` /
``threading.setprofile`` hook at interpreter start, and the hook appends
every ``src/repro`` code object to a per-process file the first time it
sees it called.  So the entry's own subprocesses (``run.py`` runs each
repetition in one) are counted, and so are forked pool workers: they
inherit the hook, reopen their file after the fork and lose nothing
when they end in ``os._exit``.

The entries:

* ``smoke`` — ``benchmarks/suite/run.py --smoke``;
* ``experiments`` — ``python -m repro.experiments all`` (quick preset);
* ``examples`` — every ``examples/*.py``;
* ``tier1`` — ``python -m pytest -x -q``.  The hook is re-installed
  after each test, because some tests install a profiler of their own
  and remove it when they finish.

For every function under ``src/repro`` (methods and nested functions
included) the report gives its line count and one label: *reached by a
non-test entry*, *tests only* (reached from ``tier1`` alone) or *never*.
The Markdown report summarises per package and lists the *tests only*
and *never* rows.  Justifications of the listed rows are carried over
from the ``--justify`` file (by default the output file itself), so
regenerating the report keeps them.

If any command of an entry exits non-zero or runs longer than
``TIMEOUT`` seconds, the script reports the failure and exits 1 without
writing the report: a run cut short would relabel everything it did not
reach as *tests only* or *never*.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

REACHED = "reached by a non-test entry"
TESTS_ONLY = "tests only"
NEVER = "never"
LABELS = (REACHED, TESTS_ONLY, NEVER)

#: Seconds one entry command may run before it counts as hung.
TIMEOUT = 3600.0

#: The generated ``sitecustomize``: the hook every entry's processes run.
HOOK = '''
import os
import sys
import threading

_OUT = os.environ.get("REPRO_REACH_OUT")
_SRC = os.environ.get("REPRO_REACH_SRC", "")
_seen = set()
_file = None


def _open():
    global _file
    _file = open(os.path.join(_OUT, "%d.txt" % os.getpid()), "a", buffering=1)


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            path = os.path.abspath(code.co_filename)
            if path.startswith(_SRC):
                _file.write("%s:%d\\n" % (path, code.co_firstlineno))


def reinstall():
    """Put the hook back if a test replaced or removed it."""
    if _OUT and sys.getprofile() is not _hook:
        sys.setprofile(_hook)


if _OUT:
    _open()
    os.register_at_fork(after_in_child=_open)
    threading.setprofile(_hook)
    sys.setprofile(_hook)
'''

#: A pytest plugin that keeps the hook installed across tests.
PYTEST_PLUGIN = '''
import sitecustomize


def pytest_runtest_teardown(item, nextitem):
    sitecustomize.reinstall()
'''


def entry_commands(name: str):
    """The commands (argument lists) one entry point runs."""
    python = sys.executable
    if name == "smoke":
        return [[python, "benchmarks/suite/run.py", "--smoke"]]
    if name == "experiments":
        return [[python, "-m", "repro.experiments", "all"]]
    if name == "examples":
        return [[python, str(path)] for path in sorted((ROOT / "examples").glob("*.py"))]
    if name == "tier1":
        return [[python, "-m", "pytest", "-x", "-q", "-p", "reach_pytest_plugin"]]
    raise SystemExit(f"unknown entry {name!r}")


ENTRIES = ("smoke", "experiments", "examples", "tier1")
NON_TEST_ENTRIES = ("smoke", "experiments", "examples")


def run_entry(name: str, hook_dir: Path) -> tuple:
    """Run one entry point; return (reached keys, exit codes, seconds)."""
    out = Path(tempfile.mkdtemp(prefix=f"reach-{name}-"))
    env = dict(
        os.environ,
        REPRO_REACH_OUT=str(out),
        REPRO_REACH_SRC=str(PACKAGE) + os.sep,
        PYTHONPATH=os.pathsep.join(
            [str(hook_dir), str(SRC)]
            + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        ),
    )
    codes = []
    start = time.monotonic()
    for command in entry_commands(name):
        try:
            done = subprocess.run(
                command, cwd=str(ROOT), env=env, timeout=TIMEOUT,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            codes.append(done.returncode)
            if done.returncode:
                print(f"  {' '.join(command[1:])}: exit {done.returncode}\n"
                      f"{done.stderr[-2000:]}", file=sys.stderr)
        except subprocess.TimeoutExpired:
            codes.append("timeout")
            print(f"  {' '.join(command[1:])}: timed out after {TIMEOUT:.0f} s",
                  file=sys.stderr)
    reached = set()
    for part in out.glob("*.txt"):
        for line in part.read_text().splitlines():
            path, _, first = line.rpartition(":")
            reached.add((Path(path).relative_to(SRC).as_posix(), int(first)))
        part.unlink()
    out.rmdir()
    return reached, codes, time.monotonic() - start


def function_table():
    """Every ``def`` under ``src/repro``, keyed like the hook's records.

    The key is ``(path, first line)``; a decorated function's code object
    starts at its first decorator.  Each row also names the enclosing
    function's key, so nested functions are not counted twice.
    """
    rows = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        parts = rel.split("/")
        package = f"repro/{parts[1]}/" if len(parts) > 2 else "repro/*.py"
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, prefix, parent):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", parent)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    key = (rel, first)
                    rows[key] = {
                        "function": f"{rel}:{prefix}{child.name}",
                        "package": package,
                        "lines": child.end_lineno - first + 1,
                        "parent": parent,
                    }
                    visit(child, f"{prefix}{child.name}.<locals>.", key)
                else:
                    visit(child, prefix, parent)

        visit(tree, "", None)
    return rows


def label_of(entries) -> str:
    if any(entry in NON_TEST_ENTRIES for entry in entries):
        return REACHED
    return TESTS_ONLY if entries else NEVER


CELLS = re.compile(r"^\| `([^`]+)` \|(.*)\|$")
RULES_HEADING = "## Justification rules"
#: Headings of the sections that list functions, one per listed label.
LISTED_HEADINGS = tuple(f"## {label.capitalize()} (" for label in (TESTS_ONLY, NEVER))


def read_justifications(path: Path) -> tuple:
    """``(rules, justifications)`` from an earlier report.

    ``rules`` is the ordered ``(pattern, text)`` list of its rules table;
    ``justifications`` maps a function to the text of its own row, unless
    that text is only what the first matching rule supplied.
    """
    rules, rows = [], {}
    if not path.exists():
        return rules, rows
    section = ""
    for line in path.read_text().splitlines():
        if line.startswith("## "):
            section = line
            continue
        match = CELLS.match(line)
        if not match:
            continue
        cells = [cell.strip() for cell in match.group(2).split("|")]
        if section.startswith(RULES_HEADING):
            rules.append((match.group(1), cells[-1]))
        elif section.startswith(LISTED_HEADINGS) and cells[-1]:
            rows[match.group(1)] = cells[-1]
    for function, text in list(rows.items()):
        if text == rule_for(function, rules):
            del rows[function]
    return rules, rows


def rule_for(function: str, rules) -> str:
    """The text of the first rule whose pattern matches ``function``."""
    for pattern, text in rules:
        if fnmatch.fnmatchcase(function, pattern):
            return text
    return ""


def render(rows, runs, rules, justifications) -> str:
    lines = [
        "# Reachability of `src/repro`",
        "",
        "Generated by `python3 benchmarks/reach.py` (see its docstring for",
        "how processes are followed).  A function is *reached by a non-test",
        "entry* if `run.py --smoke`, `python -m repro.experiments all` or an",
        "`examples/*.py` script calls it, *tests only* if only tier-1 does,",
        "and *never* otherwise.  Line counts include decorators and",
        "docstrings; package totals count a nested function once, inside",
        "the function that encloses it.  The justifications below are",
        "written by hand and carried over when the report is regenerated.",
        "",
        "Regenerate (≈ 10 minutes on a 2-vCPU host):",
        "",
        "    python3 benchmarks/reach.py",
        "",
        "| entry | exit codes | wall seconds |",
        "|---|---|---|",
    ]
    for name, (codes, seconds) in runs.items():
        shown = ", ".join(str(code) for code in codes)
        if len(codes) > 3:
            shown = f"{sum(1 for code in codes if code == 0)} of {len(codes)} exit 0"
        lines.append(f"| {name} | {shown} | {seconds:.0f} |")
    totals = defaultdict(lambda: defaultdict(lambda: [0, 0]))
    for key, row in rows.items():
        cell = totals[row["package"]][row["label"]]
        cell[0] += 1
        parent = row["parent"]
        if parent is None or rows[parent]["label"] != row["label"]:
            cell[1] += row["lines"]
    lines += [
        "",
        "## Per package (functions / lines)",
        "",
        "| package | " + " | ".join(LABELS) + " |",
        "|---|---|---|---|",
    ]
    grand = defaultdict(lambda: [0, 0])
    for package in sorted(totals):
        cells = []
        for label in LABELS:
            count, length = totals[package][label]
            grand[label][0] += count
            grand[label][1] += length
            cells.append(f"{count} / {length}")
        lines.append(f"| `{package}` | " + " | ".join(cells) + " |")
    lines.append(
        "| **total** | "
        + " | ".join(f"{grand[label][0]} / {grand[label][1]}" for label in LABELS)
        + " |"
    )
    lines += [
        "",
        RULES_HEADING,
        "",
        "A listed row without a justification of its own takes the first",
        "rule whose pattern (`fnmatch`, on the function column) matches it.",
        "",
        "| pattern | justification |",
        "|---|---|",
    ]
    lines += [f"| `{pattern}` | {text} |" for pattern, text in rules]
    for label in (TESTS_ONLY, NEVER):
        listed = sorted(
            (row for row in rows.values() if row["label"] == label),
            key=lambda row: row["function"],
        )
        lines += [
            "",
            f"## {label.capitalize()} ({len(listed)})",
            "",
            "| function | lines | justification |",
            "|---|---|---|",
        ]
        for row in listed:
            why = justifications.get(row["function"]) or rule_for(row["function"], rules)
            lines.append(f"| `{row['function']}` | {row['lines']} | {why} |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--entries", default=",".join(ENTRIES),
                        help="comma-separated subset of " + ", ".join(ENTRIES))
    parser.add_argument("-o", "--output", default=str(ROOT / "docs" / "reachability.md"))
    parser.add_argument("--justify", default=None,
                        help="earlier report to take justifications from "
                             "(default: the output file)")
    args = parser.parse_args(argv)
    entries = [name for name in args.entries.split(",") if name]
    rows = function_table()
    for row in rows.values():
        row["entries"] = []
    runs = {}
    with tempfile.TemporaryDirectory(prefix="reach-hook-") as hook_dir:
        (Path(hook_dir) / "sitecustomize.py").write_text(HOOK)
        (Path(hook_dir) / "reach_pytest_plugin.py").write_text(PYTEST_PLUGIN)
        for name in entries:
            print(f"running {name} ...", file=sys.stderr)
            reached, codes, seconds = run_entry(name, Path(hook_dir))
            runs[name] = (codes, seconds)
            for key in reached:
                if key in rows:
                    rows[key]["entries"].append(name)
    failed = {name: codes for name, (codes, _) in runs.items()
              if any(code != 0 for code in codes)}
    if failed:
        print(f"entries failed, {args.output} not written: {json.dumps(failed)}",
              file=sys.stderr)
        return 1
    for row in rows.values():
        row["label"] = label_of(row["entries"])
    justify = Path(args.justify or args.output)
    report = render(rows, runs, *read_justifications(justify))
    Path(args.output).write_text(report)
    counts = {label: sum(1 for row in rows.values() if row["label"] == label)
              for label in LABELS}
    print(json.dumps({"entries": {k: v[0] for k, v in runs.items()}, **counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
