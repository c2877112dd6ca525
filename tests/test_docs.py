"""Every CLI command and Python import the documentation shows must work.

Each line of a fenced block that starts with ``repro`` or
``python -m repro.cli`` (after an optional ``$`` prompt, with ``\\``
continuations joined and a trailing ``# comment`` or ``> redirect``
stripped) goes through :func:`repro.cli.build_parser`, and so does the
command a ``profile`` line wraps.  A documented subcommand or flag that
the CLI no longer has fails here.

Each fenced ``python`` block must parse, every ``from repro... import
name`` in it must resolve, and so must every ``alias.attr`` where
``alias`` names a module imported from ``repro``.  A call to a function
or class resolved that way must pass only keywords it accepts, unless
it takes ``**kwargs``.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import re
import shlex
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]

DOCUMENTS = [
    ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / "EXPERIMENTS.md",
    ROOT / "DESIGN.md",
    ROOT / "benchmarks" / "README.md",
]

PREFIXES = ("repro ", "python -m repro.cli ")


def documented_commands(path: Path) -> Iterator[Tuple[int, List[str]]]:
    """``(line number, argv)`` of every CLI command fenced in ``path``."""
    fenced = False
    pending = ""
    for number, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if line.lstrip().startswith("```"):
            fenced, pending = not fenced, ""
            continue
        if not fenced:
            continue
        if not pending:
            start = number
        text = pending + line.strip()
        if text.endswith("\\"):
            pending = text[:-1] + " "
            continue
        pending = ""
        text = re.split(r"\s[#>]", text.removeprefix("$ "), maxsplit=1)[0]
        for prefix in PREFIXES:
            if text.startswith(prefix):
                yield start, shlex.split(text[len(prefix):])


def python_blocks(path: Path) -> Iterator[Tuple[int, str]]:
    """``(line number of the fence, source)`` of every ``python`` block."""
    block: List[str] = []
    start = 0
    inside = False
    for number, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        fence = line.strip()
        if inside and fence.startswith("```"):
            yield start, "\n".join(block)
            inside = False
        elif not inside and fence == "```python":
            block, start, inside = [], number, True
        elif inside:
            block.append(line)


def _resolve(module: str, name: str):
    """``module.name`` as an attribute or a submodule; raises if neither."""
    parent = importlib.import_module(module)
    if hasattr(parent, name):
        return getattr(parent, name)
    return importlib.import_module(f"{module}.{name}")


def _rejected_keywords(callee, call: ast.Call) -> List[str]:
    """Keywords of ``call`` that ``callee``'s signature does not accept."""
    try:
        parameters = inspect.signature(callee).parameters.values()
    except (TypeError, ValueError):
        return []
    accepted = set()
    for parameter in parameters:
        if parameter.kind is parameter.VAR_KEYWORD:
            return []
        if parameter.kind is not parameter.POSITIONAL_ONLY:
            accepted.add(parameter.name)
    return [
        keyword.arg for keyword in call.keywords
        if keyword.arg is not None and keyword.arg not in accepted
    ]


def unresolved_imports(source: str) -> List[Tuple[int, str]]:
    """``(line, dotted name)`` of every ``repro`` name ``source`` uses
    that does not exist, and ``(line, "name(keyword=)")`` of every
    keyword a call passes to a ``repro`` callable that rejects it."""
    tree = ast.parse(source)
    stale: List[Tuple[int, str]] = []
    modules: Dict[str, object] = {}
    callables: Dict[str, object] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
            (node.module or "").split(".")[0] == "repro"
        ):
            for alias in node.names:
                try:
                    value = _resolve(node.module, alias.name)
                except ImportError:
                    stale.append((node.lineno, f"{node.module}.{alias.name}"))
                    continue
                if inspect.ismodule(value):
                    modules[alias.asname or alias.name] = value
                elif callable(value):
                    callables[alias.asname or alias.name] = value
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "repro":
                    continue
                try:
                    value = importlib.import_module(alias.name)
                except ImportError:
                    stale.append((node.lineno, alias.name))
                    continue
                if alias.asname:
                    modules[alias.asname] = value
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and not hasattr(modules[node.value.id], node.attr)
        ):
            stale.append((node.lineno, f"{node.value.id}.{node.attr}"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        function = node.func
        if isinstance(function, ast.Name) and function.id in callables:
            name, callee = function.id, callables[function.id]
        elif (
            isinstance(function, ast.Attribute)
            and isinstance(function.value, ast.Name)
            and function.value.id in modules
            and hasattr(modules[function.value.id], function.attr)
        ):
            name = f"{function.value.id}.{function.attr}"
            callee = getattr(modules[function.value.id], function.attr)
        else:
            continue
        stale.extend(
            (node.lineno, f"{name}({keyword}=)")
            for keyword in _rejected_keywords(callee, node)
        )
    return sorted(stale)


def _parses(argv: List[str]) -> bool:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "profile":
            build_parser().parse_args(args.rest)
    except SystemExit:
        return False
    return True


def test_documented_commands_parse(capsys):
    commands = [
        (path.relative_to(ROOT), number, argv)
        for path in DOCUMENTS
        for number, argv in documented_commands(path)
    ]
    assert commands
    stale = [
        f"{path}:{number}: {shlex.join(argv)}"
        for path, number, argv in commands
        if not _parses(argv)
    ]
    capsys.readouterr()  # argparse's usage errors
    assert not stale, "\n".join(stale)


@pytest.mark.parametrize("text, argv", [
    ("repro import out/store   # strict", ["import", "out/store"]),
    ("$ repro import out/store", ["import", "out/store"]),
    ("python -m repro.cli report --all > out.txt", ["report", "--all"]),
    ("python -m repro.cli validate --seeds 1 \\\n    --scale 0.02",
     ["validate", "--seeds", "1", "--scale", "0.02"]),
    ("from repro import sched", None),
])
def test_extraction(tmp_path, text, argv):
    document = tmp_path / "doc.md"
    document.write_text(f"{text}\n```bash\n{text}\n```\n", encoding="utf-8")
    found = [tokens for _, tokens in documented_commands(document)]
    assert found == ([argv] if argv else [])


def test_documented_python_imports_resolve():
    blocks = [
        (path.relative_to(ROOT), number, source)
        for path in DOCUMENTS
        for number, source in python_blocks(path)
    ]
    assert blocks
    stale = []
    for path, number, source in blocks:
        try:
            found = unresolved_imports(source)
        except SyntaxError as exc:
            stale.append(f"{path}:{number}: does not parse: {exc}")
            continue
        stale.extend(f"{path}:{number + line}: {name}" for line, name in found)
    assert not stale, "\n".join(stale)


def test_import_check_flags_stale_names(tmp_path):
    document = tmp_path / "doc.md"
    document.write_text(
        "```python\n"
        "from repro.telemetry import store, no_such_name\n"
        "import repro.telemetry.store as st\n"
        "store.load_dataset(path)\n"
        "store.no_such_reader(path)\n"
        "st.no_such_writer(path)\n"
        "st.load_dataset(path, strict=True, no_such_flag=1)\n"
        "```\n",
        encoding="utf-8",
    )
    [(number, source)] = python_blocks(document)
    assert number == 1
    assert unresolved_imports(source) == [
        (1, "repro.telemetry.no_such_name"),
        (4, "store.no_such_reader"),
        (5, "st.no_such_writer"),
        (6, "st.load_dataset(no_such_flag=)"),
    ]
