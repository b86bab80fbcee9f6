#!/usr/bin/env python
"""Documentation checker behind the CI ``docs`` job.

Five families of checks over ``README.md`` and ``docs/*.md``:

1. **Links** — every intra-repo markdown link ``[text](target)`` must
   resolve to an existing file or directory (anchors are stripped;
   ``http(s)``/``mailto`` targets are skipped).
2. **CLI examples** — every ``python -m repro ...`` line inside a fenced
   ``bash`` block, or in the ``repro.cli`` module docstring, must name a
   real subcommand: the named command is smoke-run with ``--help`` and
   must exit 0.  This catches renamed or removed commands without paying
   for full example runs.
3. **SQL examples** — every SQL string quoted after ``python -m repro
   explain``, ``trace`` or ``profile`` in those same places must run:
   ``python -m repro explain "<sql>" --rows 4096`` must exit 0.  This
   catches a query naming a column the tweets table does not have.
4. **Python imports** — every name in a ``from repro... import ...``
   line inside a fenced ``python`` block must import: the module is
   imported and each name must be an attribute or a submodule of it.
   This catches a renamed or deleted class left behind in an example.
5. **Coverage** — ``README.md`` must link every file under ``docs/``
   (the docs index stays complete), ``docs/architecture.md`` must
   mention every package under ``src/repro/`` (the module table stays
   complete), and ``docs/cost_model.md`` must mention every
   ``src/repro/costmodel/*_model.py`` module (no kernel ships an
   undocumented cost model).

Run from the repository root::

    PYTHONPATH=src python tools/check_docs.py

Exit status 0 = clean; 1 = problems (one per line on stderr).
"""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
#: The command line module; its docstring lists example invocations.
CLI_MODULE = REPO_ROOT / "src" / "repro" / "cli.py"

#: [text](target) — target captured up to the closing parenthesis.
_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
#: Fenced code blocks with their info string.
_FENCE = re.compile(r"^```(\w*)\s*$")
#: ``from repro... import a, b`` or a parenthesized, multi-line name list.
_FROM_IMPORT = re.compile(
    r"^\s*from\s+(repro[.\w]*)\s+import\s+(\([^)]*\)|[^\n]+)", re.MULTILINE
)
#: The quoted SQL of ``python -m repro explain|trace|profile "<sql>"``.
_SQL_EXAMPLE = re.compile(r'python -m repro (?:explain|trace|profile)\s+"([^"]+)"')
#: Rows of the tweets table each SQL example runs against.
SQL_EXAMPLE_ROWS = 4096
#: Targets that are not repository paths.
_EXTERNAL = ("http://", "https://", "mailto:")


def doc_files() -> list[Path]:
    return [REPO_ROOT / "README.md"] + sorted(
        (REPO_ROOT / "docs").glob("*.md")
    )


def _label(path: Path) -> str:
    """Repo-relative label when possible (tests pass tmp paths)."""
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def _iter_links(text: str):
    for match in _LINK.finditer(text):
        yield match.group(1)


def check_links(paths: list[Path] | None = None) -> list[str]:
    """Every relative link in every document resolves on disk."""
    problems = []
    for path in paths or doc_files():
        base = path.parent
        for target in _iter_links(path.read_text()):
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            if not (base / relative).exists():
                problems.append(
                    f"{_label(path)}: broken link -> {target}"
                )
    return problems


def _fenced_lines(text: str, languages: tuple[str, ...]) -> list[str]:
    """The lines of every fenced block whose info string is in
    ``languages``, in document order."""
    lines, in_block, block_lang = [], False, ""
    for line in text.splitlines():
        fence = _FENCE.match(line)
        if fence:
            in_block = not in_block
            block_lang = fence.group(1).lower()
            continue
        if in_block and block_lang in languages:
            lines.append(line.strip())
    return lines


def _command_lines(path: Path) -> list[str]:
    """The lines a document shows commands on, with ``\\`` continuations
    joined: every fenced ``bash``/``sh`` block of a markdown file, or the
    module docstring of a Python file."""
    if path.suffix == ".py":
        docstring = ast.get_docstring(ast.parse(path.read_text())) or ""
        raw = [line.strip() for line in docstring.splitlines()]
    else:
        raw = _fenced_lines(
            path.read_text(), ("bash", "sh", "shell", "console")
        )
    lines: list[str] = []
    for line in raw:
        if lines and lines[-1].endswith("\\"):
            lines[-1] = lines[-1][:-1].rstrip() + " " + line
        else:
            lines.append(line)
    return lines


def command_sources() -> list[Path]:
    """The documents plus the ``repro.cli`` module."""
    return doc_files() + [CLI_MODULE]


def cli_invocations(paths: list[Path] | None = None) -> list[tuple[str, str]]:
    """All ``python -m repro...`` invocations found in bash blocks and the
    CLI docstring, as ``(document, module-and-subcommand)`` pairs."""
    found = []
    pattern = re.compile(r"python -m (repro[.\w]*)(?:\s+([\w-]+))?")
    for path in paths or command_sources():
        for line in _command_lines(path):
            match = pattern.search(line)
            if not match:
                continue
            module, first_arg = match.group(1), match.group(2)
            command = module
            # A non-flag first token is a subcommand (repro topk, ...).
            if first_arg and not first_arg.startswith("-"):
                command = f"{module} {first_arg}"
            found.append((_label(path), command))
    return found


def _run_repro(arguments: list[str]) -> int:
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", *arguments],
        capture_output=True,
        cwd=REPO_ROOT,
        env=environment,
    ).returncode


def check_cli_examples(paths: list[Path] | None = None) -> list[str]:
    """Smoke-run each distinct quoted CLI command with ``--help``."""
    problems = []
    seen: dict[str, bool] = {}
    for document, command in cli_invocations(paths):
        if command not in seen:
            seen[command] = _run_repro([*command.split(), "--help"]) == 0
        if not seen[command]:
            problems.append(
                f"{document}: quoted command 'python -m {command}' does "
                f"not answer --help"
            )
    return problems


def sql_examples(paths: list[Path] | None = None) -> list[tuple[str, str]]:
    """Every SQL string quoted after ``python -m repro explain``, ``trace``
    or ``profile``, as ``(document, sql)`` pairs."""
    return [
        (_label(path), match.group(1))
        for path in paths or command_sources()
        for line in _command_lines(path)
        for match in _SQL_EXAMPLE.finditer(line)
    ]


def check_sql_examples(paths: list[Path] | None = None) -> list[str]:
    """Run each distinct documented SQL string through ``repro explain``
    on a small tweets table."""
    problems = []
    status: dict[str, int] = {}
    for document, sql in sql_examples(paths):
        if sql not in status:
            status[sql] = _run_repro(
                ["repro", "explain", sql, "--rows", str(SQL_EXAMPLE_ROWS)]
            )
        if status[sql] != 0:
            problems.append(
                f"{document}: 'python -m repro explain \"{sql}\" --rows "
                f"{SQL_EXAMPLE_ROWS}' exits {status[sql]}"
            )
    return problems


def python_imports(paths: list[Path] | None = None) -> list[tuple[str, str, str]]:
    """All names imported by ``from repro... import`` lines in fenced
    ``python`` blocks, as ``(document, module, name)`` triples."""
    found = []
    for path in paths or doc_files():
        code = "\n".join(
            line.split("#", 1)[0]
            for line in _fenced_lines(path.read_text(), ("python", "py"))
        )
        for match in _FROM_IMPORT.finditer(code):
            module, names = match.group(1), match.group(2).strip("()")
            for item in names.split(","):
                name = item.split(" as ", 1)[0].strip()
                if name:
                    found.append((_label(path), module, name))
    return found


def check_python_imports(paths: list[Path] | None = None) -> list[str]:
    """Each documented ``from repro... import name`` resolves."""
    problems = []
    for document, module_name, name in python_imports(paths):
        try:
            module = importlib.import_module(module_name)
            if not hasattr(module, name):
                importlib.import_module(f"{module_name}.{name}")
        except ImportError:
            problems.append(
                f"{document}: 'from {module_name} import {name}' does not "
                f"resolve"
            )
    return problems


def check_docs_index() -> list[str]:
    """README links every docs/*.md file."""
    readme = (REPO_ROOT / "README.md").read_text()
    linked = {
        target.split("#", 1)[0]
        for target in _iter_links(readme)
        if not target.startswith(_EXTERNAL)
    }
    problems = []
    for doc in sorted((REPO_ROOT / "docs").glob("*.md")):
        relative = f"docs/{doc.name}"
        if relative not in linked and f"`{relative}`" not in readme:
            problems.append(
                f"README.md: docs index is missing a link to {relative}"
            )
    return problems


def check_architecture_coverage() -> list[str]:
    """docs/architecture.md mentions every src/repro/* package."""
    architecture = REPO_ROOT / "docs" / "architecture.md"
    if not architecture.exists():
        return ["docs/architecture.md does not exist"]
    text = architecture.read_text()
    problems = []
    for entry in sorted((REPO_ROOT / "src" / "repro").iterdir()):
        if entry.name.startswith("_") or entry.name.endswith(".pyc"):
            continue
        name = entry.name if entry.is_dir() else entry.name.removesuffix(".py")
        if entry.is_file() and not entry.name.endswith(".py"):
            continue
        if f"{name}/" not in text and f"{name}.py" not in text:
            problems.append(
                f"docs/architecture.md does not cover src/repro/{entry.name}"
            )
    return problems


def check_costmodel_coverage() -> list[str]:
    """docs/cost_model.md mentions every costmodel ``*_model.py`` module.

    A new kernel ships with a cost model; this keeps it from shipping
    with an undocumented one — the module's filename (``radik_model``)
    must appear in the cost-model reference.
    """
    reference = REPO_ROOT / "docs" / "cost_model.md"
    if not reference.exists():
        return ["docs/cost_model.md does not exist"]
    text = reference.read_text()
    problems = []
    modules = sorted(
        (REPO_ROOT / "src" / "repro" / "costmodel").glob("*_model.py")
    )
    for module in modules:
        if module.stem not in text:
            problems.append(
                f"docs/cost_model.md does not cover "
                f"src/repro/costmodel/{module.name}"
            )
    return problems


def run_all() -> list[str]:
    return (
        check_links()
        + check_cli_examples()
        + check_sql_examples()
        + check_python_imports()
        + check_docs_index()
        + check_architecture_coverage()
        + check_costmodel_coverage()
    )


def main() -> int:
    problems = run_all()
    for problem in problems:
        print(f"docs: {problem}", file=sys.stderr)
    if not problems:
        checked = len(doc_files())
        commands = {command for _, command in cli_invocations()}
        print(
            f"docs OK: {checked} documents, links resolve, "
            f"{len(commands)} distinct CLI commands answer --help, "
            f"{len({sql for _, sql in sql_examples()})} SQL examples run, "
            f"{len(python_imports())} documented imports resolve"
        )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
