"""Golden test of the command line's wiring: what each documented command
hands to the library, and every subcommand's option table.

Every ``python -m repro ...`` line in the ``repro.cli`` docstring,
``README.md``, ``docs/*.md`` and the CI workflow, plus each bench command
run bare, is parsed and dispatched with the library entry points
(``run_*_benchmark``, ``topk``, ``TopKPlanner``, ``Session``,
``run_campaign``) replaced by recorders.  The recorded arguments, and the
option strings, defaults, choices and help text of every subcommand
(compared without regard to order), must match the committed golden
``tests/goldens/cli.json``.

Regenerate the golden after a deliberate CLI change with::

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import re
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import repro.cli
from repro.algorithms import registry
from repro.bench import calibrate as calibrate_bench
from repro.bench import radix as radix_bench
from repro.bench.cli import build_parser as build_bench_parser
from repro.costmodel.calibration import CalibrationStore
from repro.gpu import device as device_module
from repro.gpu.device import DeviceSpec

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "goldens" / "cli.json"

#: Commands the documents may not show with every flag at its default.
BARE_COMMANDS = (
    "serve-bench",
    "approx-bench",
    "shard-bench",
    "slo-bench",
    "radix-bench",
    "stream-bench",
    "calibrate",
)

#: Every bench flag set off its default, the device flag on each command
#: family, and the error paths: lines no document needs to show.
FLAGGED_COMMANDS = (
    "",
    "explain",
    "chaos --trials 0",
    "topk --n 4096 --k 8 --device v100 --seed 3",
    "plan --device gtx-1080 --profile bucket-killer",
    'profile "SELECT id FROM tweets ORDER BY likes DESC LIMIT 5" '
    "--rows 4096 --model-rows 1000000 --device v100",
    "serve-bench --max-batch 16 --no-cache --no-batch --device v100",
    "approx-bench --n 1048576 --k 64 --buckets 16 --functional-cap 65536 "
    "--seed 3 --device gtx-1080",
    "shard-bench --n 1048576 --k 64 --shards 1 --shards 2 "
    "--functional-cap 65536 --seed 3 --device v100",
    "shard-bench --shards 2 --shards 1",
    "slo-bench --queries 40 --rate 8 --rate 60 --process bursty --seed 2 "
    "--device v100",
    "radix-bench --n 1048576 --k 64 --k 512 --batch 1 --batch 4 "
    "--batch-n 1024 --batch-k 32 --functional-cap 65536 --seed 3 "
    "--device v100",
    "stream-bench --k 32 --chunk-rows 2048 --model-chunk-rows 65536 "
    "--window-chunks 8 --ticks 24 --decay 0.8 --shards 2 --seed 5 "
    "--device v100",
    "stream-bench --ticks 1",
    "calibrate --profile bucket-killer --seed 3 --k 64 --device v100",
)

#: The algorithm and device registries as imported, before any test
#: registers entries of its own.
_BUILT_INS = [
    (registry, "_REGISTRY", dict(registry._REGISTRY)),
    (device_module, "_DEVICES", dict(device_module._DEVICES)),
]

_INVOCATION = re.compile(r"python -m repro ([a-z][\w-]*)")


class _Captured(Exception):
    """Raised by a recorder once the CLI reached the library."""


def _describe(value):
    """A JSON-safe, comparable description of one argument."""
    if isinstance(value, DeviceSpec):
        return {"device": value.name}
    if isinstance(value, np.ndarray):
        return {
            "array": str(value.dtype),
            "shape": list(value.shape),
            "sha256": hashlib.sha256(
                np.ascontiguousarray(value).tobytes()
            ).hexdigest()[:16],
        }
    if isinstance(value, np.dtype):
        return {"dtype": str(value)}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        if type(value).__name__ == "Table":
            return {"table": value.name, "rows": value.num_rows}
        return {
            "type": type(value).__name__,
            **{
                field.name: _describe(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    if isinstance(value, (list, tuple)):
        return [_describe(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _describe(item) for key, item in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return {"type": type(value).__name__}


def _call(name, args, kwargs) -> dict:
    return {
        "call": name,
        "args": _describe(list(args)),
        "kwargs": _describe(dict(sorted(kwargs.items()))),
    }


class _Recorder:
    """Collects the library calls of one CLI invocation."""

    def __init__(self):
        self.calls: list[dict] = []

    def terminal(self, name):
        def record(*args, **kwargs):
            self.calls.append(_call(name, args, kwargs))
            raise _Captured()

        return record

    def planner(self):
        recorder = self

        class Planner:
            def __init__(self, *args, **kwargs):
                recorder.calls.append(_call("TopKPlanner", args, kwargs))

            def choose(self, *args, **kwargs):
                recorder.terminal("TopKPlanner.choose")(*args, **kwargs)

        return Planner

    def session(self):
        recorder = self

        class Session:
            def __init__(self, *args, **kwargs):
                recorder.calls.append(_call("Session", args, kwargs))

            def register(self, *args, **kwargs):
                recorder.calls.append(_call("Session.register", args, kwargs))

            def __getattr__(self, name):
                if name in ("sql", "explain", "explain_stream"):
                    return recorder.terminal(f"Session.{name}")
                raise AttributeError(name)

        return Session


def _install(monkeypatch, recorder: _Recorder) -> None:
    import repro.approx
    import repro.engine.session
    import repro.resilience.chaos
    import repro.serving
    import repro.sharding
    import repro.slo
    import repro.streaming

    for module, name in [
        (repro.serving, "run_serving_benchmark"),
        (repro.approx, "run_approx_benchmark"),
        (repro.sharding, "run_sharding_benchmark"),
        (repro.slo, "run_slo_benchmark"),
        (radix_bench, "run_radix_benchmark"),
        (repro.streaming, "run_streaming_benchmark"),
        (calibrate_bench, "run_calibration_benchmark"),
        (repro.resilience.chaos, "run_campaign"),
        (repro.cli, "topk"),
    ]:
        monkeypatch.setattr(module, name, recorder.terminal(name))
    monkeypatch.setattr(repro.cli, "TopKPlanner", recorder.planner())
    monkeypatch.setattr(repro.engine.session, "Session", recorder.session())


# -- the documented invocations ------------------------------------------------


def _sources() -> list[str]:
    paths = (
        [REPO_ROOT / "README.md"]
        + sorted((REPO_ROOT / "docs").glob("*.md"))
        + [REPO_ROOT / ".github" / "workflows" / "ci.yml"]
    )
    return [repro.cli.__doc__] + [path.read_text() for path in paths]


def _logical_lines(text: str) -> list[str]:
    """Lines with ``\\`` continuations and folded ``--flag`` lines joined."""
    lines: list[str] = []
    for raw in text.splitlines():
        stripped = raw.strip()
        if lines and (
            lines[-1].endswith("\\") or stripped.startswith("--")
        ):
            lines[-1] = lines[-1].rstrip("\\").rstrip() + " " + stripped
        else:
            lines.append(stripped)
    return lines


def documented_commands() -> list[str]:
    """Every documented ``python -m repro <command> ...`` argument string."""
    commands = []
    for text in _sources():
        for line in _logical_lines(text):
            match = _INVOCATION.search(line)
            if match is None:
                continue
            rest = line[match.start(1):]
            if line[:match.start()].endswith("`"):
                rest = rest.split("`", 1)[0]
            rest = rest.split(" #", 1)[0].strip()
            if rest not in commands:
                commands.append(rest)
    return commands


def all_commands() -> list[str]:
    commands = documented_commands()
    return commands + [
        command
        for command in BARE_COMMANDS + FLAGGED_COMMANDS
        if command not in commands
    ]


def capture(command: str) -> dict:
    """Dispatch one command line and return what reached the library."""
    recorder = _Recorder()
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        _install(patch, recorder)
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                status = repro.cli.main(shlex.split(command))
        except _Captured:
            return {"calls": recorder.calls}
    return {
        "calls": recorder.calls,
        "exit": status,
        "stderr": stderr.getvalue().strip().splitlines(),
    }


# -- the option tables ---------------------------------------------------------


def _option_table(parser: argparse.ArgumentParser) -> list[dict]:
    rows = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        rows.append(
            {
                "strings": list(action.option_strings) or [action.dest],
                "default": _describe(action.default),
                "choices": _describe(
                    list(action.choices) if action.choices else None
                ),
                "help": action.help,
                "nargs": action.nargs,
                "type": getattr(action.type, "__name__", None),
                "action": type(action).__name__,
            }
        )
    return sorted(rows, key=lambda row: row["strings"])


def option_tables() -> dict:
    parser = repro.cli.build_parser()
    (subparsers,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    tables = {
        name: _option_table(sub) for name, sub in subparsers.choices.items()
    }
    tables["repro.bench"] = _option_table(build_bench_parser())
    return dict(sorted(tables.items()))


def _workdir(path: Path) -> Path:
    """A scratch directory holding the store ``calibrate --load`` reads."""
    CalibrationStore().save(path / "calibration.json")
    return path


# -- the tests -----------------------------------------------------------------


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("command", all_commands())
def test_command_reaches_the_library_as_recorded(
    command, golden, monkeypatch, tmp_path
):
    assert command in golden["commands"], "new command: regenerate the golden"
    monkeypatch.chdir(_workdir(tmp_path))
    assert capture(command) == golden["commands"][command]


def test_option_tables_match(golden, monkeypatch):
    # Other tests register extra devices and algorithms, which become
    # --device/--algorithm choices; the golden lists the built-ins.
    for module, name, entries in _BUILT_INS:
        monkeypatch.setattr(module, name, dict(entries))
    assert option_tables() == golden["options"]


def _write_golden() -> None:
    """Record the golden from the current CLI."""
    with tempfile.TemporaryDirectory() as scratch:
        with pytest.MonkeyPatch.context() as patch:
            patch.chdir(_workdir(Path(scratch)))
            commands = {command: capture(command) for command in all_commands()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({"commands": commands, "options": option_tables()}, indent=1)
        + "\n"
    )
    print(f"wrote {len(commands)} commands to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    _write_golden()
