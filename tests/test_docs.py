"""Documentation health: the checks behind the CI ``docs`` job.

Runs the same checker CI runs (``tools/check_docs.py``) so a broken link,
a stale CLI example, or a docs-index / architecture-table gap fails the
tier-1 suite locally before it fails the docs job remotely.
"""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_docs", module)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()


class TestRepositoryDocs:
    def test_all_intra_repo_links_resolve(self):
        assert checker.check_links() == []

    def test_readme_indexes_every_doc(self):
        assert checker.check_docs_index() == []

    def test_architecture_covers_every_package(self):
        assert checker.check_architecture_coverage() == []

    def test_quoted_cli_commands_answer_help(self):
        assert checker.check_cli_examples() == []

    def test_documented_python_imports_resolve(self):
        assert checker.check_python_imports() == []

    def test_documented_sql_runs(self):
        assert checker.check_sql_examples() == []

    def test_cli_docstring_examples_are_read(self):
        assert (
            "src/repro/cli.py",
            "SELECT id FROM tweets ORDER BY likes_count DESC LIMIT 50",
        ) in checker.sql_examples()
        assert ("src/repro/cli.py", "repro calibrate") in (
            checker.cli_invocations()
        )

    def test_examples_cover_the_new_surfaces(self):
        commands = {command for _, command in checker.cli_invocations()}
        assert "repro approx-bench" in commands
        assert "repro serve-bench" in commands


class TestCheckerCatchesRot(object):
    def test_broken_link_is_reported(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("see [missing](does/not/exist.md) for details")
        problems = checker.check_links([doc])
        assert len(problems) == 1
        assert "does/not/exist.md" in problems[0]

    def test_external_and_anchor_links_are_ignored(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "[a](https://example.com) [b](#section) [c](mailto:x@y.z)"
        )
        assert checker.check_links([doc]) == []

    def test_unknown_subcommand_is_reported(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("```bash\npython -m repro no-such-command --n 4\n```\n")
        problems = checker.check_cli_examples([doc])
        assert len(problems) == 1
        assert "no-such-command" in problems[0]

    def test_sql_naming_a_missing_column_is_reported(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "```bash\n"
            'python -m repro trace "SELECT id FROM tweets ORDER BY likes \\\n'
            '    DESC LIMIT 5" --rows 1024\n'
            'python -m repro explain "SELECT id FROM tweets '
            'ORDER BY likes_count DESC LIMIT 5"\n'
            "```\n"
        )
        assert [sql for _, sql in checker.sql_examples([doc])] == [
            "SELECT id FROM tweets ORDER BY likes DESC LIMIT 5",
            "SELECT id FROM tweets ORDER BY likes_count DESC LIMIT 5",
        ]
        problems = checker.check_sql_examples([doc])
        assert len(problems) == 1
        assert "ORDER BY likes DESC" in problems[0]
        assert problems[0].endswith("exits 3")

    def test_module_docstring_commands_are_checked(self, tmp_path):
        module = tmp_path / "cli.py"
        module.write_text(
            '"""Examples::\n\n    python -m repro no-such-command\n"""\n'
        )
        problems = checker.check_cli_examples([module])
        assert len(problems) == 1
        assert "no-such-command" in problems[0]

    def test_non_bash_fences_are_not_executed(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("```python\npython -m repro no-such-command\n```\n")
        assert checker.check_cli_examples([doc]) == []

    def test_stale_python_import_is_reported(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "```python\n"
            "from repro import (\n"
            "    topk,      # the k largest (any dtype)\n"
            "    no_such_name,\n"
            ")\n"
            "from repro.hybrid import RetiredTopK as Group  # moved\n"
            "```\n"
        )
        assert [name for _, _, name in checker.python_imports([doc])] == [
            "topk", "no_such_name", "RetiredTopK"
        ]
        problems = checker.check_python_imports([doc])
        assert len(problems) == 2
        assert "no_such_name" in problems[0]
        assert "RetiredTopK" in problems[1]

    def test_imports_outside_python_fences_are_ignored(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("```bash\nfrom repro import no_such_name\n```\n")
        assert checker.check_python_imports([doc]) == []
