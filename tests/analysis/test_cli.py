"""The ``python -m repro.analysis`` front end: formats, exit codes, baseline."""

import json
import subprocess
import sys

import pytest

from repro.analysis.cli import main

from .conftest import REPO_ROOT

DIRTY = """
import random

def pick():
    return random.random()
"""

CLEAN = """
import random

def pick(seed):
    return random.Random(seed).random()
"""


@pytest.fixture
def dirty_tree(make_tree):
    return make_tree({"repro/pipeline/p.py": DIRTY})


@pytest.fixture
def clean_tree(make_tree):
    return make_tree({"repro/pipeline/p.py": CLEAN})


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out


class TestExitCodesAndFormats:
    def test_clean_tree_exits_zero(self, clean_tree, capsys):
        code, out = run_cli(capsys, clean_tree, "--root", clean_tree,
                            "--no-baseline")
        assert code == 0
        assert "0 finding(s)" in out

    def test_findings_exit_one_with_location(self, dirty_tree, capsys):
        code, out = run_cli(capsys, dirty_tree, "--root", dirty_tree,
                            "--no-baseline", "--select", "D101")
        assert code == 1
        assert "repro/pipeline/p.py:5:11: D101" in out

    def test_json_format(self, dirty_tree, capsys):
        code, out = run_cli(capsys, dirty_tree, "--root", dirty_tree,
                            "--no-baseline", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["counts"] == {"D101": 1}
        finding = payload["findings"][0]
        assert finding["rule"] == "D101"
        assert finding["path"] == "repro/pipeline/p.py"
        assert finding["line"] == 5

    def test_missing_path_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path / "does-not-exist")])
        assert exc.value.code == 2

    def test_list_rules(self, capsys):
        code, out = run_cli(capsys, "--list-rules")
        assert code == 0
        for rule_id in ("D101", "D102", "D103", "D104", "D105",
                        "L201", "S301", "S302", "S303", "S304"):
            assert rule_id in out


class TestBaselineWorkflow:
    def test_write_then_rerun_exits_zero(self, dirty_tree, capsys,
                                         monkeypatch):
        monkeypatch.chdir(dirty_tree)
        code, _ = run_cli(capsys, dirty_tree, "--root", dirty_tree,
                          "--write-baseline")
        assert code == 0
        assert (dirty_tree / "analysis-baseline.json").exists()

        # baselined debt no longer fails the build...
        code, out = run_cli(capsys, dirty_tree, "--root", dirty_tree)
        assert code == 0
        assert "1 baselined" in out

        # ...but a NEW violation still does
        extra = dirty_tree / "repro" / "pipeline" / "q.py"
        extra.write_text(DIRTY)
        code, out = run_cli(capsys, dirty_tree, "--root", dirty_tree)
        assert code == 1
        assert "repro/pipeline/q.py" in out

    def test_stale_entries_noted_once_debt_paid(self, dirty_tree, capsys,
                                                monkeypatch):
        monkeypatch.chdir(dirty_tree)
        run_cli(capsys, dirty_tree, "--root", dirty_tree, "--write-baseline")
        (dirty_tree / "repro" / "pipeline" / "p.py").write_text(CLEAN)
        code, out = run_cli(capsys, dirty_tree, "--root", dirty_tree)
        assert code == 0
        assert "stale baseline entry" in out

    def test_corrupt_baseline_is_an_error(self, dirty_tree, capsys,
                                          monkeypatch):
        monkeypatch.chdir(dirty_tree)
        (dirty_tree / "analysis-baseline.json").write_text("{not json")
        code, _ = run_cli(capsys, dirty_tree, "--root", dirty_tree)
        assert code == 2


class TestSuppressionDisplay:
    def test_show_suppressed_lists_them(self, make_tree, capsys):
        tree = make_tree({
            "repro/pipeline/p.py": DIRTY.replace(
                "random.random()", "random.random()  # repro: allow[D101]"
            ),
        })
        code, out = run_cli(capsys, tree, "--root", tree, "--no-baseline",
                            "--show-suppressed")
        assert code == 0
        assert "1 suppressed" in out
        assert "D101" in out


class TestSarifFormat:
    def test_findings_render_as_sarif(self, dirty_tree, capsys):
        code, out = run_cli(capsys, dirty_tree, "--root", dirty_tree,
                            "--no-baseline", "--format", "sarif")
        assert code == 1
        payload = json.loads(out)
        assert payload["version"] == "2.1.0"
        run_ = payload["runs"][0]
        assert run_["tool"]["driver"]["name"] == "repro.analysis"
        rule_ids = {r["id"] for r in run_["tool"]["driver"]["rules"]}
        assert {"D101", "C401", "P502", "K601"} <= rule_ids
        (result,) = run_["results"]
        assert result["ruleId"] == "D101"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 5
        assert region["startColumn"] == 12  # 0-based col 11, SARIF 1-based

    def test_clean_tree_emits_empty_results(self, clean_tree, capsys):
        code, out = run_cli(capsys, clean_tree, "--root", clean_tree,
                            "--no-baseline", "--format", "sarif")
        assert code == 0
        assert json.loads(out)["runs"][0]["results"] == []


def _git(cwd, *argv):
    subprocess.run(
        ["git", "-c", "user.email=t@t", "-c", "user.name=t", *argv],
        cwd=cwd, check=True, capture_output=True,
    )


class TestChangedMode:
    @pytest.fixture
    def git_tree(self, make_tree, monkeypatch):
        tree = make_tree({"repro/pipeline/p.py": CLEAN})
        _git(tree, "init", "-q", "-b", "main")
        _git(tree, "add", "-A")
        _git(tree, "commit", "-q", "-m", "seed")
        monkeypatch.chdir(tree)
        return tree

    def test_only_changed_files_are_reported(self, git_tree, capsys):
        # a pre-existing (committed) violation in an UNCHANGED file must
        # not fail the fast loop; one in a changed file must
        (git_tree / "repro" / "pipeline" / "q.py").write_text(DIRTY)
        code, out = run_cli(capsys, git_tree, "--root", git_tree,
                            "--no-baseline", "--changed", "--base", "main")
        assert code == 1
        assert "repro/pipeline/q.py" in out
        assert "1 file(s) scanned" in out

    def test_clean_checkout_scans_nothing(self, git_tree, capsys):
        code, out = run_cli(capsys, git_tree, "--root", git_tree,
                            "--no-baseline", "--changed", "--base", "main")
        assert code == 0
        assert "0 file(s) scanned" in out

    def test_committed_changes_vs_base_are_included(self, git_tree, capsys):
        _git(git_tree, "checkout", "-q", "-b", "feature")
        (git_tree / "repro" / "pipeline" / "q.py").write_text(DIRTY)
        _git(git_tree, "add", "-A")
        _git(git_tree, "commit", "-q", "-m", "add q")
        code, out = run_cli(capsys, git_tree, "--root", git_tree,
                            "--no-baseline", "--changed", "--base", "main")
        assert code == 1
        assert "repro/pipeline/q.py" in out

    def test_outside_git_is_a_usage_error(self, make_tree, monkeypatch,
                                          capsys, tmp_path):
        tree = make_tree({"repro/pipeline/p.py": CLEAN})
        monkeypatch.chdir(tree)
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        monkeypatch.setenv("GIT_DIR", str(tmp_path / "nowhere"))
        code = main([str(tree), "--root", str(tree), "--no-baseline",
                     "--changed", "--base", "main"])
        assert code == 2

    def test_base_without_changed_is_a_usage_error(self, git_tree):
        with pytest.raises(SystemExit) as exc:
            main([str(git_tree), "--base", "main"])
        assert exc.value.code == 2


class TestRealTree:
    def test_shipping_tree_is_clean(self, capsys):
        paths = [REPO_ROOT / p for p in ("src", "benchmarks", "examples")
                 if (REPO_ROOT / p).exists()]
        code, out = run_cli(capsys, *paths, "--root", REPO_ROOT,
                            "--no-baseline")
        assert code == 0, out

    def test_module_entry_point(self, tmp_path):
        """``python -m repro.analysis`` works as a subprocess (the CI spelling)."""
        pkg = tmp_path / "repro" / "pipeline"
        pkg.mkdir(parents=True)
        for d in (tmp_path / "repro", pkg):
            (d / "__init__.py").write_text("")
        (pkg / "p.py").write_text(DIRTY)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(tmp_path),
             "--root", str(tmp_path), "--no-baseline", "--format", "json"],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["counts"] == {"D101": 1}
