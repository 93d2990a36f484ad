"""Whole-program (``--flow``) rule families: fixtures, the shipped-tree
self-check, and the seeded mutation tests from the acceptance criteria."""

import shutil
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.cli import main
from repro.lint.dataflow import FLOW_RULES, flow_rule_ids

FIXTURES = Path(__file__).parent / "fixtures" / "flow"
REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"

FLOW_IDS = flow_rule_ids()


def run_flow_lint(paths, select=None):
    return run_lint([str(path) for path in paths],
                    select=select if select is not None else FLOW_IDS,
                    flow=True)


class TestFixtures:
    def test_every_flow_rule_fires_on_the_bad_fixtures(self):
        result = run_flow_lint([FIXTURES])
        assert set(result.counts) == set(FLOW_IDS), \
            f"rules not firing: {set(FLOW_IDS) - set(result.counts)}"

    def test_findings_land_in_the_bad_modules_only(self):
        result = run_flow_lint([FIXTURES])
        offender = [v.path for v in result.violations
                    if "bad_" not in Path(v.path).name]
        assert not offender, f"good fixtures flagged: {offender}"

    def test_good_fixtures_are_clean(self):
        result = run_flow_lint([FIXTURES / "good_units.py",
                                FIXTURES / "good_concurrency.py"])
        assert result.exit_code == 0, \
            "\n".join(v.render() for v in result.violations)

    def test_cli_flow_flag_drives_the_same_rules(self, capsys):
        assert main(["--flow", str(FIXTURES / "bad_units.py")]) == 1
        out = capsys.readouterr().out
        assert "AMP101" in out and "AMP103" in out

    def test_without_flow_flag_flow_rules_stay_silent(self):
        result = run_lint([str(FIXTURES / "bad_units.py")])
        assert not any(v.rule_id.startswith("AMP1")
                       for v in result.violations)

    def test_list_rules_includes_the_flow_catalog(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in FLOW_RULES:
            assert rule.rule_id in out


class TestShippedTreeIsCleanUnderFlow:
    def test_src_repro_is_clean_under_all_rule_families(self):
        # AMP001-AMP006 per-file plus every whole-program rule in
        # one pass: the acceptance gate `amped-lint --flow src/repro`.
        result = run_lint([str(SRC)], flow=True)
        rendered = "\n".join(v.render() for v in result.violations)
        assert result.exit_code == 0, f"violations in src:\n{rendered}"
        assert result.files_checked > 100


@pytest.fixture()
def src_copy(tmp_path):
    """A disposable copy of src/repro for seeding mutations into."""
    target = tmp_path / "repro"
    shutil.copytree(SRC, target,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return target


class TestSeededMutations:
    """Each acceptance-criteria mutation produces exactly the expected
    finding in exactly the mutated file."""

    def test_seconds_plus_bits_addition_in_core(self, src_copy):
        compute = src_copy / "core" / "compute.py"
        compute.write_text(
            compute.read_text()
            + "\n\ndef _mutant_total(duration_s: float,"
              " payload_bits: float) -> float:\n"
              "    return duration_s + payload_bits\n")
        result = run_flow_lint([src_copy], select=["AMP101"])
        assert [v.rule_id for v in result.violations] == ["AMP101"]
        assert result.violations[0].path.endswith("core/compute.py")

    def test_dropped_lock_around_shared_state_in_serve(self, src_copy):
        lifecycle = src_copy / "serve" / "lifecycle.py"
        source = lifecycle.read_text()
        guarded = ("            with self._state_lock:\n"
                   "                self._warmed = True")
        assert guarded in source, "expected guarded write not found"
        lifecycle.write_text(source.replace(
            guarded, "            self._warmed = True", 1))
        result = run_flow_lint([src_copy], select=["AMP204"])
        assert [v.rule_id for v in result.violations] == ["AMP204"]
        assert result.violations[0].path.endswith("serve/lifecycle.py")
        assert "_warmed" in result.violations[0].message
