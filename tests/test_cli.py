"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestPlanCommand:
    def test_basic_plan(self, capsys):
        code = main(
            [
                "plan",
                "--condition", "n > 0.8 +/- 0.05",
                "--reliability", "0.9999",
                "--adaptivity", "full",
                "--steps", "32",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "6,279" in out

    def test_pattern2_plan(self, capsys):
        code = main(
            [
                "plan",
                "--condition", "n - o > 0.02 +/- 0.02",
                "--reliability", "0.998",
                "--steps", "7",
                "--variance-bound", "0.1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "4,713" in out
        assert "pattern 2" in out

    def test_baseline_flag_disables_optimizations(self, capsys):
        args = [
            "plan",
            "--condition", "d < 0.1 +/- 0.01 /\\ n - o > 0.02 +/- 0.01",
            "--reliability", "0.9999",
            "--steps", "32",
        ]
        main(args)
        optimized = capsys.readouterr().out
        main(args + ["--baseline"])
        baseline = capsys.readouterr().out
        assert "bennett" in optimized and "bennett" not in baseline

    def test_delta_instead_of_reliability(self, capsys):
        code = main(
            ["plan", "--condition", "n > 0.8 +/- 0.05", "--delta", "0.0001"]
        )
        assert code == 0

    def test_invalid_condition_exits_2(self, capsys):
        code = main(
            ["plan", "--condition", "n >> 0.8", "--reliability", "0.99"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_plan_prints_cache_deltas(self, capsys):
        from repro.stats.cache import clear_all_caches

        clear_all_caches()
        code = main(
            ["plan", "--condition", "n > 0.8 +/- 0.05", "--delta", "0.0001"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cache deltas (" in out
        assert "estimators.plan_cache" in out

    def test_reliability_and_delta_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "plan",
                    "--condition", "n > 0.8 +/- 0.05",
                    "--reliability", "0.99",
                    "--delta", "0.01",
                ]
            )


class TestValidateCommand:
    def test_valid_script(self, tmp_path, capsys):
        path = tmp_path / ".travis.yml"
        path.write_text(
            "ml:\n"
            "  - condition  : n - o > 0.02 +/- 0.02\n"
            "  - reliability: 0.998\n"
            "  - mode       : fp-free\n"
            "  - adaptivity : full\n"
            "  - steps      : 7\n"
        )
        code = main(["validate", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "script is valid" in out

    def test_invalid_script_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yml"
        path.write_text("ml:\n  - condition: n >> 0.5\n")
        code = main(["validate", str(path)])
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code = main(["validate", "/nonexistent/file.yml"])
        assert code == 2


class TestFigure2Command:
    def test_prints_table(self, capsys):
        code = main(["figure2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "404" in out and "156,956*" in out


@pytest.fixture()
def state_dir(tmp_path):
    """A persisted CI service with one evaluated commit."""
    from repro.ci.repository import ModelRepository
    from repro.ci.service import CIService
    from repro.core.estimators.api import SampleSizeEstimator
    from repro.core.script.config import CIScript
    from repro.core.testset import Testset
    from repro.ml.models.simulated import ModelPairSpec, simulate_model_pair

    script = CIScript.from_dict(
        {
            "script": "./test_model.py",
            "condition": "d < 0.25 +/- 0.1 /\\ n - o > 0.05 +/- 0.1",
            "reliability": 0.999,
            "mode": "fp-free",
            "adaptivity": "full",
            "steps": 4,
        }
    )
    plan = SampleSizeEstimator().plan(
        script.condition,
        delta=script.delta,
        adaptivity=script.adaptivity,
        steps=script.steps,
        known_variance_bound=script.variance_bound,
    )
    pair = simulate_model_pair(
        ModelPairSpec(old_accuracy=0.80, new_accuracy=0.82, difference=0.1),
        n_examples=plan.pool_size,
        seed=0,
    )
    service = CIService(
        script,
        Testset(labels=pair.labels, name="gen-0"),
        pair.old_model,
        repository=ModelRepository(nonce="cli-nonce"),
    )
    directory = tmp_path / "state"
    service.persist_to(directory)
    service.repository.commit(pair.new_model, message="candidate")
    return directory



@pytest.fixture()
def foreign_backend_state_dir(state_dir):
    """``state_dir`` whose newest snapshot names a backend this build lacks."""
    from repro.ci.persistence import SnapshotStore

    snapshots = SnapshotStore(state_dir / "snapshots")
    state, info = snapshots.load_latest()
    state["engine"]["backend"] = "naive"
    snapshots.save(state, journal_sequence=info.journal_sequence)
    return state_dir

class TestOpsCommand:
    def test_prints_report_table(self, state_dir, capsys):
        code = main(["ops", str(state_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "operations report" in out
        assert "durable state" in out
        assert "1 total, 1 ran" in out

    def test_json_output_is_machine_readable(self, state_dir, capsys):
        code = main(["ops", str(state_dir), "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["builds_total"] == 1
        assert payload["commits_evaluated"] == 1
        assert payload["persistence_attached"] is True
        assert payload["journal_lag"] >= 1

    def test_foreign_backend_snapshot_is_a_clean_error(
        self, foreign_backend_state_dir, capsys
    ):
        code = main(["ops", str(foreign_backend_state_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "'naive'" in err

    def test_inspection_does_not_mutate_journal(self, state_dir):
        from repro.ci.persistence import EventJournal

        journal = state_dir / "journal.jsonl"
        before = EventJournal(journal).last_sequence
        assert main(["ops", str(state_dir)]) == 0
        assert EventJournal(journal).last_sequence == before

    def test_missing_state_dir_exits_2(self, tmp_path, capsys):
        code = main(["ops", str(tmp_path / "nope")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_empty_state_dir_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "state"
        empty.mkdir()
        code = main(["ops", str(empty)])
        assert code == 2
        assert "no snapshot" in capsys.readouterr().err


class TestOpsFsckExitCodes:
    def test_healthy_state_dir_exits_0(self, state_dir, capsys):
        code = main(["ops", str(state_dir), "--fsck"])
        out = capsys.readouterr().out
        assert code == 0
        assert "restore" in out and "snapshot #1" in out

    def test_healthy_json_is_parseable(self, state_dir, capsys):
        code = main(["ops", str(state_dir), "--fsck", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["restorable"] is True
        assert payload["journal"]["records"] >= 1

    def test_unrestorable_state_dir_exits_2(self, state_dir, capsys):
        for snapshot in (state_dir / "snapshots").glob("*"):
            snapshot.write_bytes(b"garbage")
        code = main(["ops", str(state_dir), "--fsck"])
        capsys.readouterr()
        assert code == 2

    def test_unrestorable_json_is_parseable(self, state_dir, capsys):
        for snapshot in (state_dir / "snapshots").glob("*"):
            snapshot.write_bytes(b"garbage")
        code = main(["ops", str(state_dir), "--fsck", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 2
        assert payload["restorable"] is False

    def test_fsck_is_read_only(self, state_dir):
        before = {
            path: path.read_bytes()
            for path in state_dir.rglob("*")
            if path.is_file()
        }
        assert main(["ops", str(state_dir), "--fsck"]) == 0
        after = {
            path: path.read_bytes()
            for path in state_dir.rglob("*")
            if path.is_file()
        }
        assert after == before


@pytest.fixture()
def fleet_root(tmp_path):
    """A two-tenant fleet with one processed build and one pending entry."""
    from repro.ci.repository import ModelRepository
    from repro.core.estimators.api import SampleSizeEstimator
    from repro.core.script.config import CIScript
    from repro.core.testset import Testset
    from repro.fleet import CIFleet
    from repro.ml.models.simulated import ModelPairSpec, simulate_model_pair

    script = CIScript.from_dict(
        {
            "script": "./test_model.py",
            "condition": "n - o > 0.05 +/- 0.1",
            "reliability": 0.99,
            "mode": "fp-free",
            "adaptivity": "full",
            "steps": 4,
        }
    )
    plan = SampleSizeEstimator().plan(
        script.condition,
        delta=script.delta,
        adaptivity=script.adaptivity,
        steps=script.steps,
        known_variance_bound=script.variance_bound,
    )
    pair = simulate_model_pair(
        ModelPairSpec(old_accuracy=0.80, new_accuracy=0.82, difference=0.1),
        n_examples=plan.pool_size,
        seed=0,
    )
    testset = Testset(labels=pair.labels, name="gen-0")
    root = tmp_path / "fleet"
    with CIFleet(root, sync=False) as fleet:
        for tenant_id in ("alpha", "beta"):
            fleet.register(
                tenant_id,
                script,
                testset,
                pair.old_model,
                repository=ModelRepository(nonce=f"cli-{tenant_id}"),
            )
        fleet.submit("alpha", pair.new_model, message="candidate")
        fleet.enqueue("beta", pair.new_model, message="queued")
    return root


def tree(root):
    """Every file under ``root``: relative name -> bytes."""
    return {
        path.relative_to(root): path.read_bytes()
        for path in root.rglob("*")
        if path.is_file()
    }


class TestInspectionLeavesTornTailsAlone:
    """Read-only reports open the journal and intake without healing them."""

    TORN = b'{"crc": 1, "payload": {"sequence": 9'

    def test_ops_report_keeps_a_torn_journal_tail(self, state_dir, capsys):
        with open(state_dir / "journal.jsonl", "ab") as handle:
            handle.write(self.TORN)
        before = tree(state_dir)
        assert main(["ops", str(state_dir)]) == 0
        assert "operations report" in capsys.readouterr().out
        assert tree(state_dir) == before

    def test_tenant_report_keeps_torn_tails(self, fleet_root, capsys):
        tenant = fleet_root / "tenants" / "alpha"
        for name in ("journal.jsonl", "intake.jsonl"):
            with open(tenant / name, "ab") as handle:
                handle.write(self.TORN)
        before = tree(fleet_root)
        assert main(["fleet", str(fleet_root), "--tenant", "alpha"]) == 0
        assert "1 total, 1 ran" in capsys.readouterr().out
        assert tree(fleet_root) == before


class TestFleetCommand:
    def test_prints_fleet_table(self, fleet_root, capsys):
        code = main(["fleet", str(fleet_root)])
        out = capsys.readouterr().out
        assert code == 0
        assert "fleet report" in out
        assert "2 registered" in out
        assert "1 pending" in out
        assert "alpha" in out and "beta" in out

    def test_json_output_is_machine_readable(self, fleet_root, capsys):
        code = main(["fleet", str(fleet_root), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["tenants_registered"] == 2
        assert payload["pending_total"] == 1
        tenants = {t["tenant_id"]: t for t in payload["tenant_status"]}
        assert tenants["beta"]["pending"] == 1

    def test_report_does_not_mutate_tenant_state(self, fleet_root):
        before = {
            path: path.read_bytes()
            for path in fleet_root.rglob("*")
            if path.is_file()
        }
        assert main(["fleet", str(fleet_root)]) == 0
        after = {
            path: path.read_bytes()
            for path in fleet_root.rglob("*")
            if path.is_file()
        }
        assert after == before

    def test_single_tenant_report(self, fleet_root, capsys):
        code = main(["fleet", str(fleet_root), "--tenant", "alpha"])
        out = capsys.readouterr().out
        assert code == 0
        assert "operations report" in out
        assert "1 total, 1 ran" in out

    def test_unknown_tenant_exits_2(self, fleet_root, capsys):
        code = main(["fleet", str(fleet_root), "--tenant", "ghost"])
        assert code == 2
        assert "no tenant" in capsys.readouterr().err

    def test_fsck_healthy_exits_0(self, fleet_root, capsys):
        code = main(["fleet", str(fleet_root), "--fsck"])
        out = capsys.readouterr().out
        assert code == 0
        assert "HEALTHY" in out

    def test_fsck_damaged_exits_2_and_localizes(self, fleet_root, capsys):
        for snapshot in (fleet_root / "tenants" / "beta" / "snapshots").glob("*"):
            snapshot.write_bytes(b"garbage")
        code = main(["fleet", str(fleet_root), "--fsck"])
        out = capsys.readouterr().out
        assert code == 2
        assert "UNRESTORABLE" in out and "beta" in out

    def test_fsck_json_both_cases(self, fleet_root, capsys):
        assert main(["fleet", str(fleet_root), "--fsck", "--json"]) == 0
        healthy = json.loads(capsys.readouterr().out)
        assert healthy["exists"] is True
        for snapshot in (fleet_root / "tenants" / "beta" / "snapshots").glob("*"):
            snapshot.write_bytes(b"garbage")
        assert main(["fleet", str(fleet_root), "--fsck", "--json"]) == 2
        damaged = json.loads(capsys.readouterr().out)
        tenants = {t["tenant_id"]: t for t in damaged["tenants"]}
        assert tenants["beta"]["state"]["restorable"] is False
        assert tenants["alpha"]["state"]["restorable"] is True

    def test_missing_root_exits_2(self, tmp_path, capsys):
        code = main(["fleet", str(tmp_path / "nowhere")])
        assert code == 2
        assert "no fleet root" in capsys.readouterr().err

    def test_missing_root_fsck_exits_2(self, tmp_path, capsys):
        code = main(["fleet", str(tmp_path / "nowhere"), "--fsck"])
        out = capsys.readouterr().out
        assert code == 2
        assert "does not exist" in out

    def test_cli_never_creates_directories(self, tmp_path):
        target = tmp_path / "nowhere"
        main(["fleet", str(target)])
        assert not target.exists()


class TestModuleEntryPoint:
    """`python -m repro` wires argparse to the same main()."""

    def _run(self, *argv):
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )

    def test_help_lists_subcommands(self):
        proc = self._run("--help")
        assert proc.returncode == 0
        for command in ("plan", "validate", "figure2", "ops", "experiments"):
            assert command in proc.stdout

    def test_no_arguments_exits_2(self):
        proc = self._run()
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_plan_subcommand_round_trips(self):
        proc = self._run(
            "plan", "--condition", "n > 0.8 +/- 0.05",
            "--reliability", "0.9999", "--adaptivity", "full", "--steps", "32",
        )
        assert proc.returncode == 0
        assert "6,279" in proc.stdout

    def test_ops_subcommand_round_trips(self, state_dir):
        proc = self._run("ops", str(state_dir))
        assert proc.returncode == 0
        assert "operations report" in proc.stdout


class TestFleetResidencyCounters:
    """Hits and the hit ratio sit next to hydrations and evictions."""

    def test_text_reports_hits_and_hit_ratio(self, fleet_root, capsys):
        assert main(["fleet", str(fleet_root)]) == 0
        out = capsys.readouterr().out
        # Counts are this process's: a reporting-only fleet has none.
        assert "0 hit(s) (hit ratio 0.00), 0 hydration(s), 0 eviction(s)" in out

    def test_json_reports_hits_and_hit_ratio(self, fleet_root, capsys):
        assert main(["fleet", str(fleet_root), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hits"] == 0
        assert payload["hit_ratio"] == 0.0
        assert payload["hydrations"] == payload["evictions"] == 0
