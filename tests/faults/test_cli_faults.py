"""CLI surface of the fault-tolerance machinery."""

from __future__ import annotations

import json

from repro.cli import main

RUN_QUICK = [
    "run", "--circuit", "tiny16", "--tsws", "3", "--clws", "2",
    "--global-iterations", "3", "--local-iterations", "3",
]


class TestFaultFlags:
    def test_fault_tolerant_run(self, capsys):
        assert main(RUN_QUICK + ["--fault-tolerant"]) == 0
        out = capsys.readouterr().out
        assert "fault-tolerant" in out
        assert "best cost" in out

    def test_round_deadline_implies_fault_tolerance(self, capsys):
        assert main(RUN_QUICK + ["--round-deadline", "10"]) == 0
        assert "fault-tolerant" in capsys.readouterr().out

    def test_fault_plan_prints_the_event_table(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"seed": 7, "kills": [{"at": 0.08, "name": "tsw1"}]}))
        code = main(
            RUN_QUICK + ["--global-iterations", "5", "--fault-plan", str(plan)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fault events" in out
        assert "worker-dead" in out
        assert "range-reassigned" in out

    def test_bad_fault_plan_is_reported(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text("{not json")
        code = main(RUN_QUICK + ["--fault-plan", str(plan)])
        assert code != 0
        assert "fault plan" in capsys.readouterr().err

    def test_spawn_with_a_speed_hint_is_refused(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"spawns": [{"at": 0.05, "speed_hint": 2.0}]}))
        code = main(RUN_QUICK + ["--fault-plan", str(plan)])
        assert code == 2
        assert capsys.readouterr().err.strip() == (
            "error: malformed fault plan: spawns[0]: unknown field(s) speed_hint "
            "(valid: at, count, machine)"
        )

    def test_resume_rejects_fault_flags(self, tmp_path, capsys):
        ckpt = tmp_path / "run.rtss"
        assert main(RUN_QUICK + ["--pause-after", "1", "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        code = main(["run", "--resume", str(ckpt), "--fault-tolerant"])
        assert code != 0
        assert "fault" in capsys.readouterr().err


class TestSessionsInspect:
    def test_inspect_reports_topology_history(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(
                {
                    "spawns": [{"at": 0.05, "count": 1}],
                    "kills": [{"at": 0.16, "name": "tsw1"}],
                }
            )
        )
        ckpt = tmp_path / "run.rtss"
        assert main(
            RUN_QUICK
            + [
                "--global-iterations", "5",
                "--fault-plan", str(plan),
                "--pause-after", "4",
                "--checkpoint", str(ckpt),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["sessions", "inspect", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "Topology history" in out
        assert "worker-admitted" in out
        assert "worker-dead" in out
        assert "4 worker slot(s)" in out

    def test_inspect_without_elastic_events_prints_a_clean_sheet(
        self, tmp_path, capsys
    ):
        ckpt = tmp_path / "run.rtss"
        assert main(
            RUN_QUICK + ["--pause-after", "1", "--checkpoint", str(ckpt)]
        ) == 0
        capsys.readouterr()
        assert main(["sessions", "inspect", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "no admissions" in out

    def test_inspect_needs_a_file(self, capsys):
        code = main(["sessions", "inspect"])
        assert code != 0
        assert "checkpoint" in capsys.readouterr().err
