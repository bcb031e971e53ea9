"""Unit tests for the command-line interface."""

from __future__ import annotations

import struct

import pytest

from repro.cli import build_parser, main
from repro.placement import Layout, load_benchmark
from repro.placement.io import read_placement
from repro.session.state import MAGIC, SCHEMA_VERSION


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        # the effective instance defaults to the domain's default (c532 for
        # placement) inside _command_run; the parser leaves both flags unset
        assert args.problem == "placement"
        assert args.instance is None
        assert args.circuit is None
        assert args.tsws == 4
        assert args.sync == "heterogeneous"

    def test_run_rejects_unknown_problem(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--problem", "knapsack"])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestCircuitsCommand:
    def test_lists_paper_circuits(self, capsys):
        assert main(["circuits"]) == 0
        out = capsys.readouterr().out
        for name in ("highway", "c532", "c1355", "c3540"):
            assert name in out


class TestClassifyCommand:
    def test_paper_configuration(self, capsys):
        assert main(["classify", "--tsws", "4", "--clws", "4"]) == 0
        out = capsys.readouterr().out
        assert "p-control" in out
        assert "RS" in out

    def test_single_tsw(self, capsys):
        assert main(["classify", "--tsws", "1", "--clws", "1", "--no-diversify"]) == 0
        assert "1-control" in capsys.readouterr().out


class TestRunCommand:
    def test_small_run_prints_summary(self, capsys):
        code = main(
            [
                "run",
                "--circuit", "mini64",
                "--tsws", "2",
                "--clws", "1",
                "--global-iterations", "2",
                "--local-iterations", "3",
                "--cluster", "homogeneous:4",
                "--trace",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best cost" in out
        assert "Best cost vs time" in out

    def test_save_placement(self, tmp_path, capsys):
        target = tmp_path / "best.pl"
        code = main(
            [
                "run",
                "--circuit", "tiny16",
                "--tsws", "1",
                "--clws", "1",
                "--global-iterations", "1",
                "--local-iterations", "2",
                "--cluster", "homogeneous:2",
                "--save-placement", str(target),
            ]
        )
        assert code == 0
        assert target.exists()
        netlist = load_benchmark("tiny16")
        placement = read_placement(target, Layout(netlist))
        placement.validate()

    @pytest.mark.parametrize("spec", ["quantum:3", "homogeneous:abc", "homogeneous:"])
    def test_bad_cluster_spec_is_reported(self, capsys, spec):
        code = main(["run", "--circuit", "tiny16", "--cluster", spec])
        assert code == 2
        err = capsys.readouterr().err
        assert "error" in err
        assert repr(spec) in err
        assert "homogeneous:<N>" in err


class TestSessionsWorkflow:
    """The checkpoint / resume / inspect loop through the CLI."""

    RUN_ARGS = [
        "run",
        "--circuit", "tiny16",
        "--tsws", "2",
        "--clws", "1",
        "--global-iterations", "3",
        "--local-iterations", "2",
        "--sync", "homogeneous",
        "--cluster", "homogeneous:4",
    ]

    def test_pause_checkpoint_inspect_resume(self, tmp_path, capsys):
        ckpt = tmp_path / "run.rtss"

        code = main(self.RUN_ARGS + ["--pause-after", "1", "--checkpoint", str(ckpt)])
        assert code == 0
        out = capsys.readouterr().out
        assert "1/3 global iterations (paused)" in out
        assert ckpt.exists()

        assert main(["sessions", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "tiny16" in out
        assert "1/3" in out
        assert "paused" in out

        code = main(["run", "--resume", str(ckpt), "--checkpoint", str(ckpt)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Resuming tiny16" in out
        assert "best cost" in out

        assert main(["sessions", str(ckpt)]) == 0
        assert "complete" in capsys.readouterr().out

    def test_resume_rejects_instance_flags(self, tmp_path, capsys):
        ckpt = tmp_path / "run.rtss"
        assert main(self.RUN_ARGS + ["--pause-after", "1", "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        code = main(["run", "--resume", str(ckpt), "--circuit", "tiny16"])
        assert code == 2
        assert "drop --instance/--circuit" in capsys.readouterr().err

    def test_pause_after_must_be_positive(self, capsys):
        code = main(self.RUN_ARGS + ["--pause-after", "0"])
        assert code == 2
        assert "at least one" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["sessions"], ["sessions", "inspect"], ["run", "--resume"]],
        ids=["sessions", "sessions-inspect", "run-resume"],
    )
    def test_missing_checkpoint_is_an_error_not_a_traceback(self, tmp_path, capsys, argv):
        missing = tmp_path / "missing.rtss"
        code = main(argv + [str(missing)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read checkpoint")
        assert "missing.rtss" in err

    @pytest.fixture(scope="class")
    def paused_checkpoint(self, tmp_path_factory):
        ckpt = tmp_path_factory.mktemp("paused") / "run.rtss"
        assert main(self.RUN_ARGS + ["--pause-after", "1", "--checkpoint", str(ckpt)]) == 0
        return ckpt

    @pytest.mark.parametrize("version", [5, SCHEMA_VERSION + 1], ids=["v5", "newer"])
    @pytest.mark.parametrize(
        "argv",
        [["sessions"], ["sessions", "inspect"], ["run", "--resume"]],
        ids=["sessions", "sessions-inspect", "run-resume"],
    )
    def test_other_schema_versions_are_an_error(
        self, paused_checkpoint, tmp_path, capsys, argv, version
    ):
        # a version 5 artifact pickles search parameters with the aspiration,
        # attribute-scheme and speed-hint fields this build no longer has
        stale = tmp_path / "stale.rtss"
        stale.write_bytes(
            struct.pack("<4sI", MAGIC, version) + paused_checkpoint.read_bytes()[8:]
        )
        capsys.readouterr()
        assert main(argv + [str(stale)]) == 2
        assert capsys.readouterr().err.strip() == (
            f"error: unsupported checkpoint schema version {version} "
            f"(this build reads version {SCHEMA_VERSION})"
        )

    def test_sessions_rejects_a_non_checkpoint_file(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.rtss"
        bogus.write_bytes(b"definitely not a checkpoint")
        code = main(["sessions", str(bogus)])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestFigureCommand:
    def test_runs_fig9_on_a_small_circuit(self, capsys, monkeypatch):
        # keep it quick: the tiny generated circuit and the quick scale
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "quick")
        code = main(["figure", "fig9", "--circuits", "mini64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig9" in out
        assert "diversified" in out
