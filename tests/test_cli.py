"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_run_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--out", "x.npz"])

    @pytest.mark.parametrize(
        "argv",
        [["run", "--dataset", "tdrive", "--out", "x.npz"], ["serve", "--dataset", "tdrive"]],
        ids=["run", "serve"],
    )
    @pytest.mark.parametrize(
        "flags",
        [
            ["--compile-mode", "incremental"],
            ["--compile-mode", "full-loop"],
            ["--dmu-prefilter"],
            ["--oracle-mode", "exact-loop"],
            ["--accountant-mode", "object"],
        ],
        ids=lambda flags: "=".join(flags).lstrip("-"),
    )
    def test_removed_knobs_are_usage_errors(self, argv, flags, capsys):
        """Removed reference modes are unknown to argparse: exit status 2."""
        build_parser().parse_args(argv)  # the rest of the line is valid
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, *flags])
        assert exc.value.code == 2
        assert flags[-1] in capsys.readouterr().err


class TestDatasetsCommands:
    def test_list(self, capsys):
        assert main(["datasets", "list"]) == 0
        out = capsys.readouterr().out
        assert "tdrive" in out and "oldenburg" in out and "sanjoaquin" in out

    def test_generate_and_stats(self, tmp_path, capsys):
        out_file = tmp_path / "td.npz"
        code = main([
            "datasets", "generate", "--name", "tdrive",
            "--scale", "0.01", "--out", str(out_file), "--seed", "0",
        ])
        assert code == 0
        assert out_file.exists()
        assert main(["datasets", "stats", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "average_length" in out


class TestRunEvaluate:
    @pytest.fixture
    def dataset_file(self, tmp_path):
        path = tmp_path / "data.npz"
        main([
            "datasets", "generate", "--name", "tdrive",
            "--scale", "0.01", "--out", str(path), "--seed", "0",
        ])
        return path

    def test_run_retrasyn(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "syn.npz"
        code = main([
            "run", "--method", "RetraSyn_p", "--input", str(dataset_file),
            "--epsilon", "1.0", "--w", "5", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        assert "satisfied': True" in capsys.readouterr().out

    def test_run_synthesis_plane_flags(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "syn.npz"
        code = main([
            "run", "--method", "RetraSyn_p", "--input", str(dataset_file),
            "--epsilon", "1.0", "--w", "5", "--out", str(out),
            "--engine", "vectorized", "--oracle-mode", "exact",
            "--synthesis-shards", "2",
        ])
        assert code == 0
        assert out.exists()
        assert "satisfied': True" in capsys.readouterr().out

    def test_run_baseline(self, dataset_file, tmp_path):
        out = tmp_path / "syn.npz"
        code = main([
            "run", "--method", "LBD", "--input", str(dataset_file),
            "--w", "5", "--out", str(out),
        ])
        assert code == 0

    def test_run_no_audit(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "syn.npz"
        code = main([
            "run", "--method", "RetraSyn_b", "--input", str(dataset_file),
            "--w", "5", "--out", str(out), "--no-audit",
        ])
        assert code == 0
        assert "privacy audit" not in capsys.readouterr().out

    def test_run_refuses_round_batch(self, dataset_file, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "run", "--method", "RetraSyn_p",
                "--input", str(dataset_file), "--w", "5",
                "--round-batch", "2", "--out", str(tmp_path / "syn.npz"),
            ],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode != 0
        assert "pipelined rounds were removed" in proc.stderr
        assert not (tmp_path / "syn.npz").exists()

    def test_evaluate(self, dataset_file, tmp_path, capsys):
        syn = tmp_path / "syn.npz"
        main([
            "run", "--method", "RetraSyn_p", "--input", str(dataset_file),
            "--w", "5", "--out", str(syn),
        ])
        code = main(["evaluate", str(dataset_file), str(syn), "--phi", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fidelity report" in out
        assert "length_error" in out


class TestExperimentCommand:
    def test_table4_tiny(self, capsys):
        code = main([
            "experiment", "table4", "--scale", "0.01", "--w", "5",
            "--k", "4", "--datasets", "tdrive",
        ])
        assert code == 0
        assert "Table IV" in capsys.readouterr().out

    def test_fig7_tiny(self, capsys):
        code = main([
            "experiment", "fig7", "--scale", "0.01", "--w", "5",
            "--k", "4", "--datasets", "tdrive",
        ])
        assert code == 0
        assert "Figure 7" in capsys.readouterr().out


class TestServeCommand:
    @pytest.fixture
    def dataset_file(self, tmp_path):
        path = tmp_path / "data.npz"
        main([
            "datasets", "generate", "--name", "tdrive",
            "--scale", "0.01", "--out", str(path), "--seed", "0",
        ])
        return path

    def test_serve_basic(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "syn.npz"
        code = main([
            "serve", "--input", str(dataset_file), "--w", "5",
            "--out", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "timestamps processed" in text
        assert "privacy audit" in text
        assert out.exists()

    def test_serve_shuffled_sharded_with_checkpoint(
        self, dataset_file, tmp_path, capsys
    ):
        ckpt = tmp_path / "curator.ckpt"
        code = main([
            "serve", "--input", str(dataset_file), "--w", "5",
            "--shards", "2", "--shuffle", "--lateness", "2",
            "--queue-size", "64",
            "--checkpoint", str(ckpt), "--checkpoint-every", "5",
        ])
        assert code == 0
        assert ckpt.exists()
        text = capsys.readouterr().out
        assert "late reports dropped   0" in text

    def test_serve_resume_from_checkpoint(self, dataset_file, tmp_path, capsys):
        ckpt = tmp_path / "curator.ckpt"
        main([
            "serve", "--input", str(dataset_file), "--w", "5",
            "--checkpoint", str(ckpt), "--checkpoint-every", "5",
        ])
        capsys.readouterr()
        code = main([
            "serve", "--input", str(dataset_file), "--w", "5",
            "--checkpoint", str(ckpt), "--resume",
        ])
        assert code == 0
        assert "resumed at t=" in capsys.readouterr().out

    def test_serve_resumes_a_round_batch_checkpoint(
        self, dataset_file, tmp_path, capsys
    ):
        """A checkpoint whose config and spec carry ``round_batch=3`` —
        written when pipelined rounds existed — resumes through
        ``repro serve --resume`` bit-identically to an uninterrupted run."""
        from repro.api.specs import SessionSpec
        from repro.datasets.io import load_stream_dataset
        from repro.serve import open_session
        from repro.stream.reports import ColumnarStreamView

        reference = tmp_path / "reference.npz"
        assert main([
            "serve", "--input", str(dataset_file), "--w", "5",
            "--out", str(reference),
        ]) == 0

        data = load_stream_dataset(dataset_file)
        ckpt = tmp_path / "pipelined.ckpt"
        spec = SessionSpec.from_flat(
            epsilon=1.0, w=5, engine="vectorized", seed=0,
            transport="ingest", checkpoint_path=str(ckpt),
        )
        session = open_session(data, spec)
        view = ColumnarStreamView(data, session.curator.space)
        for t in range(data.n_timestamps // 2):
            session.submit_batch(t, view.batch_at(t))
            session.advance()
        object.__setattr__(session.spec.sharding, "round_batch", 3)
        object.__setattr__(session.curator.config, "round_batch", 3)
        session.checkpoint()
        session.curator.close()
        resume_t = session.curator._last_t + 1
        assert 0 < resume_t < data.n_timestamps
        capsys.readouterr()

        resumed = tmp_path / "resumed.npz"
        assert main([
            "serve", "--input", str(dataset_file), "--w", "5",
            "--checkpoint", str(ckpt), "--resume", "--out", str(resumed),
        ]) == 0
        assert f"resumed at t={resume_t}" in capsys.readouterr().out

        def streams(path):
            return [
                (tr.start_time, list(tr.cells))
                for tr in load_stream_dataset(path).trajectories
            ]

        assert streams(resumed) == streams(reference)
