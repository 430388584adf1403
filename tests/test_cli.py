"""Command-line interface: artifacts, exit codes, determinism, resume."""

import json
from pathlib import Path

import pytest

from chordalearn import cli
from chordalearn.evaluation import results_from_csv
from chordalearn.graphs import ChordalGraph, Dag
from chordalearn.verification import chordality_cross_check


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc))
    return path


def tree_bytes(root: Path, skip=()) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name not in skip
    }


@pytest.fixture()
def gen_run(tmp_path):
    cfg = write_json(
        tmp_path / "gen.json",
        {"n_vars": 4, "n_obs": [80], "test_obs": 300, "seed": 5},
    )
    out = tmp_path / "run"
    assert cli.main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    return cfg, out


class TestGenerate:
    def test_artifacts(self, gen_run):
        _, out = gen_run
        cell = "chordal_n4_r0"
        for rel in (
            f"targets/{cell}/net.json",
            f"targets/{cell}/lines.txt",
            f"targets/{cell}/structure.txt",
            f"data/{cell}/train_80.csv",
            f"data/{cell}/test.csv",
            f"data/{cell}/arities.json",
            "config.json",
        ):
            assert (out / rel).is_file(), rel

    def test_rerun_byte_identical(self, gen_run, tmp_path):
        cfg, out = gen_run
        out2 = tmp_path / "run2"
        assert cli.main(["generate", "--config", str(cfg), "--out", str(out2)]) == 0
        assert tree_bytes(out) == tree_bytes(out2)

    def test_seed_override_changes_data(self, gen_run, tmp_path):
        cfg, out = gen_run
        out2 = tmp_path / "run_seed9"
        assert (
            cli.main(
                ["generate", "--config", str(cfg), "--out", str(out2), "--seed", "9"]
            )
            == 0
        )
        assert tree_bytes(out, skip=("config.json",)) != tree_bytes(
            out2, skip=("config.json",)
        )

    def test_unknown_config_field_usage_error(self, tmp_path):
        cfg = write_json(tmp_path / "bad.json", {"n_vars": 4, "wat": 1})
        assert cli.main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_vars", 0),
            ("n_vars", [4]),
            ("n_vars", True),
            ("arity", 0),
            ("max_parents", -1),
            ("max_parents", "x"),
            ("min_prob", 2),
            ("min_prob", 0.6),  # above 1/arity for binary variables
            ("min_prob", "0.1"),
            ("seed", -1),
            ("seed", True),
            ("test_obs", 0),
            ("replicate", -1),
        ],
    )
    def test_invalid_config_usage_error(self, tmp_path, field, value, capsys):
        cfg = write_json(tmp_path / "bad.json", {"n_vars": 4, field: value})
        out = tmp_path / "x"
        assert cli.main(["generate", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"config.{field}" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_n_obs_writes_target_and_test_only(self, tmp_path):
        # unlike the experiment grid, generate takes an empty n_obs list
        cfg = write_json(
            tmp_path / "gen.json", {"n_vars": 4, "n_obs": [], "test_obs": 300}
        )
        out = tmp_path / "run"
        assert cli.main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "targets/chordal_n4_r0/net.json").is_file()
        assert (out / "data/chordal_n4_r0/test.csv").is_file()
        assert not list(out.glob("data/*/train_*.csv"))

    def test_missing_config_io_error(self, tmp_path):
        assert (
            cli.main(
                [
                    "generate",
                    "--config",
                    str(tmp_path / "absent.json"),
                    "--out",
                    str(tmp_path / "x"),
                ]
            )
            == 3
        )

    def test_missing_required_flag_usage_error(self, tmp_path):
        assert cli.main(["generate"]) == 1

    def test_dag_targets_supported(self, tmp_path):
        cfg = write_json(
            tmp_path / "g.json",
            {
                "target_kind": "dag",
                "n_vars": 4,
                "n_obs": [50],
                "test_obs": 100,
                "seed": 2,
            },
        )
        out = tmp_path / "dagrun"
        assert cli.main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "targets/dag_n4_r0/structure.txt").read_text()
        Dag.from_text(text)  # parses as a DAG


class TestLearn:
    def test_chordal_learner(self, gen_run, tmp_path):
        _, run = gen_run
        out = tmp_path / "learned"
        rc = cli.main(
            [
                "learn",
                "--data",
                str(run / "data/chordal_n4_r0/train_80.csv"),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        g = ChordalGraph.from_text((out / "structure.txt").read_text())
        assert g.n == 4
        for line in (out / "trace.jsonl").read_text().splitlines():
            rec = json.loads(line)
            assert {"step", "move", "delta", "total"} == set(rec)

    def test_dag_learner(self, gen_run, tmp_path):
        _, run = gen_run
        out = tmp_path / "learned_dag"
        rc = cli.main(
            [
                "learn",
                "--data",
                str(run / "data/chordal_n4_r0/train_80.csv"),
                "--learner",
                "dag",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        Dag.from_text((out / "structure.txt").read_text())

    def test_learn_rerun_byte_identical(self, gen_run, tmp_path):
        _, run = gen_run
        outs = []
        for name in ("l1", "l2"):
            out = tmp_path / name
            assert (
                cli.main(
                    [
                        "learn",
                        "--data",
                        str(run / "data/chordal_n4_r0/train_80.csv"),
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            outs.append(tree_bytes(out))
        assert outs[0] == outs[1]

    def test_missing_data_io_error(self, tmp_path):
        assert (
            cli.main(
                ["learn", "--data", str(tmp_path / "no.csv"), "--out", str(tmp_path / "o")]
            )
            == 3
        )

    def test_headerless_csv_io_error(self, tmp_path, capsys):
        # before, the first record was taken as column names and the
        # learner ran on the other two with exit 0
        data = tmp_path / "train.csv"
        data.write_text("0,1,0\n1,1,0\n1,0,1\n")
        out = tmp_path / "learned"
        rc = cli.main(["learn", "--data", str(data), "--out", str(out)])
        assert rc == 3
        assert "header row of column names" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ess", ["-1", "0", "nan", "inf"])
    def test_invalid_ess_usage_error(self, gen_run, tmp_path, ess, capsys):
        _, run = gen_run
        out = tmp_path / "learned"
        rc = cli.main(
            [
                "learn",
                "--data",
                str(run / "data/chordal_n4_r0/train_80.csv"),
                "--learner",
                "dag",
                "--ess",
                ess,
                "--out",
                str(out),
            ]
        )
        assert rc == 1
        assert "finite positive number" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_rows_with_target(self, gen_run, tmp_path):
        _, run = gen_run
        learned = tmp_path / "l"
        cell = "chordal_n4_r0"
        assert (
            cli.main(
                [
                    "learn",
                    "--data",
                    str(run / f"data/{cell}/train_80.csv"),
                    "--out",
                    str(learned),
                ]
            )
            == 0
        )
        out_csv = tmp_path / "rows.csv"
        rc = cli.main(
            [
                "eval",
                "--net",
                str(run / f"targets/{cell}/net.json"),
                "--lines",
                str(run / f"targets/{cell}/lines.txt"),
                "--train",
                str(run / f"data/{cell}/train_80.csv"),
                "--test",
                str(run / f"data/{cell}/test.csv"),
                "--structure",
                f"chordal:{learned / 'structure.txt'}",
                "--include-target",
                "--seed",
                "5",
                "--out",
                str(out_csv),
            ]
        )
        assert rc == 0
        rows = results_from_csv(out_csv.read_text())
        assert [r.learner for r in rows] == ["chordal", "target"]
        for r in rows:
            assert r.n_obs == 80
            assert r.kl_exact is not None
            assert r.dim_target > 0
        target_row = rows[-1]
        assert target_row.fp_lines == 0 and target_row.fn_lines == 0

    @pytest.mark.parametrize("ess", ["-1", "0", "nan", "inf"])
    def test_invalid_ess_usage_error(self, gen_run, tmp_path, ess):
        _, run = gen_run
        cell = "chordal_n4_r0"
        out_csv = tmp_path / "rows.csv"
        rc = cli.main(
            [
                "eval",
                "--net",
                str(run / f"targets/{cell}/net.json"),
                "--lines",
                str(run / f"targets/{cell}/lines.txt"),
                "--train",
                str(run / f"data/{cell}/train_80.csv"),
                "--test",
                str(run / f"data/{cell}/test.csv"),
                "--include-target",
                "--ess",
                ess,
                "--out",
                str(out_csv),
            ]
        )
        assert rc == 1
        assert not out_csv.exists()


    @pytest.mark.parametrize(
        "field, text",
        [
            ("net", "{"),
            ("net", '{"n": 4}'),
            ("net", '{"n": 4, "arcs": [], "arities": [2, 2, 2, 2], "tables": [[0.5, 0.5]]}'),
            ("lines", "4\n0 1\n"),
            ("lines", "n 4\n0 9\n"),
            ("chordal", "n 4\n0 1\n1 2\n2 3\n0 3\n"),
            ("chordal", "n 4\n0 x\n"),
            ("dag", "n 4\n0 1\n1 0\n"),
        ],
    )
    def test_malformed_input_io_error(self, gen_run, tmp_path, capsys, field, text):
        _, run = gen_run
        cell = "chordal_n4_r0"
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        paths = {
            "net": run / f"targets/{cell}/net.json",
            "lines": run / f"targets/{cell}/lines.txt",
        }
        structure = run / f"targets/{cell}/lines.txt"
        if field in paths:
            paths[field] = bad
        else:
            structure = bad
        learner = "dag" if field == "dag" else "chordal"
        out_csv = tmp_path / "rows.csv"
        rc = cli.main(
            [
                "eval",
                "--net",
                str(paths["net"]),
                "--lines",
                str(paths["lines"]),
                "--train",
                str(run / f"data/{cell}/train_80.csv"),
                "--test",
                str(run / f"data/{cell}/test.csv"),
                "--structure",
                f"{learner}:{structure}",
                "--out",
                str(out_csv),
            ]
        )
        assert rc == 3
        assert "error:" in capsys.readouterr().err
        assert not out_csv.exists()

    def eval_args(self, run, out_csv, *extra):
        cell = "chordal_n4_r0"
        return [
            "eval",
            "--net",
            str(run / f"targets/{cell}/net.json"),
            "--lines",
            str(run / f"targets/{cell}/lines.txt"),
            "--train",
            str(run / f"data/{cell}/train_80.csv"),
            "--test",
            str(run / f"data/{cell}/test.csv"),
            "--out",
            str(out_csv),
            *extra,
        ]

    @pytest.mark.parametrize("label", ["dgg", "target", "Chordal", ""])
    def test_unknown_structure_label_usage_error(self, gen_run, tmp_path, capsys, label):
        _, run = gen_run
        out_csv = tmp_path / "rows.csv"
        lines = run / "targets/chordal_n4_r0/lines.txt"
        rc = cli.main(
            self.eval_args(
                run,
                out_csv,
                "--structure",
                f"chordal:{lines}",
                "--structure",
                f"{label}:{lines}",
            )
        )
        assert rc == 1
        assert "--structure" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_unknown_target_kind_usage_error(self, gen_run, tmp_path):
        _, run = gen_run
        out_csv = tmp_path / "rows.csv"
        rc = cli.main(self.eval_args(run, out_csv, "--include-target", "--target-kind", "ug"))
        assert rc == 1
        assert not out_csv.exists()

    def test_dag_target_kind_written(self, gen_run, tmp_path):
        _, run = gen_run
        out_csv = tmp_path / "rows.csv"
        rc = cli.main(self.eval_args(run, out_csv, "--include-target", "--target-kind", "dag"))
        assert rc == 0
        rows = results_from_csv(out_csv.read_text())
        assert [(r.target_kind, r.learner) for r in rows] == [("dag", "target")]


class TestVerify:
    def test_fast_suite_passes(self, tmp_path, monkeypatch, capsys):
        # keep runtime low: swap in two tiny real suites
        monkeypatch.setattr(
            cli,
            "_verify_suites",
            lambda level: [
                ("tiny_chordality", lambda: chordality_cross_check(3)),
            ],
        )
        out = tmp_path / "v"
        rc = cli.main(["verify", "--level", "fast", "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "tiny_chordality: ok" in captured.out
        doc = json.loads((out / "reports/tiny_chordality.json").read_text())
        assert doc["ok"] is True

    def test_violation_exit_code(self, tmp_path, monkeypatch, capsys):
        from chordalearn.verification import ChordalityReport

        broken = ChordalityReport(3, 8, 7, mismatches=["n=3;0-1"])
        monkeypatch.setattr(
            cli,
            "_verify_suites",
            lambda level: [("planted", lambda: broken)],
        )
        rc = cli.main(["verify", "--out", str(tmp_path / "v")])
        assert rc == 2
        captured = capsys.readouterr()
        assert "planted: VIOLATION" in captured.out

    def test_bad_level_usage_error(self):
        assert cli.main(["verify", "--level", "bogus"]) == 1


class TestExperiment:
    def exp_config(self, tmp_path, **overrides):
        doc = {
            "target_kinds": ["chordal"],
            "n_vars": [4],
            "n_obs": [60, 200],
            "test_obs": 400,
            "replicates": 2,
            "seed": 13,
            "learners": ["chordal", "dag"],
            "include_target": True,
        }
        doc.update(overrides)
        return write_json(tmp_path / "exp.json", doc)

    def test_grid_and_rerun_identical(self, tmp_path):
        cfg = self.exp_config(tmp_path)
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        assert cli.main(["experiment", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(["experiment", "--config", str(cfg), "--out", str(out2)]) == 0
        assert tree_bytes(out1) == tree_bytes(out2)
        rows = results_from_csv((out1 / "results.csv").read_text())
        # 2 n_obs x 2 replicates x (2 learners + target)
        assert len(rows) == 12
        assert sorted({r.learner for r in rows}) == ["chordal", "dag", "target"]

    def test_resume_completes_without_duplicates(self, tmp_path):
        cfg = self.exp_config(tmp_path)
        out = tmp_path / "e"
        assert cli.main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        full = (out / "results.csv").read_bytes()
        # drop the last five rows and resume
        lines = full.decode().splitlines(keepends=True)
        (out / "results.csv").write_text("".join(lines[:-5]))
        assert cli.main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "results.csv").read_bytes() == full

    def test_resume_noop_when_complete(self, tmp_path):
        cfg = self.exp_config(tmp_path)
        out = tmp_path / "e"
        assert cli.main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        before = tree_bytes(out)
        assert cli.main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        assert tree_bytes(out) == before

    def test_failed_cell_exit_code(self, tmp_path, monkeypatch, capsys):
        cfg = self.exp_config(tmp_path, replicates=1)
        out = tmp_path / "e"
        eval_row = cli._eval_row

        def failing(*args):
            if args[-1]["learner"] == "dag":
                raise ValueError("evaluation failed")
            return eval_row(*args)

        monkeypatch.setattr(cli, "_eval_row", failing)
        assert cli.main(["experiment", "--config", str(cfg), "--out", str(out)]) == 3
        assert "2 cell(s) failed" in capsys.readouterr().err
        rows = results_from_csv((out / "results.csv").read_text())
        # 2 n_obs x (chordal + target); both dag cells failed
        assert sorted((r.n_obs, r.learner) for r in rows) == [
            (60, "chordal"), (60, "target"), (200, "chordal"), (200, "target"),
        ]

    @pytest.mark.parametrize("ess", [-1, 0, float("nan"), float("inf"), "1", True])
    def test_invalid_ess_usage_error(self, tmp_path, ess, capsys):
        cfg = self.exp_config(tmp_path, ess=ess)
        out = tmp_path / "e"
        assert cli.main(["experiment", "--config", str(cfg), "--out", str(out)]) == 1
        assert "config.ess" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_vars", [4, "a"]),
            ("n_vars", []),
            ("n_vars", 4),
            ("n_vars", [0]),
            ("n_vars", [True]),
            ("arity", 0),
            ("max_parents", -1),
            ("min_prob", 0.6),
            ("seed", -1),
            ("test_obs", 0),
            ("replicates", 1.5),
            ("include_target", "no"),
            ("target_kinds", []),
            ("n_obs", []),
        ],
    )
    def test_invalid_config_usage_error(self, tmp_path, field, value, capsys):
        cfg = self.exp_config(tmp_path, **{field: value})
        out = tmp_path / "e"
        assert cli.main(["experiment", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"config.{field}" in capsys.readouterr().err
        assert not out.exists()


class TestParserPlumbing:
    def test_no_subcommand_usage_error(self):
        assert cli.main([]) == 1

    def test_unknown_subcommand_usage_error(self):
        assert cli.main(["frobnicate"]) == 1
