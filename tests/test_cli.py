"""Command-line interface: artifacts, exit codes, determinism, resume."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chordalearn import cli
from chordalearn.evaluation import results_from_csv
from chordalearn.graphs import ChordalGraph, Dag
from chordalearn.scoring import dimension, dimension_dag
from chordalearn.verification import (
    chordality_cross_check,
    probe_dag_targets,
    report_to_json,
    sweep_graphoids,
    sweep_local_optima,
)


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

    def test_target_too_wide_to_parameterize_usage_error(self, tmp_path, capsys):
        # the min-fill chordal target at n=256 has a family of 2^32 cells
        cfg = write_json(tmp_path / "gen.json", {"n_vars": 256, "n_obs": [10], "test_obs": 10, "seed": 1})
        out = tmp_path / "x"
        assert cli.main(["generate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: chordal target with n_vars 256: the table of vertex ")
        assert "Traceback" not in err
        assert not (out / "config.json").exists()

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

    @pytest.mark.parametrize("arities", ["[2.5, 2]", '["2", 2]', "[true, 2]", '{"a": 2}'])
    def test_malformed_arities_io_error(self, tmp_path, arities, capsys):
        # before, int() coerced each entry: 2.5 and "2" learned with exit 0,
        # true was taken as arity 1, and a JSON object failed without
        # naming the file
        data = tmp_path / "train.csv"
        data.write_text("x,y\n0,1\n1,0\n1,1\n")
        (tmp_path / "arities.json").write_text(arities)
        out = tmp_path / "learned"
        rc = cli.main(["learn", "--data", str(data), "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "arities.json" in err and "integers >= 1" in err
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

    # sha256 of every fast-level report; the reports hold no timings, so a
    # changed digest means a suite now checks or finds something else
    FAST_REPORT_SHA256 = {
        "chain_samples_2k.json": "aa2bf479776ad1dc426e6fb0300eacf5a2395868f43fc090e52bc4fa48dee0cf",
        "chordal_chains_n4.json": "f42db919b8dda7df5f820ac8a7327a47c39562ae00d858614a9a058641b74d9e",
        "chordality_n5.json": "ae4d5d31f21152cd563906acf509689016aa9d39bb24f08ec77f45aadcf29c34",
        "dag_probe_n3.json": "82ba1e44c6ce86489150e9cf423e1c7916034b0eccce906f54173a28886e2e72",
        "graphoids_n4.json": "7554c26da22e5b2c5208b71483d07dce3674d5d74131a5caf4228aa60c5d8355",
        "local_optima_n4.json": "c894c8144a033cb8abc18a03cd534928192e70f83d789b36819236b75720a960",
        "self_checks_n4.json": "d097526816939f8abc0c76342ae1457eb8fdec4bc74bba5e7b05d8902b1b2998",
    }

    def test_fast_reports_pinned(self, tmp_path):
        out = tmp_path / "v"
        assert cli.main(["verify", "--level", "fast", "--out", str(out)]) == 0
        got = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (out / "reports").iterdir()
        }
        assert got == self.FAST_REPORT_SHA256

    # sha256 of the cheaper full-level reports, built directly
    FULL_REPORT_SHA256 = {
        "dag_probe_n4.json": "84a235bf3e3d9bc9e1598ae0c78a406464a1ba1306fe630b4c04efcac9da55d1",
        "graphoids_n5.json": "0f7368d0b828a2b5c7aa1aa543ac80e3e7421474afafab0a89ae4d880ff59bb2",
        "local_optima_n3.json": "f78678807a787edca1190254a77d498cb8180f2c193494eaa134075c907da42e",
        "local_optima_n5.json": "53e982625df1b656d07d14d2ee82e63587fdeff8a7544bddd8644e6fd7f331cc",
    }

    def test_full_reports_pinned(self):
        reports = {
            "dag_probe_n4.json": probe_dag_targets(4),
            "graphoids_n5.json": sweep_graphoids(5),
            "local_optima_n3.json": sweep_local_optima(3),
            "local_optima_n5.json": sweep_local_optima(5),
        }
        got = {
            name: hashlib.sha256(report_to_json(rep).encode()).hexdigest()
            for name, rep in reports.items()
        }
        assert got == self.FULL_REPORT_SHA256


class TestLearnPinned:
    # sha256 of structure.txt and trace.jsonl from `learn`, both learners,
    # on seeded data from `generate`: any change to the scores, the move
    # order or the tie-breaks of either search shows here
    LEARN_SHA256 = {
        "chordal_n12_a3/chordal/structure.txt": "1d5c4f4fc1c8fd0dc6fd07231b7d2e2a2130a9730ce0fe6a028d506ac36ba78a",
        "chordal_n12_a3/chordal/trace.jsonl": "e1a081e6ad4f03e9e57563a9a0636f11f3784a84ab7f79dca51296334aa6a8c7",
        "chordal_n12_a3/dag/structure.txt": "203a0867f8bc03fe24ef58e5c54fab38e21d34015a52b20a9088ba361ed86245",
        "chordal_n12_a3/dag/trace.jsonl": "dfdb783ceb039c974df027a5853cf6f67cc79dce4d02146ac6c0717ddc9dbbf2",
        "dag_n12_a2/chordal/structure.txt": "71652d445f6b3f0b6a4ee00c6901f224cff9e4600eabe994456fd4cf1c9df9b4",
        "dag_n12_a2/chordal/trace.jsonl": "23c573313da57236dcf63a1c826023e86aa90183f4d4425421b8f15335b1aa81",
        "dag_n12_a2/dag/structure.txt": "4fc294fd1bab5452b5ba75a636649f5d9bcfdda19d21e4841dfca39346398a1a",
        "dag_n12_a2/dag/trace.jsonl": "2f4c566e4c38cc428be1792375fef10466a457b1826b7bcd739973f535c797a7",
        "chordal_n24_a2/chordal/structure.txt": "280a63c36d463a658477311b445b50cb1e777d9eb5212d45788bf89fefb7baac",
        "chordal_n24_a2/chordal/trace.jsonl": "4ebef3cffc7f40d10bcbc5cbf026a2bba98c9393d1456abae76e55ab0edb98a3",
        "chordal_n24_a2/dag/structure.txt": "9700ba2554eaa1884fef1fca227501abaf469985e44de6e37adfd33b87735047",
        "chordal_n24_a2/dag/trace.jsonl": "73174542e8ca2ac3d4d4d0927a7604019df5a29e798a6954298e37fc5300dfb8",
        "dag_n24_a3/chordal/structure.txt": "6c12f0bc22519659325ffa0abfefb53e006b7e331a69a8c495bc44324a62ab7e",
        "dag_n24_a3/chordal/trace.jsonl": "1563939b041dfd7a5f49eb04709a9ff79ee131fbaa80dc8a400e0ba8fe9360f9",
        "dag_n24_a3/dag/structure.txt": "4b73118af5dfd5d41f493051c88d3512f04490abca59d96d97ad3e8988b43ac4",
        "dag_n24_a3/dag/trace.jsonl": "0bc107a0f70303f54c35fe236c24245e0edf1fc2b56293e5d46d04ed246dfa25",
    }

    @pytest.mark.parametrize(
        "kind,n,arity", [("chordal", 12, 3), ("dag", 12, 2), ("chordal", 24, 2), ("dag", 24, 3)]
    )
    def test_learned_outputs_pinned(self, tmp_path, kind, n, arity):
        cfg = write_json(
            tmp_path / "gen.json",
            {"target_kind": kind, "n_vars": n, "arity": arity, "n_obs": [2000],
             "test_obs": 10, "seed": 11},
        )
        assert cli.main(["generate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        data = tmp_path / "run" / "data" / f"{kind}_n{n}_r0" / "train_2000.csv"
        got, want = {}, {}
        for learner in ("chordal", "dag"):
            out = tmp_path / learner
            argv = ["learn", "--data", str(data), "--learner", learner, "--out", str(out)]
            assert cli.main(argv) == 0
            for name in ("structure.txt", "trace.jsonl"):
                key = f"{kind}_n{n}_a{arity}/{learner}/{name}"
                got[key] = hashlib.sha256((out / name).read_bytes()).hexdigest()
                want[key] = self.LEARN_SHA256[key]
        assert got == want


class TestGeneratePinned:
    # sha256 of every file `generate` writes, for one chordal and one DAG
    # target at n=24: the min-fill triangulation, the perfect ordering and
    # the topological sampling order all show here
    GENERATE_SHA256 = {
        "chordal/config.json": "3d1c158bae1ffe191801b455cd4e54ab9174038cd77fbc5eb5335bf2502a7ca4",
        "chordal/data/chordal_n24_r0/arities.json": "2213b446b511f337d1130557a3a1499e6ddb30cdd35570c02513083eede86448",
        "chordal/data/chordal_n24_r0/test.csv": "faf2523e13cf6e685931e61d424ec0d3b7e9640ff3a7763e8881e86f85c83a27",
        "chordal/data/chordal_n24_r0/train_1000.csv": "a8411c7616b0ef319960d61bc03b859b9ac9c4764ef82758851d6defa5b1a37b",
        "chordal/data/chordal_n24_r0/train_300.csv": "00456d2bfd0ef19ecc8c8f4ebd1e4fa5eea52858822f3d1087db2249c12c47c0",
        "chordal/targets/chordal_n24_r0/lines.txt": "d6dc3ae61bd295af08a6594b862b38281eaeeae6ad2562a4d02c71e28f5f4939",
        "chordal/targets/chordal_n24_r0/net.json": "49673f90296f6fd27547476108530726cccfab26d7c03d505958dcc422a93d04",
        "chordal/targets/chordal_n24_r0/structure.txt": "d6dc3ae61bd295af08a6594b862b38281eaeeae6ad2562a4d02c71e28f5f4939",
        "dag/config.json": "aeda278adedfdb0543b16498183739c27a9cc902e69b2f5a1ae32c1d85786893",
        "dag/data/dag_n24_r0/arities.json": "e552a8188396d8a6738aea3c3b915885302516acab7057f35d0dfe1d99d181b8",
        "dag/data/dag_n24_r0/test.csv": "9eda6ccf598d9d20ef9b03fb4e4409d195d85032e862a24d9d17b1b52ba270e4",
        "dag/data/dag_n24_r0/train_1000.csv": "21bb526f1f9f9e4122471bfa1d3e2b63577daa508c134a0df28b24b2df653922",
        "dag/data/dag_n24_r0/train_300.csv": "bf3a3a025f482a6caaea36efdc364d7b787056d2e61870affc9abf41b597d614",
        "dag/targets/dag_n24_r0/lines.txt": "7718895f0644749d90fb596512cf3e0e6ef1269e7a80e4f4af86599012fd9257",
        "dag/targets/dag_n24_r0/net.json": "ea9429335f371115cc3cbdaa5a887086a7b10f6c97ed8561f752cebf2d12ede9",
        "dag/targets/dag_n24_r0/structure.txt": "8a288c7571befc0858f87193fd1775f5c6cd2c5209f1c113442fc0996801db5f",
    }

    @pytest.mark.parametrize("kind,arity", [("chordal", 2), ("dag", 3)])
    def test_generated_artifacts_pinned(self, tmp_path, kind, arity):
        cfg = write_json(
            tmp_path / "gen.json",
            {"target_kind": kind, "n_vars": 24, "arity": arity, "n_obs": [300, 1000],
             "test_obs": 200, "seed": 23},
        )
        out = tmp_path / "run"
        assert cli.main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        got = {
            f"{kind}/{name}": hashlib.sha256(data).hexdigest()
            for name, data in tree_bytes(out).items()
        }
        want = {k: v for k, v in self.GENERATE_SHA256.items() if k.startswith(f"{kind}/")}
        assert got == want


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

    def test_rerun_with_changed_config_refused(self, tmp_path, capsys):
        # resumed rows are matched by grid key, which holds no seed: a
        # rerun under another seed must not keep the old seed's rows
        cfg = self.exp_config(tmp_path, replicates=1, n_obs=[60])
        out = tmp_path / "e"
        argv = ["experiment", "--config", str(cfg), "--out", str(out)]
        assert cli.main(argv + ["--seed", "1"]) == 0
        before = tree_bytes(out)
        capsys.readouterr()
        assert cli.main(argv + ["--seed", "2"]) == 1
        err = capsys.readouterr().err
        assert "config.json" in err and str(out) in err
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

    def test_nothing_to_evaluate_usage_error(self, tmp_path, capsys):
        # no learner and no target row: the grid would write a header only
        cfg = self.exp_config(tmp_path, learners=[], include_target=False)
        out = tmp_path / "e"
        assert cli.main(["experiment", "--config", str(cfg), "--out", str(out)]) == 1
        assert "config.learners" in capsys.readouterr().err
        assert not out.exists()

    def test_dim_target_agrees_with_eval(self, tmp_path):
        # one chordal and one dag cell: eval on a cell reports the target
        # dimension the experiment row has, the target structure's own
        cfg = self.exp_config(
            tmp_path, target_kinds=["chordal", "dag"], learners=[], replicates=1, n_obs=[60]
        )
        out = tmp_path / "e"
        assert cli.main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        rows = {r.target_kind: r for r in results_from_csv((out / "results.csv").read_text())}
        assert sorted(rows) == ["chordal", "dag"]
        for kind, row in rows.items():
            cell = f"{kind}_n4_r0"
            target = out / "targets" / cell
            data = out / "data" / cell
            eval_csv = tmp_path / f"{cell}.csv"
            argv = ["eval", "--net", str(target / "net.json"), "--lines", str(target / "lines.txt")]
            argv += ["--train", str(data / "train_60.csv"), "--test", str(data / "test.csv")]
            argv += ["--include-target", "--out", str(eval_csv)]
            assert cli.main(argv) == 0
            (eval_row,) = results_from_csv(eval_csv.read_text())
            assert eval_row.dim_target == row.dim_target
            text = (target / "structure.txt").read_text()
            if kind == "chordal":
                own = dimension(ChordalGraph.from_text(text), (2,) * 4)
            else:
                own = dimension_dag(Dag.from_text(text), (2,) * 4)
            assert row.dim_target == own

    def test_target_rows_only(self, tmp_path):
        cfg = self.exp_config(tmp_path, learners=[], replicates=1, n_obs=[60])
        out = tmp_path / "e"
        assert cli.main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        rows = results_from_csv((out / "results.csv").read_text())
        assert [r.learner for r in rows] == ["target"]

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
            ("replicates", 0),
        ],
    )
    def test_invalid_config_usage_error(self, tmp_path, field, value, capsys):
        cfg = self.exp_config(tmp_path, **{field: value})
        out = tmp_path / "e"
        assert cli.main(["experiment", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"config.{field}" in capsys.readouterr().err
        assert not out.exists()


class TestParserPlumbing:
    def test_import_leaves_scipy_sparse_unloaded(self):
        # scipy.sparse is loaded by the first DAG-search count only, so
        # the chordal learner and verify never pay its memory
        code = "import sys, chordalearn.cli; print('scipy.sparse' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.stdout.strip() == "False"

    def test_no_subcommand_usage_error(self):
        assert cli.main([]) == 1

    def test_unknown_subcommand_usage_error(self):
        assert cli.main(["frobnicate"]) == 1
