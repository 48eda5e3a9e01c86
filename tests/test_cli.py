import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mtsk
from mtsk.cli import main, parse_run_config
from mtsk.cohort import _CALIBRATION_CELLS, load_cohort
from mtsk.evaluate import ExperimentConfig, MethodSpec, cell_kernel, full_method_grid
from mtsk.kernels import load_matrix
from mtsk.lps import load_lps_forest, lps_gram
from mtsk.tck import load_tck_model, tck_test


def run_cli(*args):
    return main([str(a) for a in args])


def _synth_csv(tmp_path, name="cohort.csv", rate=0.2, cases=6, controls=14, days=20,
               attrs=3, seed=1):
    path = tmp_path / name
    code = run_cli(
        "synth", "--cases", cases, "--controls", controls, "--attrs", attrs,
        "--days", days, "--missing", "mcar", "--rate", rate, "--seed", seed,
        "--out", path,
    )
    assert code == 0
    return path


class TestPackage:
    def test_import_loads_no_scipy(self):
        # numpy is the only runtime dependency; a fresh interpreter shows it.
        src = os.path.dirname(os.path.dirname(os.path.abspath(mtsk.__file__)))
        code = (f"import sys; sys.path.insert(0, {src!r}); import mtsk, mtsk.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "[]"


class TestSynth:
    def test_rate_zero_row_count_is_exact(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        assert run_cli(
            "synth", "--cases", 3, "--controls", 5, "--attrs", 4, "--days", 6,
            "--rate", 0, "--out", path,
        ) == 0
        rows = path.read_text().splitlines()
        assert len(rows) - 1 == 8 * 4 * 6
        assert "missing fraction 0.000" in capsys.readouterr().out

    def test_mcar_row_count_within_binomial_bound(self, tmp_path):
        path = _synth_csv(tmp_path, rate=0.3, cases=58, controls=163, attrs=11, days=20)
        n_rows = len(path.read_text().splitlines()) - 1
        cells = 221 * 11 * 20
        expect = cells * 0.7
        slack = 4 * np.sqrt(cells * 0.3 * 0.7)
        assert abs(n_rows - expect) <= slack

    def test_repeat_invocation_is_byte_identical(self, tmp_path):
        a = _synth_csv(tmp_path, name="a.csv")
        b = _synth_csv(tmp_path, name="b.csv")
        assert a.read_bytes() == b.read_bytes()

    # SHA-256 of the files written at commit 41866d7, before synth built its cohort
    # through the run config's builder.
    @pytest.mark.parametrize("flags, digest", [
        ([], "452a54b6571a29992dc354a543ff4e8d9f758078ed6a4d09585423d7b77ba517"),
        (["--missing", "mar", "--rate", 0.2, "--seed", 4],
         "f7ded7085672afcc61889d2d089bb3fa613ffb17ec0edcd7073f243bfb1cd01b"),
        (["--missing", "none", "--rate", 0.4],  # the rate is not read
         "452a54b6571a29992dc354a543ff4e8d9f758078ed6a4d09585423d7b77ba517"),
    ], ids=["complete", "mar", "none-with-rate"])
    def test_writes_the_bytes_of_commit_41866d7(self, tmp_path, flags, digest):
        path = tmp_path / "c.csv"
        assert run_cli("synth", "--cases", 7, "--controls", 13, "--attrs", 4, "--days", 9,
                       *flags, "--out", path) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    # SHA-256 of the files written at commit c83ed5d.  The cohort has 721 x 11 x 20 cells,
    # more than _CALIBRATION_CELLS, so the MAR and MNAR intercepts are calibrated on a
    # seeded subsample of them.
    @pytest.mark.parametrize("mechanism, digest", [
        ("mar", "70e5050dada760e224de99942cfca9b76653ba00e3823610c250044e6d78d96e"),
        ("mnar", "27105fd7219823422249bde38a3cfec52002e8473919497ad339fa824b7aa1ff"),
    ], ids=["mar", "mnar"])
    def test_subsampled_calibration_writes_the_bytes_of_commit_c83ed5d(self, tmp_path,
                                                                        mechanism, digest):
        assert 721 * 11 * 20 > _CALIBRATION_CELLS
        path = tmp_path / "c.csv"
        assert run_cli("synth", "--cases", 183, "--controls", 538, "--attrs", 11, "--days", 20,
                       "--missing", mechanism, "--rate", 0.3, "--out", path) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestKernel:
    def test_linear_without_imputation_is_rejected(self, tmp_path, capsys):
        train = _synth_csv(tmp_path)
        code = run_cli("kernel", "--method", "linear", "--train", train,
                       "--out-prefix", tmp_path / "k")
        assert code == 2
        assert "incomplete" in capsys.readouterr().err

    def test_tck_runs_on_incomplete_data(self, tmp_path, capsys):
        train = _synth_csv(tmp_path, cases=4, controls=8, days=10)
        test = _synth_csv(tmp_path, name="test.csv", cases=2, controls=3, days=10, seed=9)
        prefix = tmp_path / "k"
        code = run_cli(
            "kernel", "--method", "tck", "--train", train, "--test", test,
            "--out-prefix", prefix,
        )
        assert code == 0
        tag, gram = load_matrix(f"{prefix}.gram.csv")
        assert tag == "tck"
        assert np.linalg.eigvalsh(gram).min() >= -1e-8 * np.trace(gram)
        tag, cross = load_matrix(f"{prefix}.cross.csv")
        assert cross.shape == (12, 5)
        assert (prefix.parent / "k.tck.npz").exists()

    def test_gak_with_imputation_writes_gram(self, tmp_path):
        train = _synth_csv(tmp_path, cases=3, controls=5, days=8)
        prefix = tmp_path / "g"
        code = run_cli(
            "kernel", "--method", "gak", "--impute", "zero+bc", "--train", train,
            "--out-prefix", prefix,
        )
        assert code == 0
        tag, gram = load_matrix(f"{prefix}.gram.csv")
        assert tag == "gak+zero+bc"
        assert np.array_equal(np.diag(gram), np.ones(8))

    def test_tck_with_imputation_is_rejected(self, tmp_path, capsys):
        train = _synth_csv(tmp_path)
        code = run_cli("kernel", "--method", "tck", "--impute", "mean", "--train", train,
                       "--out-prefix", tmp_path / "k")
        assert code == 2
        assert "imputation must be none" in capsys.readouterr().err
        assert not list(tmp_path.glob("k.*"))

    @pytest.mark.parametrize("kernel, scheme", [
        ("tck", None), ("lps", None), ("gak", "locf+bc"), ("linear", "mean"),
    ])
    def test_outputs_equal_the_sweep_dispatch(self, tmp_path, kernel, scheme):
        train_csv = _synth_csv(tmp_path, cases=4, controls=8, days=10)
        test_csv = _synth_csv(tmp_path, name="test.csv", cases=2, controls=3, days=10, seed=9)
        prefix = tmp_path / "k"
        impute_args = ("--impute", scheme) if scheme else ()
        assert run_cli("kernel", "--method", kernel, *impute_args, "--train", train_csv,
                       "--test", test_csv, "--out-prefix", prefix, "--seed", 3) == 0

        method = MethodSpec(kernel, scheme)
        train = load_cohort(train_csv)
        test = load_cohort(test_csv, window_length=train.window_length,
                           attributes=train.attribute_names)
        km, _ = cell_kernel(method, train, test, ExperimentConfig(methods=(method,)), 3)
        tag = kernel if scheme is None else f"{kernel}+{scheme}"
        assert load_matrix(f"{prefix}.gram.csv")[0] == tag
        assert np.array_equal(load_matrix(f"{prefix}.gram.csv")[1], km.gram)
        assert np.array_equal(load_matrix(f"{prefix}.cross.csv")[1], km.cross)
        if kernel == "tck":
            reloaded = tck_test(load_tck_model(f"{prefix}.tck.npz"), test)
        elif kernel == "lps":
            reloaded = lps_gram(load_lps_forest(f"{prefix}.lps.npz"), train, test)
        else:
            return
        assert np.array_equal(reloaded.cross, km.cross)

    def test_missing_input_file(self, tmp_path, capsys):
        code = run_cli("kernel", "--method", "tck", "--train", tmp_path / "nope.csv",
                       "--out-prefix", tmp_path / "k")
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_malformed_cohort_exits_2(self, tmp_path, capsys):
        train = tmp_path / "bad.csv"
        train.write_text("patient_id,label,day,attribute,value\np1,1,nope,CRP,1.0\n")
        code = run_cli("kernel", "--method", "tck", "--train", train,
                       "--out-prefix", tmp_path / "k")
        assert code == 2
        assert "error: invalid cohort file: line 2: day must be an integer" in (
            capsys.readouterr().err
        )

    def test_idempotent_outputs(self, tmp_path):
        train = _synth_csv(tmp_path, cases=4, controls=8, days=10)
        for prefix in ("a", "b"):
            assert run_cli(
                "kernel", "--method", "tck", "--train", train,
                "--out-prefix", tmp_path / prefix, "--seed", 3,
            ) == 0
        for suffix in (".gram.csv", ".tck.npz"):
            assert (tmp_path / f"a{suffix}").read_bytes() == (
                tmp_path / f"b{suffix}"
            ).read_bytes()


def _run_config(tmp_path, cohort_path, **overrides):
    doc = {
        "cohort": {"path": str(cohort_path)},
        "output_dir": str(tmp_path / "out"),
        "methods": [
            {"kernel": "tck"},
            {"kernel": "linear", "imputation": "zero"},
        ],
        "windows": [8, 14],
        "runs": 2,
        "base_seed": 7,
        "pipeline": {"kmeans_restarts": 5},
        "tck": {"Q": 2, "C": 3},
        "lps": {"trees": 8},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestRun:
    def test_dry_run_touches_nothing(self, tmp_path, capsys):
        cohort = _synth_csv(tmp_path)
        config = _run_config(tmp_path, cohort)
        assert run_cli("run", config, "--dry-run") == 0
        out = capsys.readouterr().out
        assert "planned cells: 8" in out
        assert not (tmp_path / "out").exists()

    def test_missing_cohort_file_exits_2(self, tmp_path, capsys):
        config = _run_config(tmp_path, tmp_path / "absent.csv")
        assert run_cli("run", config) == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert run_cli("run", tmp_path / "none.json") == 2
        assert "none.json" in capsys.readouterr().err

    def test_malformed_cohort_exits_2(self, tmp_path, capsys):
        cohort = tmp_path / "bad.csv"
        cohort.write_text("patient_id,label,day,attribute,value\np1,1,3,CRP,1.0\n"
                          "p1,1,3,CRP,2.0\n")
        assert run_cli("run", _run_config(tmp_path, cohort)) == 2
        assert "error: invalid cohort file: line 3: duplicate" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        ({"runs": "abc"}, "runs: invalid literal"),
        ({"runs": None}, "runs: int() argument"),
        ({"pipeline": {"kpca_dim": [2]}}, "pipeline.kpca_dim: int() argument"),
        ({"pipeline": 5}, "pipeline: must be an object"),
    ])
    def test_unconvertible_value_exits_2(self, tmp_path, capsys, overrides, message):
        config = _run_config(tmp_path, "ignored", cohort={"synthetic": {}}, **overrides)
        assert run_cli("run", config) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        ({"runs": 0}, "runs must be >= 1"),
        ({"pipeline": {"k_clusters": 3}}, "pipeline: unknown key 'k_clusters'"),
        # Sweep settings that every cell would reject.
        ({"train_fraction": 1.5}, "train_fraction must be in (0, 1), got 1.5"),
        ({"pipeline": {"kpca_dim": 0}}, "kpca_dim must be >= 1, got 0"),
        ({"tck": {"Q": 2, "C": 1}}, "tck_c must be >= 2, got 1"),
        ({"windows": [0, 8]}, "windows must be >= 1, got 0"),
        ({"windows": [8, 99]}, "windows: 99 exceeds the cohort's 10 days"),
        ({"windows": [8, 8]}, "duplicate windows [8]"),
        ({"methods": [{"kernel": "tck"}, {"kernel": "tck"}]},
         "duplicate method labels ['tck/none']"),
        ({"base_seed": -1}, "base_seed must be >= 0, got -1"),
        ({"tck": {"Q": 2, "C": 3, "max_iter": 0}}, "tck_max_iter must be >= 1, got 0"),
        ({"lps": {"trees": 8, "max_depth": 0}}, "lps_depth must be >= 1, got 0"),
    ])
    def test_value_the_config_rejects_exits_2(self, tmp_path, capsys, overrides, message):
        config = _run_config(tmp_path, "ignored", cohort={"synthetic": {"days": 10}},
                             **overrides)
        assert run_cli("run", config) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("error:") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides, where", [
        ({"stratify": "false"}, "stratify"),
        ({"baselines": {"supervised": "no"}}, "baselines.supervised"),
        ({"evaluation": {"paper_literal_f1": 1}}, "evaluation.paper_literal_f1"),
    ])
    def test_non_boolean_flag_exits_2(self, tmp_path, capsys, overrides, where):
        config = _run_config(tmp_path, "ignored", cohort={"synthetic": {}}, **overrides)
        assert run_cli("run", config) == 2
        assert f"{where}: must be true or false" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        ({"runs": 2.7}, "runs: must be an integer, got 2.7"),
        ({"runs": True}, "runs: must be an integer, got True"),
        ({"lps": {"trees": "8"}}, "lps.trees: must be an integer, got '8'"),
        ({"tck": {"C": "abc"}}, "tck.C: invalid literal"),
        ({"tck": {"C": 2.5}}, "tck.C: must be an integer, got 2.5"),
        ({"tck": {"C": True}}, "tck.C: must be an integer, got True"),
        ({"windows": {"from": 7.5, "to": 9}}, "windows: need integer 'from' and 'to'"),
        ({"windows": [8, True]}, "windows: must be a list of integers"),
        ({"embedding_dumps": {"windows": [8.5]}},
         "embedding_dumps.windows: must be an integer, got 8.5"),
    ])
    def test_non_integer_value_exits_2(self, tmp_path, capsys, overrides, message):
        config = _run_config(tmp_path, "ignored", cohort={"synthetic": {}}, **overrides)
        assert run_cli("run", config, "--dry-run") == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("synthetic, message", [
        ({"cases": "abc"}, "cohort.synthetic.cases: invalid literal"),
        ({"days": 20.5}, "cohort.synthetic.days: must be an integer, got 20.5"),
        ({"effect_size": "big"}, "cohort.synthetic.effect_size: must be a number"),
        ({"missing": 5}, "cohort.synthetic.missing: must be an object"),
        ({"missing": {"mechanism": "mcar", "rate": "0.3"}},
         "cohort.synthetic.missing.rate: must be a number"),
        ({"missing": {"mechanism": "mcar", "rate": 0.3, "seed": 1.5}},
         "cohort.synthetic.missing.seed: must be an integer, got 1.5"),
    ])
    def test_bad_synthetic_cohort_key_exits_2(self, tmp_path, capsys, synthetic, message):
        config = _run_config(tmp_path, "ignored", cohort={"synthetic": synthetic})
        assert run_cli("run", config, "--dry-run") == 2
        assert message in capsys.readouterr().err

    def test_unknown_keys_reported_exhaustively(self, tmp_path, capsys):
        cohort = _synth_csv(tmp_path)
        config = _run_config(tmp_path, cohort, typo_key=1, another_typo=2)
        assert run_cli("run", config) == 2
        err = capsys.readouterr().err
        assert "typo_key" in err and "another_typo" in err

    def test_run_writes_reports(self, tmp_path):
        cohort = _synth_csv(tmp_path)
        config = _run_config(tmp_path, cohort)
        assert run_cli("run", config) == 0
        out = tmp_path / "out"
        rows = (out / "report_rows.csv").read_text().splitlines()
        assert len(rows) - 1 == 2 * 2 * 2 * 2  # methods x windows x runs x splits
        assert (out / "report_aggregate.csv").exists()
        doc = json.loads((out / "report.json").read_text())
        assert doc["errors"] == []
        assert len(doc["rows"]) == 16

    def test_byte_identical_across_invocations_and_workers(self, tmp_path):
        cohort = _synth_csv(tmp_path)
        config = _run_config(tmp_path, cohort)
        assert run_cli("run", config) == 0
        out = tmp_path / "out"
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run_cli("run", config) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run_cli("run", config, "--workers", 4) == 0
        third = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second == third

    def test_cell_failures_exit_1(self, tmp_path, capsys):
        cohort = _synth_csv(tmp_path)
        config = _run_config(
            tmp_path, cohort,
            methods=[{"kernel": "lps"}, {"kernel": "linear", "imputation": "zero"}],
            windows=[1, 8],
            runs=1,
        )
        assert run_cli("run", config) == 1
        assert "cell(s) failed" in capsys.readouterr().err

    def test_failed_cell_is_reported_once(self, tmp_path):
        config = _run_config(tmp_path, _synth_csv(tmp_path), methods=[{"kernel": "lps"}],
                             windows=[1, 8], runs=1)
        result = _env_cli("run", config)  # a child process, so that log lines reach stderr
        assert result.returncode == 1
        assert result.stderr.count("lps/none window=1 run=0") == 1

    def test_embedding_dump_written(self, tmp_path):
        cohort = _synth_csv(tmp_path)
        config = _run_config(
            tmp_path, cohort,
            embedding_dumps={"methods": ["linear/zero"], "windows": [14]},
        )
        assert run_cli("run", config) == 0
        dump = tmp_path / "out" / "embedding_linear_zero_w14.csv"
        header = dump.read_text().splitlines()[0]
        assert header.startswith("id,label,cluster,e1,e2")

    def test_synthetic_cohort_source(self, tmp_path):
        config = _run_config(tmp_path, "ignored")
        doc = json.loads(config.read_text())
        doc["cohort"] = {
            "synthetic": {
                "cases": 5, "controls": 15, "attributes": 3, "days": 20,
                "effect_size": 1.5, "seed": 3,
                "missing": {"mechanism": "mcar", "rate": 0.2, "seed": 4},
            }
        }
        config.write_text(json.dumps(doc))
        assert run_cli("run", config) == 0
        assert (tmp_path / "out" / "report_rows.csv").exists()


class TestRunConfig:
    def test_minimal_document_gives_config_defaults(self, tmp_path):
        doc = {"cohort": {"synthetic": {}}, "output_dir": str(tmp_path)}
        _, _, config = parse_run_config(doc)
        assert config == ExperimentConfig(methods=full_method_grid())

    def test_null_component_count_means_the_default(self, tmp_path):
        doc = {"cohort": {"synthetic": {}}, "output_dir": str(tmp_path), "tck": {"C": None}}
        _, _, config = parse_run_config(doc)
        assert config == ExperimentConfig(methods=full_method_grid())

    def test_every_option_maps_to_its_field(self, tmp_path):
        doc = {
            "cohort": {"synthetic": {}},
            "output_dir": str(tmp_path),
            "methods": [{"kernel": "lps"}],
            "windows": {"from": 8, "to": 10},
            "runs": 3,
            "base_seed": 4,
            "train_fraction": 0.7,
            "stratify": True,
            "pipeline": {"kpca_dim": 6, "knn_k": 3, "kmeans_restarts": 7},
            "baselines": {"supervised": True, "manual_features": True},
            "evaluation": {"paper_literal_f1": True},
            "tck": {"Q": 5, "C": 4, "max_iter": 9},
            "lps": {"trees": 11, "max_depth": 3},
            "embedding_dumps": {"methods": ["lps/none"], "windows": [9]},
        }
        _, _, config = parse_run_config(doc)
        expected = ExperimentConfig(
            methods=(MethodSpec("lps"),), windows=(8, 9, 10), runs=3, base_seed=4,
            train_fraction=0.7, stratify=True, kpca_dim=6, knn_k=3,
            kmeans_restarts=7, supervised_baseline=True, manual_baseline=True,
            paper_literal_f1=True, tck_q=5, tck_c=4, tck_max_iter=9, lps_trees=11,
            lps_depth=3, embedding_dump_methods=("lps/none",), embedding_dump_windows=(9,),
        )
        assert config == expected
        # Every field differs from its default.
        default = ExperimentConfig(methods=(MethodSpec("tck"),))
        for f in dataclasses.fields(ExperimentConfig):
            assert getattr(config, f.name) != getattr(default, f.name), f.name


class TestReport:
    def test_reaggregation_matches_run_output(self, tmp_path):
        cohort = _synth_csv(tmp_path)
        config = _run_config(tmp_path, cohort)
        assert run_cli("run", config) == 0
        out = tmp_path / "out"
        agg2 = tmp_path / "agg2.csv"
        assert run_cli("report", "--rows", out / "report_rows.csv", "--out", agg2) == 0
        assert agg2.read_bytes() == (out / "report_aggregate.csv").read_bytes()

    def test_stdout_matches_run_output(self, tmp_path, capsys):
        cohort = _synth_csv(tmp_path)
        config = _run_config(tmp_path, cohort)
        assert run_cli("run", config) == 0
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli("report", "--rows", out / "report_rows.csv") == 0
        assert capsys.readouterr().out.encode() == (out / "report_aggregate.csv").read_bytes()

    def test_missing_rows_file(self, tmp_path, capsys):
        assert run_cli("report", "--rows", tmp_path / "no.csv") == 2

    def test_short_row_exits_2(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        rows.write_text("method,imputation,window,run,split,precision,recall,f1\n"
                        "tck,none,8,0,test,0.5,0.5,0.5\ntck,none,8\n")
        assert run_cli("report", "--rows", rows) == 2
        assert f"error: {rows} line 3: malformed row 'tck,none,8'" in capsys.readouterr().err


def _one_patient_csv(tmp_path):
    rows = _synth_csv(tmp_path, name="two.csv", cases=1, controls=1, rate=0).read_text()
    path = tmp_path / "one.csv"
    path.write_text("".join(r for r in rows.splitlines(True) if not r.startswith("ctrl")))
    return path


_SYNTH = ("synth", "--controls", 3, "--days", 5)
_INPUT_ERRORS = {
    "synth-no-cases": (lambda t: [*_SYNTH, "--cases", 0, "--attrs", 2, "--out", t / "x.csv"],
                       "all counts must be positive, got cases=0"),
    "synth-rate-above-1": (lambda t: [*_SYNTH, "--cases", 1, "--attrs", 2, "--missing", "mcar",
                                      "--rate", 1.5, "--out", t / "x.csv"],
                           "rate must be in [0, 1], got 1.5"),
    "synth-rate-below-0": (lambda t: [*_SYNTH, "--cases", 1, "--attrs", 2, "--missing", "mar",
                                      "--rate", -0.2, "--out", t / "x.csv"],
                           "rate must be in [0, 1], got -0.2"),
    **{f"synth-{m}-without-rate": (
        lambda t, m=m: [*_SYNTH, "--cases", 1, "--attrs", 2, "--missing", m, "--out", t / "x.csv"],
        f"--missing {m} needs --rate") for m in ("mcar", "mar", "mnar")},
    "synth-mar-one-attribute": (lambda t: [*_SYNTH, "--cases", 1, "--attrs", 1, "--missing",
                                           "mar", "--rate", 0.3, "--out", t / "x.csv"],
                                "MAR requires at least 2 attributes"),
    "synth-out-in-missing-dir": (lambda t: [*_SYNTH, "--cases", 1, "--attrs", 2,
                                            "--out", t / "nodir" / "x.csv"], "nodir/x.csv"),
    "kernel-one-patient": (lambda t: ["kernel", "--method", "tck", "--train",
                                      _one_patient_csv(t), "--out-prefix", t / "k"],
                           "need at least 2 training samples"),
    "kernel-out-prefix-in-missing-dir": (
        lambda t: ["kernel", "--method", "linear", "--impute", "mean", "--train",
                   _synth_csv(t, cases=2, controls=3, days=5), "--out-prefix", t / "nodir" / "k"],
        "nodir/k.gram.csv"),
    "report-rows-is-a-directory": (lambda t: ["report", "--rows", t], "Is a directory"),
    "run-zero-workers": (lambda t: ["run", _run_config(t, "ignored", cohort={"synthetic": {}}),
                                    "--workers", 0], "n_workers must be >= 1, got 0"),
    "run-negative-workers": (lambda t: ["run", _run_config(t, "ignored",
                                                           cohort={"synthetic": {}}),
                                        "--workers", -3], "n_workers must be >= 1, got -3"),
}
# (cohort, embedding_dumps, message); a cohort without "synthetic" reads a CSV.
_RUN_INPUT_ERRORS = {
    "window-length-string": ({"window_length": "12"}, {},
                             "cohort.window_length: must be an integer, got '12'"),
    "window-length-float": ({"window_length": 2.5}, {},
                            "cohort.window_length: must be an integer, got 2.5"),
    "window-length-bool": ({"window_length": True}, {},
                           "cohort.window_length: must be an integer, got True"),
    "synthetic-no-cases": ({"synthetic": {"cases": 0}}, {},
                           "all counts must be positive, got cases=0"),
    "synthetic-negative-effect": ({"synthetic": {"effect_size": -1}}, {},
                                  "effect_size must be >= 0, got -1"),
    "synthetic-rate-above-1": ({"synthetic": {"missing": {"mechanism": "mcar", "rate": 1.5}}},
                               {}, "rate must be in [0, 1], got 1.5"),
    "synthetic-mechanism-without-rate": ({"synthetic": {"missing": {"mechanism": "mar"}}}, {},
                                         "cohort.synthetic.missing.rate: required, a number "
                                         "in [0, 1]"),
    "synthetic-rate-1": ({"synthetic": {"missing": {"mechanism": "mcar", "rate": 1.0}}}, {},
                         "rate = 1 would produce"),
    "dump-methods-string": ({"synthetic": {}}, {"methods": "tck/none"},
                            "embedding_dumps.methods: must be a list of strings, got 'tck/none'"),
    "dump-method-outside-grid": ({"synthetic": {}}, {"methods": ["linear"], "windows": [8]},
                                 "embedding dump methods ['linear'] are not in the grid"),
    "dump-window-outside-grid": ({"synthetic": {}}, {"methods": ["tck/none"], "windows": [99]},
                                 "embedding dump windows [99] are not in windows"),
    "synthetic-window-length": ({"synthetic": {"days": 10}, "window_length": 4}, {},
                                "cohort.window_length: not read for a synthetic cohort; "
                                "set synthetic.days instead"),
    "window-past-cohort": ({"synthetic": {"days": 10}}, {},
                           "windows: 14 exceeds the cohort's 10 days"),
}


def _csv_text(labels, n_attributes, n_days, rate, seed):
    """A cohort CSV in which patient i has ``labels[i]`` and each cell is observed with
    probability 1 - ``rate``."""
    rng = np.random.default_rng(seed)
    rows = [f"p{i},{label},{day},a{v},{rng.normal():.3f}\n"
            for i, label in enumerate(labels) for v in range(n_attributes)
            for day in range(1, n_days + 1) if rng.random() >= rate]
    return "patient_id,label,day,attribute,value\n" + "".join(rows)


_NA_LABEL_CSV = _csv_text(["0", "1", "0", "1", "NA", "0"], 1, 4, 0.0, 0)


def _error_config(tmp_path, cohort, dumps):
    if "synthetic" not in cohort:
        cohort = {"path": str(_synth_csv(tmp_path)), **cohort}
    return _run_config(tmp_path, "ignored", cohort=cohort, embedding_dumps=dumps)


def _env_cli(*args, **env):
    src = os.path.dirname(os.path.dirname(os.path.abspath(mtsk.__file__)))
    return subprocess.run([sys.executable, "-m", "mtsk.cli", *map(str, args)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src, **env})


class TestInputErrors:
    """Every input error exits 2 with one ``error:`` message and no traceback."""

    def _assert_input_error(self, code, err, message):
        assert code == 2
        assert "error: " in err and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", _INPUT_ERRORS.values(), ids=_INPUT_ERRORS)
    def test_command_input_error_exits_2(self, tmp_path, capsys, argv, message):
        args = argv(tmp_path)
        capsys.readouterr()
        code = run_cli(*args)
        self._assert_input_error(code, capsys.readouterr().err, message)
        assert not (tmp_path / "x.csv").exists()  # where every synth case would write

    @pytest.mark.parametrize("cohort, dumps, message", _RUN_INPUT_ERRORS.values(),
                             ids=_RUN_INPUT_ERRORS)
    def test_run_input_error_exits_2(self, tmp_path, capsys, cohort, dumps, message):
        config = _error_config(tmp_path, cohort, dumps)
        capsys.readouterr()
        code = run_cli("run", config)
        self._assert_input_error(code, capsys.readouterr().err, message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cohort, dumps, message", _RUN_INPUT_ERRORS.values(),
                             ids=_RUN_INPUT_ERRORS)
    def test_dry_run_rejects_what_a_run_rejects(self, tmp_path, capsys, cohort, dumps, message):
        config = _error_config(tmp_path, cohort, dumps)
        capsys.readouterr()
        code = run_cli("run", config, "--dry-run")
        out, err = capsys.readouterr()
        self._assert_input_error(code, err, message)
        assert out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
    def test_zero_workers_exits_2_before_any_output(self, tmp_path, capsys, dry_run):
        config = _run_config(tmp_path, "ignored", cohort={"synthetic": {}})
        capsys.readouterr()
        code = run_cli("run", config, *dry_run, "--workers", 0)
        out, err = capsys.readouterr()
        self._assert_input_error(code, err, "n_workers must be >= 1, got 0")
        assert out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
    def test_unlabelled_sample_exits_2_before_any_output(self, tmp_path, capsys, dry_run):
        (tmp_path / "cohort.csv").write_text(_NA_LABEL_CSV)
        config = _run_config(tmp_path, tmp_path / "cohort.csv", windows=[4])
        capsys.readouterr()
        code = run_cli("run", config, *dry_run)
        out, err = capsys.readouterr()
        self._assert_input_error(code, err, "every sample needs a binary label for evaluation")
        assert out == ""
        assert not (tmp_path / "out").exists()

    def test_environment_errors_reach_only_their_readers(self, tmp_path):
        config = _run_config(tmp_path, "ignored", cohort={"synthetic": {}})
        synth = [*_SYNTH, "--cases", 1, "--attrs", 2, "--out", tmp_path / "x.csv"]
        bad_workers = _env_cli("run", config, "--dry-run", MTSK_WORKERS="abc")
        self._assert_input_error(bad_workers.returncode, bad_workers.stderr,
                                 "argument --workers: invalid int value: 'abc'")
        bad_log = _env_cli(*synth, MTSK_LOG="bogus")
        self._assert_input_error(bad_log.returncode, bad_log.stderr, "Unknown level: 'BOGUS'")
        assert _env_cli(*synth, MTSK_WORKERS="abc").returncode == 0

    def test_debug_log_shows_the_traceback(self, tmp_path):
        out = _env_cli(*_SYNTH, "--cases", 0, "--attrs", 2, "--out", tmp_path / "x.csv",
                       MTSK_LOG="debug")
        assert out.returncode == 2
        assert "Traceback" in out.stderr and "error: all counts must be positive" in out.stderr


_SMALL_METHODS = ({"kernel": "linear", "imputation": "zero"},
                  {"kernel": "manual", "imputation": "mean"}, {"kernel": "lps"}, {"kernel": "tck"})


@st.composite
def _small_runs(draw):
    """(cohort object, CSV text or None, windows, methods) of a small run config."""
    n_days, n_attributes = draw(st.integers(1, 8)), draw(st.integers(1, 2))
    if draw(st.booleans()):
        synthetic = {"cases": draw(st.integers(1, 6)), "controls": draw(st.integers(1, 6)),
                     "attributes": n_attributes, "days": n_days, "seed": draw(st.integers(0, 3))}
        if draw(st.booleans()):
            synthetic["missing"] = {"mechanism": draw(st.sampled_from(["mcar", "mar", "mnar"])),
                                    "rate": draw(st.sampled_from([0.0, 0.3, 1.0]))}
        cohort, text = {"synthetic": synthetic}, None
    else:
        labels = draw(st.lists(st.sampled_from(["0", "1"]), min_size=1, max_size=12))
        if draw(st.booleans()):
            labels[draw(st.integers(0, len(labels) - 1))] = "NA"
        text = _csv_text(labels, n_attributes, n_days, draw(st.sampled_from([0.0, 0.3, 0.8])),
                         draw(st.integers(0, 3)))
        cohort = {"path": "cohort.csv"}
        if draw(st.booleans()):
            cohort["window_length"] = draw(st.integers(1, 10))
    windows = draw(st.lists(st.integers(1, n_days + 2), min_size=1, max_size=3, unique=True))
    methods = draw(st.lists(st.sampled_from(_SMALL_METHODS), min_size=1, max_size=2,
                            unique_by=lambda m: m["kernel"]))
    return cohort, text, windows, methods


def _cli_output(*args):
    """(exit status, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(*args)
    return code, out.getvalue(), err.getvalue()


class TestDryRunMatchesRun:
    """A config that the dry run accepts is not rejected by the run for its input, and one
    that it rejects, the run rejects with the same error and without writing."""

    @given(case=_small_runs(), workers=st.sampled_from([1, 1, 1, 0]))
    @example(case=({"path": "cohort.csv"}, _NA_LABEL_CSV, [4], [_SMALL_METHODS[0]]), workers=1)
    @settings(max_examples=100)
    def test_run_of_what_the_dry_run_accepts(self, case, workers):
        cohort, text, windows, methods = case
        with tempfile.TemporaryDirectory() as tmp:  # a fresh directory for every example
            if text is not None:
                with open(os.path.join(tmp, "cohort.csv"), "w", encoding="utf-8") as fh:
                    fh.write(text)
            config = os.path.join(tmp, "config.json")
            with open(config, "w", encoding="utf-8") as fh:
                json.dump({"cohort": cohort, "output_dir": "out", "methods": methods,
                           "windows": windows, "runs": 1, "pipeline": {"kmeans_restarts": 2},
                           "tck": {"Q": 1, "C": 2}, "lps": {"trees": 2, "max_depth": 2}}, fh)
            out_dir = os.path.join(tmp, "out")
            dry = _cli_output("run", config, "--dry-run", "--workers", workers)
            assert not os.path.exists(out_dir)
            run = _cli_output("run", config, "--workers", workers)
            if dry[0] == 0:
                assert run[0] in (0, 1)
                assert {"report.json", "report_rows.csv", "report_aggregate.csv"} <= set(
                    os.listdir(out_dir))
                planned = dry[1].splitlines()[-1].removeprefix("planned cells: ")
                assert run[1].startswith(f"wrote report for {planned} cells to ")
            else:
                assert dry[0] == 2 and dry[1] == "" and dry[2].startswith("error: ")
                assert run == dry
                assert not os.path.exists(out_dir)
