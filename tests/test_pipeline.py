"""Config validation, orchestration determinism, artifacts, CLI exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from xaifuse.cli import main
from xaifuse.data import SENSOR_SCHEMA, load_csv
from xaifuse.pipeline import (
    ConfigError,
    PipelineConfig,
    parse_config,
    render_summary_from_artifacts,
    run_fixture_conformance,
    run_pipeline,
)


def tiny_config(out_dir, **extra):
    cfg = {
        "seed": 11,
        "source": {"kind": "synthetic_sensor", "n_rows": 80, "anomaly_fraction": 0.5},
        "models": ["decision_tree", "knn"],
        "independent_classifiers": ["logistic_regression"],
        "explainers": {
            "methods": ["shap", "permutation"],
            "background_size": 8,
            "max_explained_instances": 6,
            "permutation_rounds": 2,
        },
        "fusion": {"top_k": 3},
        "out_dir": str(out_dir),
    }
    cfg.update(extra)
    return cfg


class TestParseConfig:
    def test_minimal_valid(self):
        cfg = parse_config({"seed": 1, "source": {"kind": "synthetic_sensor"}})
        assert cfg.seed == 1
        assert len(cfg.models) == 6
        assert len(cfg.classifiers) == 3
        assert cfg.explain_methods == ("shap", "lime", "permutation")
        assert cfg.fusion.top_k == 4
        assert cfg.max_explained_instances == 2000

    def test_seed_required(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"source": {"kind": "synthetic_sensor"}})
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"seed": True, "source": {"kind": "synthetic_sensor"}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            parse_config(
                {"seed": 1, "source": {"kind": "fixtures"}, "plots": True}
            )

    def test_bad_source(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config({"seed": 1, "source": {"kind": "parquet"}})
        with pytest.raises(ConfigError, match="path"):
            parse_config({"seed": 1, "source": {"kind": "csv", "schema": "sensor"}})
        with pytest.raises(ConfigError, match="schema"):
            parse_config({"seed": 1, "source": {"kind": "csv", "path": "x.csv"}})
        with pytest.raises(ConfigError, match="label_column"):
            parse_config(
                {
                    "seed": 1,
                    "source": {"kind": "csv", "path": "x.csv", "features": ["a"]},
                }
            )
        with pytest.raises(ConfigError, match="anomaly_fraction"):
            parse_config(
                {
                    "seed": 1,
                    "source": {"kind": "synthetic_sensor", "anomaly_fraction": 1.5},
                }
            )

    def test_top_k_beyond_known_feature_count(self):
        with pytest.raises(ConfigError, match="top_k"):
            parse_config(
                {
                    "seed": 1,
                    "source": {"kind": "synthetic_sensor"},
                    "fusion": {"top_k": 11},
                }
            )

    def test_unknown_model_family(self):
        with pytest.raises(ConfigError, match="unknown model family"):
            parse_config(
                {"seed": 1, "source": {"kind": "fixtures"}, "models": ["xgboost"]}
            )

    def test_bad_override_key(self):
        with pytest.raises(ConfigError, match="overrides"):
            parse_config(
                {
                    "seed": 1,
                    "source": {"kind": "synthetic_sensor"},
                    "models": {"knn": {"trees": 10}},
                }
            )

    def test_empty_models_rejected_for_real_sources(self):
        with pytest.raises(ConfigError, match="at least one model"):
            parse_config(
                {"seed": 1, "source": {"kind": "synthetic_sensor"}, "models": []}
            )

    def test_bad_explainers(self):
        with pytest.raises(ConfigError, match="methods"):
            parse_config(
                {
                    "seed": 1,
                    "source": {"kind": "synthetic_sensor"},
                    "explainers": {"methods": ["anchors"]},
                }
            )
        with pytest.raises(ConfigError, match="unknown explainer fields"):
            parse_config(
                {
                    "seed": 1,
                    "source": {"kind": "synthetic_sensor"},
                    "explainers": {"n_samples": 10},
                }
            )
        with pytest.raises(ConfigError, match="explainer settings"):
            parse_config(
                {
                    "seed": 1,
                    "source": {"kind": "synthetic_sensor"},
                    "explainers": {"background_size": 0},
                }
            )

    def test_bad_fusion_and_fraction(self):
        with pytest.raises(ConfigError, match="fusion"):
            parse_config(
                {
                    "seed": 1,
                    "source": {"kind": "synthetic_sensor"},
                    "fusion": {"points": [1, 2]},
                }
            )
        with pytest.raises(ConfigError, match="train_fraction"):
            parse_config(
                {
                    "seed": 1,
                    "source": {"kind": "synthetic_sensor"},
                    "train_fraction": 1.2,
                }
            )

    def test_hash_ignores_out_dir_but_not_seed(self):
        base = {"seed": 1, "source": {"kind": "synthetic_sensor"}}
        h1 = parse_config({**base, "out_dir": "a"}).config_hash()
        h2 = parse_config({**base, "out_dir": "b"}).config_hash()
        h3 = parse_config({**base, "seed": 2, "out_dir": "a"}).config_hash()
        assert h1 == h2
        assert h1 != h3


EXPECTED_RUN_FILES = {
    "importances.csv",
    "ranks_shap.csv",
    "ranks_permutation.csv",
    "fused_shap.csv",
    "fused_permutation.csv",
    "fused_leveled.csv",
    "metrics.json",
    "conformance.json",
    "summary.md",
}


class TestRunPipeline:
    def test_reruns_are_byte_identical(self, tmp_path):
        cfg_a = parse_config(tiny_config(tmp_path / "a"))
        cfg_b = parse_config(tiny_config(tmp_path / "b"))
        man_a = run_pipeline(cfg_a)
        man_b = run_pipeline(cfg_b)
        assert man_a.config_hash == man_b.config_hash
        assert man_a.artifacts == man_b.artifacts
        for name in man_a.artifacts:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_artifact_list_is_complete(self, tmp_path):
        cfg = parse_config(tiny_config(tmp_path / "run"))
        manifest = run_pipeline(cfg)
        assert set(manifest.artifacts) == EXPECTED_RUN_FILES
        for name in manifest.artifacts:
            assert (tmp_path / "run" / name).exists()
        listed = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert listed["artifacts"] == sorted(EXPECTED_RUN_FILES)
        assert [s["name"] for s in listed["stages"]] == [
            "load",
            "clean",
            "map_labels",
            "undersample",
            "split",
            "train",
            "explain",
            "rank",
            "fuse",
            "evaluate",
            "report",
        ]

    def test_conformance_is_null_for_generated_data(self, tmp_path):
        cfg = parse_config(tiny_config(tmp_path / "run"))
        run_pipeline(cfg)
        assert json.loads((tmp_path / "run" / "conformance.json").read_text()) is None

    def test_metrics_json_layout(self, tmp_path):
        cfg = parse_config(tiny_config(tmp_path / "run"))
        run_pipeline(cfg)
        metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert metrics["feature_set_order"] == [
            "all_features",
            "shap",
            "permutation",
            "leveled",
        ]
        assert set(metrics["feature_sets"]) == set(metrics["feature_set_order"])
        assert metrics["classifier_order"] == ["logistic_regression"]
        run = metrics["run"]
        assert (run["mode"], run["source"], run["features"]) == (
            "binary",
            "synthetic_sensor",
            10,
        )
        assert run["train_rows"] > run["test_rows"] > 0
        assert len(metrics["feature_sets"]["leveled"]) == 3
        assert len(metrics["feature_sets"]["all_features"]) == 10
        lr = metrics["classifiers"]["logistic_regression"]
        for set_name, report in lr.items():
            assert 0.0 <= report["accuracy"] <= 1.0, set_name
            assert report["convention"] == "positive_class"

    def test_rank_csv_shape_matches_model_grid(self, tmp_path):
        cfg = parse_config(tiny_config(tmp_path / "run"))
        run_pipeline(cfg)
        lines = (tmp_path / "run" / "ranks_shap.csv").read_text().splitlines()
        assert lines[0] == "feature,decision_tree,knn"
        assert len(lines) == 11  # header + ten features

    def test_fixture_source_runs_conformance(self, tmp_path):
        cfg = parse_config(
            {"seed": 0, "source": {"kind": "fixtures"}, "out_dir": str(tmp_path)}
        )
        manifest = run_pipeline(cfg)
        report = json.loads((tmp_path / "conformance.json").read_text())
        assert report["passed"] is True
        assert len(report["required"]) == 4
        assert "summary.md" in manifest.artifacts

    def test_summary_regeneration_round_trips(self, tmp_path):
        # two judges and two methods: the rebuild must keep the run's order
        # of sets and judges, which canonical JSON would sort
        cfg = parse_config(
            tiny_config(
                tmp_path / "run",
                independent_classifiers=["logistic_regression", "gbdt_lgbm_like"],
            )
        )
        run_pipeline(cfg)
        written = (tmp_path / "run" / "summary.md").read_text(encoding="utf-8")
        assert render_summary_from_artifacts(tmp_path / "run") == written
        assert "- rows: " in written and "- toolkit version: " in written
        assert written.index("### logistic_regression") < written.index(
            "### gbdt_lgbm_like"
        )
        assert "| Metric | all_features | shap | permutation | leveled |" in written


class TestFixtureConformanceRunner:
    def test_direct_call(self, tmp_path):
        manifest, report = run_fixture_conformance(tmp_path)
        assert report.passed
        assert "conformance.json" in manifest.artifacts
        assert (tmp_path / "fused_sensor_leveled.csv").exists()

    def test_summary_regeneration_round_trips(self, tmp_path):
        run_fixture_conformance(tmp_path)
        written = (tmp_path / "summary.md").read_text(encoding="utf-8")
        assert render_summary_from_artifacts(tmp_path) == written
        assert written.startswith("# Conformance summary\n\n## Conformance\n")
        assert written.count("## Conformance") == 1


class TestCli:
    def test_generate_round_trips(self, tmp_path, capsys):
        out = tmp_path / "sensor.csv"
        code = main(
            [
                "generate",
                "--out",
                str(out),
                "--seed",
                "3",
                "--n",
                "50",
                "--anomaly-fraction",
                "0.4",
            ]
        )
        assert code == 0
        assert "wrote 50 rows" in capsys.readouterr().out
        ds = load_csv(out, SENSOR_SCHEMA)
        assert ds.n_rows == 50
        assert set(ds.class_counts) == {0, 1}

    def test_run_exit_zero(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(tmp_path / "out")))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert "config hash:" in capsys.readouterr().out

    def test_config_error_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"source": {"kind": "synthetic_sensor"}}))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == 2

    def test_data_error_exits_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "seed": 1,
                    "source": {
                        "kind": "csv",
                        "path": str(tmp_path / "absent.csv"),
                        "schema": "sensor",
                    },
                    "out_dir": str(tmp_path / "out"),
                }
            )
        )
        assert main(["run", "--config", str(cfg_path)]) == 3
        assert "data error" in capsys.readouterr().err

    def test_training_error_exits_4(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path / "out", models={"knn": {"n_neighbors": 100000}})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 4
        assert "training error" in capsys.readouterr().err

    def test_explanation_error_exits_5(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path / "out")
        cfg["explainers"]["shap_exact_cap"] = 8  # ten features exceed the cap
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 5
        assert "explanation error" in capsys.readouterr().err

    def test_fuse_single_table(self, tmp_path, capsys):
        from xaifuse.fixtures import fixture_path

        code = main(
            [
                "fuse",
                str(fixture_path("veremi_binary_lime")),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert "spd_y, pos_x, spd_x, pos_y" in capsys.readouterr().out
        assert (tmp_path / "fused_veremi_binary_lime.csv").exists()

    def test_fuse_three_tables_produces_leveled(self, tmp_path, capsys):
        from xaifuse.fixtures import fixture_path

        paths = [
            str(fixture_path(f"veremi_binary_{m}"))
            for m in ("shap", "lime", "dalex")
        ]
        code = main(["fuse", *paths, "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "leveled: pos_x, spd_y, pos_y, spd_x" in out
        assert (tmp_path / "fused_leveled.csv").exists()

    def test_fuse_malformed_table_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("feature,DT\na,maybe\n")
        assert main(["fuse", str(bad), "--out", str(tmp_path)]) == 3
        assert "data error" in capsys.readouterr().err

    def test_conformance_exits_zero_and_prints_checks(self, tmp_path, capsys):
        assert main(["conformance", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 5
        assert "conformance: PASS" in out

    def test_report_regenerates_summary(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out_dir = tmp_path / "out"
        cfg_path.write_text(json.dumps(tiny_config(out_dir)))
        assert main(["run", "--config", str(cfg_path)]) == 0
        written = (out_dir / "summary.md").read_bytes()
        (out_dir / "summary.md").unlink()
        assert main(["report", "--out", str(out_dir)]) == 0
        assert (out_dir / "summary.md").read_bytes() == written
        assert "## Feature sets" in capsys.readouterr().out

    def test_report_on_empty_dir_exits_3(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path)]) == 3
        assert "data error" in capsys.readouterr().err

    def test_report_on_metrics_without_run_facts_exits_3(self, tmp_path, capsys):
        (tmp_path / "metrics.json").write_text(
            json.dumps({"config_hash": "0", "feature_sets": {}, "classifiers": {}})
        )
        assert main(["report", "--out", str(tmp_path)]) == 3
        assert "lacks the field 'run'" in capsys.readouterr().err
