"""Config validation, orchestration determinism, artifacts, CLI exit codes."""

import json
import math
import re
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from xaifuse.cli import main
from xaifuse.data import SENSOR_SCHEMA, load_csv
from xaifuse.explainers import ExplainerConfig
from xaifuse.fixtures import fixture_path
from xaifuse.fusion import FusionSpec
from xaifuse.pipeline import (
    ConfigError,
    PipelineConfig,
    SourceSpec,
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
        assert len(cfg.independent_classifiers) == 3
        assert cfg.explain_methods == ("shap", "lime", "permutation")
        assert cfg.fusion.top_k == 4
        assert cfg.explainer.max_explained_instances == 2000

    def test_seed_required(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"source": {"kind": "synthetic_sensor"}})
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"seed": True, "source": {"kind": "synthetic_sensor"}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            parse_config(
                {"seed": 1, "source": {"kind": "synthetic_sensor"}, "plots": True}
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
                {
                    "seed": 1,
                    "source": {"kind": "synthetic_sensor"},
                    "models": ["xgboost"],
                }
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

    def test_overrides_take_the_constructor_types(self):
        # an integer is a number wherever the constructor takes a float
        models = {"svm_rbf": {"gamma": 1, "c": 2}, "knn": {"p": 1}, "mlp": {}}
        judges = {"logistic_regression": {"class_weight": None}}
        cfg = parse_config(
            {
                "seed": 1,
                "source": {"kind": "synthetic_sensor"},
                "models": models,
                "independent_classifiers": judges,
            }
        )
        assert {f.value: o for f, o in cfg.models} == models
        assert {f.value: o for f, o in cfg.independent_classifiers} == judges
        parse_config(
            {
                "seed": 1,
                "source": {"kind": "synthetic_sensor"},
                "models": {"svm_rbf": {"gamma": "auto"}},
            }
        )

    def test_tree_criterion_is_not_a_knob(self):
        # the ranked tree is a classifier; a regression criterion only broke runs
        with pytest.raises(ConfigError, match="criterion"):
            parse_config(
                {
                    "seed": 1,
                    "source": {"kind": "synthetic_sensor"},
                    "models": {"decision_tree": {"criterion": "mse"}},
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

    def test_hashes_are_pinned(self):
        # a refactor of the config code must not rename an experiment
        minimal = {"seed": 1, "source": {"kind": "synthetic_sensor"}}
        readme_example = {
            "seed": 42,
            "source": {"kind": "synthetic_sensor", "n_rows": 10000, "anomaly_fraction": 0.5},
            "models": {"random_forest": {"n_estimators": 50}, "knn": {}},
            "independent_classifiers": [
                "gbdt_catboost_like",
                "gbdt_lgbm_like",
                "logistic_regression",
            ],
            "explainers": {"methods": ["shap", "lime", "permutation"], "background_size": 100},
            "fusion": {"points": [3, 2, 1], "top_k": 4},
            "out_dir": "run-out",
        }
        assert parse_config(minimal).config_hash() == (
            "581875ede977945794096ea3371f3004c5316536cc04d8ab487129bd66aa72b6"
        )
        assert parse_config(readme_example).config_hash() == (
            "a245cb1d074f00106e550b8a14e3f497992d4148bd95fe617328eee8bb324aea"
        )

    def test_resolved_defaults(self):
        cfg = parse_config({"seed": 0, "source": {"kind": "synthetic_sensor"}})
        assert asdict(cfg) == {
            "seed": 0,
            "source": {
                "kind": "synthetic_sensor",
                "path": None,
                "schema": None,
                "features": None,
                "label_column": None,
                "n_rows": 10_000,
                "anomaly_fraction": 0.5,
                "violable_features": None,
            },
            "mode": "binary",
            "models": (
                ("decision_tree", {}),
                ("random_forest", {}),
                ("mlp", {}),
                ("knn", {}),
                ("svm_rbf", {}),
                ("adaboost", {}),
            ),
            "independent_classifiers": (
                ("gbdt_catboost_like", {}),
                ("gbdt_lgbm_like", {}),
                ("logistic_regression", {}),
            ),
            "explainers": {},
            "fusion": {"points": (3.0, 2.0, 1.0), "mode": "weighted_points", "top_k": 4},
            "train_fraction": 0.7,
            "undersample": True,
            "out_dir": "xaifuse-out",
            "explainer": {
                "methods": ("shap", "lime", "permutation"),
                "max_explained_instances": 2000,
                "background_size": 100,
                "lime_samples_per_instance": 1000,
                "lime_kernel_width": None,
                "lime_ridge": 1e-3,
                "permutation_rounds": 10,
            },
            "sampler": {"seed": 0, "train_fraction": 0.7},
        }

    def test_readme_config_reference_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        reference = readme.split("## Config reference\n")[1].split("\n## ")[0]
        documented = set(re.findall(r"^\| `([\w.]+)` \|", reference, re.M))
        accepted = {f.name for f in fields(PipelineConfig) if f.init}
        for section, cls in (
            ("source", SourceSpec),
            ("explainers", ExplainerConfig),
            ("fusion", FusionSpec),
        ):
            accepted |= {f"{section}.{f.name}" for f in fields(cls)}
        assert documented == accepted


# (path to the key, value): each is refused before anything is written
MALFORMED = {
    "fusion not a map": (("fusion",), []),
    "explainers a string": (("explainers",), "foo"),
    "explainers a list": (("explainers",), ["shap"]),
    "top_k a string": (("fusion", "top_k"), "4"),
    "points with a string": (("fusion", "points"), [3, "a"]),
    "train_fraction a string": (("train_fraction",), "0.5"),
    "unknown fusion key": (("fusion", "topk"), 3),
    "undersample a string": (("undersample",), "no"),
    "top_k a float": (("fusion", "top_k"), 2.5),
    "top_k a bool": (("fusion", "top_k"), True),
    "max_explained_instances a bool": (
        ("explainers", "max_explained_instances"),
        True,
    ),
    "permutation_rounds a bool": (("explainers", "permutation_rounds"), True),
    "violable_features a string": (("source", "violable_features"), "Speed"),
    "repeated method": (("explainers", "methods"), ["shap", "shap"]),
    "model name a list": (("models",), [["knn"]]),
    "max_iter a string": (
        ("independent_classifiers",),
        {"logistic_regression": {"max_iter": "5"}},
    ),
    "negative c": (("independent_classifiers",), {"logistic_regression": {"c": -1}}),
    "n_neighbors a string": (("models",), {"knn": {"n_neighbors": "3"}}),
    "n_neighbors a bool": (("models",), {"knn": {"n_neighbors": True}}),
    "gamma neither number nor string": (("models",), {"svm_rbf": {"gamma": [1]}}),
    "gamma a string other than auto": (("models",), {"svm_rbf": {"gamma": "fast"}}),
    "unknown violable feature": (("source", "violable_features"), ["Nope"]),
    "removed key shap_exact_cap": (("explainers", "shap_exact_cap"), 16),
    "removed key lime_instances": (("explainers", "lime_instances"), 2000),
    "no violable feature": (("source", "violable_features"), []),
    "schema and features": (
        ("source",),
        {
            "kind": "csv",
            "path": "input.csv",
            "schema": "sensor",
            "features": ["Formality", "Location", "Frequency", "Speed"],
            "label_column": "label",
        },
    ),
}


@pytest.mark.parametrize("where, value", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_config_exits_2_before_writing(tmp_path, capsys, where, value):
    cfg = tiny_config(tmp_path / "out")
    section = cfg
    for key in where[:-1]:
        section = section[key]
    section[where[-1]] = value
    with pytest.raises(ConfigError):
        parse_config(cfg)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# (section, key) of a number; a Python NaN or infinity there is refused
NON_FINITE = {
    "mlp.learning_rate": (("models", "mlp"), "learning_rate", math.nan),
    "svm_rbf.c": (("models", "svm_rbf"), "c", math.inf),
    "svm_rbf.gamma": (("models", "svm_rbf"), "gamma", math.nan),
    "svm_rbf.tol": (("models", "svm_rbf"), "tol", math.nan),
    "adaboost.learning_rate": (("models", "adaboost"), "learning_rate", math.nan),
    "gbdt_lgbm_like.learning_rate": (
        ("independent_classifiers", "gbdt_lgbm_like"),
        "learning_rate",
        math.nan,
    ),
    "explainers.lime_ridge": (("explainers",), "lime_ridge", math.inf),
    "explainers.lime_kernel_width": (("explainers",), "lime_kernel_width", math.nan),
}


@pytest.mark.parametrize("where, key, value", NON_FINITE.values(), ids=list(NON_FINITE))
def test_non_finite_number_refused(tmp_path, where, key, value):
    # as perfbench hands it over: a Python value, not a JSON file
    cfg = tiny_config(tmp_path / "out")
    section = cfg
    for name in where:
        if isinstance(section.get(name), list):
            section[name] = {family: {} for family in section[name]}
        section = section.setdefault(name, {})
    section[key] = value
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        parse_config(cfg)


SENSOR_HEADER = ",".join([*SENSOR_SCHEMA.feature_names, "label"]).encode()
SENSOR_RECORD = b"1,1,1,60,1,2,0.5,10,100,1,0"
LONG_CELL = b'"' + b"1" * 200_000 + b'"'

# entry point, the content of the file it reads (None: a directory, "absent":
# no file), and a fragment of the one stderr line
UNREADABLE = {
    "config absent": ("config", "absent", "no such file"),
    "config directory": ("config", None, "Is a directory"),
    "config not utf-8": ("config", b'{"seed": 1\xff}', "is not valid JSON"),
    "config not json": ("config", b"{not json", "is not valid JSON"),
    "data directory": ("data", None, "Is a directory"),
    "data header not utf-8": (
        "data",
        SENSOR_HEADER.replace(b"label", b"lab\xffel") + b"\n" + SENSOR_RECORD + b"\n",
        "line 1 of",
    ),
    "data body not utf-8": (
        "data",
        SENSOR_HEADER + b"\n" + SENSOR_RECORD + b"\r\n" + SENSOR_RECORD + b"\xff\n",
        "line 3 of",
    ),
    "data long cell": (
        "data",
        SENSOR_HEADER + b"\n" + LONG_CELL + SENSOR_RECORD[1:] + b"\n",
        "line 2 of",
    ),
    "fuse directory": ("fuse", None, "Is a directory"),
    "fuse not utf-8": ("fuse", b"feature,DT\na,1\nb\xff,2\n", "line 3 of"),
    "fuse long cell": ("fuse", b"feature,DT\n" + LONG_CELL + b",1\n", "line 2 of"),
    "report directory": ("report", None, "Is a directory"),
    "report not utf-8": ("report", b'{"run": "\xff"}', "is not valid JSON"),
}


@pytest.mark.parametrize("entry, content, says", UNREADABLE.values(), ids=list(UNREADABLE))
def test_unreadable_input_exits_with_one_line(tmp_path, capsys, entry, content, says):
    out = tmp_path / "out"
    if entry == "report":
        out.mkdir()
        bad = out / "metrics.json"
    else:
        bad = tmp_path / ("input.csv" if entry in ("data", "fuse") else "cfg.json")
    if content is None:
        bad.mkdir()
    elif content != "absent":
        bad.write_bytes(content)
    cfg = tmp_path / "cfg.json"
    if entry == "data":
        source = {"kind": "csv", "path": str(bad), "schema": "sensor"}
        cfg.write_text(json.dumps(tiny_config(out, source=source)))
    argv = {
        "config": ["run", "--config", str(cfg)],
        "data": ["run", "--config", str(cfg)],
        "fuse": ["fuse", str(bad), "--out", str(out)],
        "report": ["report", "--out", str(out)],
    }[entry]
    assert main(argv) == (2 if entry == "config" else 3)
    err = capsys.readouterr().err
    assert err.startswith("config error: " if entry == "config" else "data error: ")
    assert err.count("\n") == 1
    assert str(bad) in err and says in err
    assert "Traceback" not in err
    if entry == "report":
        assert list(out.iterdir()) == [bad]
    else:
        assert not out.exists()


# (section, family, hyperparameter, value): each lies outside the range that
# the family's constructor takes
OUT_OF_RANGE = [
    ("models", "random_forest", "max_depth", -1),
    ("models", "random_forest", "min_samples_leaf", 0),
    ("models", "adaboost", "base_max_depth", -1),
    ("models", "adaboost", "base_min_samples_leaf", 0),
    ("independent_classifiers", "gbdt_lgbm_like", "max_depth", -1),
    ("independent_classifiers", "gbdt_lgbm_like", "min_samples_leaf", 0),
    ("models", "mlp", "batch_size", 0),
    ("models", "mlp", "epochs", -2),
    ("models", "mlp", "learning_rate", -1.0),
    ("models", "svm_rbf", "tol", -1.0),
    ("models", "svm_rbf", "updates_per_row", -1),
    ("models", "svm_rbf", "gamma", -1.0),
    ("independent_classifiers", "logistic_regression", "max_iter", 0),
]


@pytest.mark.parametrize(
    "section, family, key, value",
    OUT_OF_RANGE,
    ids=[f"{family}.{key}={value}" for _, family, key, value in OUT_OF_RANGE],
)
def test_out_of_range_hyperparameter_is_a_config_error(section, family, key, value):
    raw = {"seed": 1, "source": {"kind": "synthetic_sensor"}}
    raw[section] = {family: {key: value}}
    with pytest.raises(ConfigError, match=f"bad overrides for {family}"):
        parse_config(raw)


# JSON numbers that RFC 8259 does not have, which Python's json module reads
NON_FINITE = {
    "points NaN": (("fusion", "points"), [float("nan"), 2, 1]),
    "learning_rate Infinity": (("models",), {"mlp": {"learning_rate": float("inf")}}),
    "seed -Infinity": (("seed",), float("-inf")),
}


@pytest.mark.parametrize("where, value", NON_FINITE.values(), ids=list(NON_FINITE))
def test_non_finite_config_number_exits_2_before_writing(tmp_path, capsys, where, value):
    cfg = tiny_config(tmp_path / "out")
    section = cfg
    for key in where[:-1]:
        section = section[key]
    section[where[-1]] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))  # writes NaN, Infinity, -Infinity
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "is not valid JSON" in err
    assert not (tmp_path / "out").exists()


# entry point, and whether the path it cannot write is an existing directory
# (or else an existing file)
UNWRITABLE = {
    "generate": ("generate", True),
    "conformance": ("conformance", False),
    "fuse": ("fuse", False),
    "run": ("run", False),
    "report": ("report", True),
}


@pytest.mark.parametrize("entry, is_dir", UNWRITABLE.values(), ids=list(UNWRITABLE))
def test_unwritable_output_exits_2_with_one_line(tmp_path, capsys, entry, is_dir):
    out = tmp_path / "out"
    bad = out / "summary.md" if entry == "report" else out
    if entry == "report":
        out.mkdir()
        (out / "conformance.json").write_text("null\n")
    if is_dir:
        bad.mkdir()
    else:
        bad.write_text("taken\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_config(tmp_path / "unused")))
    argv = {
        "generate": ["generate", "--out", str(out), "--seed", "3", "--n", "40"],
        "conformance": ["conformance", "--out", str(out)],
        "fuse": ["fuse", str(fixture_path("sensor_shap")), "--out", str(out)],
        "run": ["run", "--config", str(cfg), "--out", str(out)],
        "report": ["report", "--out", str(out)],
    }[entry]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: cannot write {bad}: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert bad.is_dir() == is_dir


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
        # 6 explained rows of 10 features, 8 background rows, 2 rounds
        costs = listed["explanations"]
        assert [(c["model"], c["method"]) for c in costs] == [
            ("decision_tree", "shap"),
            ("decision_tree", "permutation"),
            ("knn", "shap"),
            ("knn", "permutation"),
        ]
        assert all(isinstance(c["seconds"], float) and c["seconds"] >= 0 for c in costs)
        rows = {(c["model"], c["method"]): c["model_rows"] for c in costs}
        assert rows[("decision_tree", "shap")] == 6 + 8  # TreeSHAP scores no coalition
        assert 6 + 8 < rows[("knn", "shap")] < 6 + 8 + 6 * 8 * 2**10
        assert rows[("decision_tree", "permutation")] == 6 * (1 + 10 * 2)
        assert rows[("knn", "permutation")] == 6 * (1 + 10 * 2)

    def test_manifest_counts_lime_rows(self, tmp_path):
        explainers = {
            "methods": ["lime"],
            "max_explained_instances": 4,
            "lime_samples_per_instance": 50,
        }
        cfg = parse_config(
            tiny_config(tmp_path / "run", models=["decision_tree"], explainers=explainers)
        )
        run_pipeline(cfg)
        listed = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert [(c["model"], c["method"], c["model_rows"]) for c in listed["explanations"]] == [
            ("decision_tree", "lime", 4 * 50)
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


def test_judges_fit_each_ordered_feature_list_once(monkeypatch):
    import xaifuse.pipeline as P

    calls = []

    class Report:
        def __init__(self, features):
            self.features = list(features)

        def to_dict(self):
            return {"features": self.features}

    def judge(train, test, features, family, seed, overrides):
        calls.append((family, tuple(features)))
        return Report(features)

    monkeypatch.setattr(P, "evaluate_feature_subset", judge)
    cfg = parse_config(
        {
            "seed": 1,
            "source": {"kind": "synthetic_sensor"},
            "independent_classifiers": ["logistic_regression", "gbdt_lgbm_like"],
        }
    )
    sets = {"all": ["A", "B", "C"], "shap": ["B", "A"], "lime": ["B", "A"], "leveled": ["A", "B"]}
    results = P._evaluate_sets(cfg, None, None, sets)
    # the same features in another order are judged apart
    assert len(calls) == len(set(calls)) == 2 * 3
    for per_set in results.values():
        assert list(per_set) == list(sets)
        assert {name: r["features"] for name, r in per_set.items()} == sets


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

    @pytest.mark.parametrize("fraction", ["nan", "inf", "1.5"])
    def test_generate_refuses_a_fraction_outside_0_1(self, tmp_path, capsys, fraction):
        out = tmp_path / "sensor.csv"
        argv = ["generate", "--out", str(out), "--seed", "3"]
        assert main([*argv, "--anomaly-fraction", fraction]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert not out.exists()

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

    def test_overrides_on_a_non_object_config_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1, 2]")
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert main(["run", "--config", str(cfg_path), "--seed", "3"]) == 2
        assert main(["run", "--config", str(cfg_path), "--out", "o"]) == 2
        assert capsys.readouterr().err.count("config error") == 3

    def test_tree_criterion_override_exits_2(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path / "out", models={"decision_tree": {"criterion": "mse"}})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "criterion" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_judge_out_of_range_exits_2_before_training(self, tmp_path, capsys):
        judges = {"gbdt_lgbm_like": {"max_depth": -1}}
        cfg = tiny_config(tmp_path / "out", independent_classifiers=judges)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bad overrides for gbdt_lgbm_like")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

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
        assert not (tmp_path / "out").exists()

    def test_training_error_exits_4(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path / "out", models={"knn": {"n_neighbors": 100000}})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 4
        assert "training error" in capsys.readouterr().err

    def test_explanation_error_exits_5(self, tmp_path, capsys):
        # the mlp reads all 17 continuous features, so every (instance,
        # background row) pair has 17 players, one more than exact SHAP takes
        names = [f"f{j}" for j in range(17)]
        rows = np.random.default_rng(5).normal(size=(60, 17))
        data = tmp_path / "wide.csv"
        lines = [",".join([*names, "label"])]
        lines += [",".join([*map(repr, r), str(i % 2)]) for i, r in enumerate(rows.tolist())]
        data.write_text("\n".join(lines) + "\n")
        source = {"kind": "csv", "path": str(data), "features": names}
        source["label_column"] = "label"
        cfg = tiny_config(tmp_path / "out", source=source, models=["mlp"])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("explanation error: ") and err.count("\n") == 1
        assert "17 players" in err

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

    @pytest.mark.parametrize(
        "flags",
        [["--points", "1,2,3"], ["--top-k", "0"], ["--points", "nan,2,1"], ["--points", "inf,2,1"]],
    )
    def test_fuse_bad_flags_exit_2(self, tmp_path, capsys, flags):
        from xaifuse.fixtures import fixture_path

        table = str(fixture_path("veremi_binary_lime"))
        assert main(["fuse", table, *flags, "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_fuse_top_k_beyond_table_exits_3(self, tmp_path, capsys):
        from xaifuse.fixtures import fixture_path

        table = str(fixture_path("veremi_binary_lime"))  # six features
        out = tmp_path / "o"
        assert main(["fuse", table, "--top-k", "7", "--out", str(out)]) == 3
        assert "data error" in capsys.readouterr().err
        assert not out.exists()

    def test_fuse_three_tables_top_k_beyond_exits_3(self, tmp_path, capsys):
        from xaifuse.fixtures import fixture_path

        tables = [str(fixture_path(f"veremi_binary_{m}")) for m in ("shap", "lime", "dalex")]
        out = tmp_path / "o"
        assert main(["fuse", *tables, "--top-k", "7", "--out", str(out)]) == 3
        assert "data error" in capsys.readouterr().err
        assert not out.exists()

    def test_fuse_malformed_table_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("feature,DT\na,maybe\n")
        assert main(["fuse", str(bad), "--out", str(tmp_path)]) == 3
        assert "data error" in capsys.readouterr().err

    def test_fuse_ragged_table_exits_3(self, tmp_path, capsys):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("feature,m1,m2\nb,2\n")
        assert main(["fuse", str(ragged), "--out", str(tmp_path)]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_fuse_one_table_writes_only_its_fusion(self, tmp_path, capsys):
        table = tmp_path / "leveled.csv"
        table.write_bytes(fixture_path("sensor_shap").read_bytes())
        out = tmp_path / "o"
        assert main(["fuse", str(table), "--out", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == ["fused_leveled.csv"]
        assert capsys.readouterr().out.startswith("leveled: ")

    @pytest.mark.parametrize("names", [("shap", "leveled"), ("a/shap", "b/shap")])
    def test_fuse_ambiguous_table_names_exit_3(self, tmp_path, capsys, names):
        # each table's fusion and the leveled one must get their own file
        paths = []
        for name, method in zip(names, ("shap", "lime")):
            path = tmp_path / f"{name}.csv"
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(fixture_path(f"sensor_{method}").read_bytes())
            paths.append(str(path))
        out = tmp_path / "o"
        assert main(["fuse", *paths, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_fixtures_source_kind_exits_2(self, tmp_path, capsys):
        # the shipped tables are judged by `xaifuse conformance` alone
        cfg_path = tmp_path / "cfg.json"
        cfg = {"seed": 0, "source": {"kind": "fixtures"}, "out_dir": str(tmp_path / "o")}
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "unknown source kind" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    def test_report_on_conformance_without_a_field_exits_3(self, tmp_path, capsys):
        (tmp_path / "conformance.json").write_text(json.dumps({"passed": True}))
        assert main(["report", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "conformance.json lacks the field 'required'" in err

    @pytest.mark.parametrize("name", ["metrics.json", "conformance.json"])
    def test_report_on_a_document_that_is_not_json_exits_3(self, tmp_path, capsys, name):
        (tmp_path / name).write_text("{not json")
        assert main(["report", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert f"{name} is not valid JSON" in err

    @pytest.mark.parametrize("name", ["metrics.json", "conformance.json"])
    def test_report_on_a_non_finite_number_exits_3(self, tmp_path, capsys, name):
        (tmp_path / name).write_text('{"passed": Infinity}')
        assert main(["report", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert f"{name} is not valid JSON: Infinity is not a JSON number" in err

    @pytest.mark.parametrize("name", ["metrics.json", "conformance.json"])
    def test_report_on_a_document_that_is_not_an_object_exits_3(self, tmp_path, capsys, name):
        (tmp_path / name).write_text("[1]")
        assert main(["report", "--out", str(tmp_path)]) == 3
        assert f"{name} does not hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, field, value",
        [
            ("metrics.json", "run", 1),
            ("metrics.json", "accuracy", "high"),
            ("conformance.json", "required", 5),
        ],
        ids=["run an int", "accuracy a string", "required an int"],
    )
    def test_report_on_a_mistyped_field_exits_3(self, tmp_path, capsys, name, field, value):
        scores = {"accuracy": 0.5, "precision": 0.5, "recall": 0.5, "f1": 0.5}
        run = dict.fromkeys(["version", "mode", "source", "features"], "x")
        docs = {
            "metrics.json": {
                "config_hash": "0",
                "run": {**run, "train_rows": 8, "test_rows": 2},
                "feature_set_order": ["shap"],
                "classifier_order": ["judge"],
                "feature_sets": {"shap": ["Speed"]},
                "classifiers": {"judge": {"shap": scores}},
            },
            "conformance.json": {"passed": True, "required": [], "cells": []},
        }
        (tmp_path / name).write_text(json.dumps(docs[name]))
        assert main(["report", "--out", str(tmp_path)]) == 0
        holder = scores if field == "accuracy" else docs[name]
        holder[field] = value
        (tmp_path / name).write_text(json.dumps(docs[name]))
        assert main(["report", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {tmp_path / name} holds a field of the wrong type")
        assert err.count("\n") == 1

    def test_report_on_metrics_without_run_facts_exits_3(self, tmp_path, capsys):
        (tmp_path / "metrics.json").write_text(
            json.dumps({"config_hash": "0", "feature_sets": {}, "classifiers": {}})
        )
        assert main(["report", "--out", str(tmp_path)]) == 3
        assert "lacks the field 'run'" in capsys.readouterr().err
