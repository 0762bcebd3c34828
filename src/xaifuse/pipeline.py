"""End-to-end orchestration: data preparation, model training, explanation,
rank fusion, feature-subset evaluation, and report emission.

Every stage draws its randomness from a sub-seed derived off the master
seed, so a config that hashes the same produces byte-identical artifacts.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from . import __version__
from .data import (
    SENSOR_SCHEMA,
    VEREMI_SCHEMA,
    DataError,
    Dataset,
    FeatureSchema,
    SamplerConfig,
    clean,
    generate_sensor_dataset,
    load_csv,
    map_labels,
    split_and_scale,
    undersample,
)
from .evaluation import (
    ConformanceReport,
    EvaluationError,
    conformance_check,
    conformance_markdown,
    evaluate_feature_subset,
    reference_metrics_markdown,
)
from .explainers import (
    ExplainError,
    ExplainerConfig,
    ImportanceVector,
    lime_global,
    permutation_importance,
    select_background,
    shap_global,
    shap_values,
    to_ranks,
    write_importance_csv,
)
from .fixtures import DATASETS, REFERENCE_TOP_K, load_rank_fixtures
from .fusion import (
    FusedRanking,
    FusionError,
    FusionSpec,
    RankTable,
    top_k,
    two_level_fuse,
    write_fused,
    write_rank_table,
)
from .models import (
    EVALUATION_FAMILIES,
    RANKED_FAMILIES,
    ModelFamily,
    resolve_params,
    train_model,
)
from .seeding import derive_seed, rng_for


class ConfigError(Exception):
    pass


class TrainingError(Exception):
    pass


XAI_METHOD_NAMES = ("shap", "lime", "permutation")

_SCHEMAS = {"veremi": VEREMI_SCHEMA, "sensor": SENSOR_SCHEMA}


# -- configuration ------------------------------------------------------------


@dataclass(frozen=True)
class SourceSpec:
    kind: str  # csv | synthetic_sensor | fixtures
    path: str | None = None
    schema: str | None = None
    features: tuple[str, ...] | None = None
    label_column: str | None = None
    n_rows: int = 10_000
    anomaly_fraction: float = 0.5
    violable_features: tuple[str, ...] | None = None

    def to_dict(self) -> dict:
        d: dict[str, Any] = {"kind": self.kind}
        if self.kind == "csv":
            d["path"] = self.path
            if self.schema is not None:
                d["schema"] = self.schema
            if self.features is not None:
                d["features"] = list(self.features)
                d["label_column"] = self.label_column
        elif self.kind == "synthetic_sensor":
            d["n_rows"] = self.n_rows
            d["anomaly_fraction"] = self.anomaly_fraction
            if self.violable_features is not None:
                d["violable_features"] = list(self.violable_features)
        return d


@dataclass(frozen=True)
class PipelineConfig:
    seed: int
    source: SourceSpec
    mode: str = "binary"
    models: tuple[tuple[ModelFamily, dict], ...] = ()
    classifiers: tuple[tuple[ModelFamily, dict], ...] = ()
    explain_methods: tuple[str, ...] = XAI_METHOD_NAMES
    explainer: dict = field(default_factory=dict)
    max_explained_instances: int = 2000
    fusion: FusionSpec = field(default_factory=lambda: FusionSpec())
    train_fraction: float = 0.7
    undersample: bool = True
    out_dir: str = "xaifuse-out"

    def explainer_config(self, seed: int) -> ExplainerConfig:
        return ExplainerConfig(seed=seed, **self.explainer)

    def to_dict(self) -> dict:
        """Semantic config only; the output directory is delivery plumbing
        and stays out of the hash."""
        return {
            "seed": self.seed,
            "source": self.source.to_dict(),
            "mode": self.mode,
            "models": {f.value: dict(o) for f, o in self.models},
            "independent_classifiers": {f.value: dict(o) for f, o in self.classifiers},
            "explainers": {
                "methods": list(self.explain_methods),
                "max_explained_instances": self.max_explained_instances,
                **self.explainer,
            },
            "fusion": {
                "mode": self.fusion.mode,
                "points": list(self.fusion.points),
                "top_k": self.fusion.top_k,
            },
            "train_fraction": self.train_fraction,
            "undersample": self.undersample,
        }

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return sha256(canonical.encode("utf-8")).hexdigest()

    def known_feature_count(self) -> int | None:
        if self.source.kind == "synthetic_sensor":
            return SENSOR_SCHEMA.feature_count
        if self.source.kind == "csv":
            if self.source.features is not None:
                return len(self.source.features)
            if self.source.schema is not None:
                return _SCHEMAS[self.source.schema].feature_count
        return None


def _parse_family_map(raw: Any, what: str) -> tuple[tuple[ModelFamily, dict], ...]:
    if isinstance(raw, (list, tuple)):
        raw = {name: {} for name in raw}
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a list of names or a name->overrides map")
    out = []
    for name, overrides in raw.items():
        try:
            family = ModelFamily(name)
        except ValueError:
            raise ConfigError(f"unknown model family in {what}: {name!r}") from None
        if overrides is None:
            overrides = {}
        if not isinstance(overrides, dict):
            raise ConfigError(f"overrides for {name} must be a map")
        try:
            resolve_params(family, overrides)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad overrides for {name}: {exc}") from None
        out.append((family, dict(overrides)))
    return tuple(out)


def _parse_source(raw: Any) -> SourceSpec:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError("source must be a map with a 'kind'")
    kind = raw["kind"]
    known = {
        "csv": {"kind", "path", "schema", "features", "label_column"},
        "synthetic_sensor": {"kind", "n_rows", "anomaly_fraction", "violable_features"},
        "fixtures": {"kind"},
    }
    if kind not in known:
        raise ConfigError(f"unknown source kind: {kind!r}")
    extra = set(raw) - known[kind]
    if extra:
        raise ConfigError(f"unknown source fields for {kind}: {sorted(extra)}")
    if kind == "csv":
        if not raw.get("path"):
            raise ConfigError("csv source needs a path")
        schema = raw.get("schema")
        features = raw.get("features")
        if schema is not None and schema not in _SCHEMAS:
            raise ConfigError(f"unknown schema name: {schema!r}")
        if features is not None:
            if not isinstance(features, (list, tuple)) or not features:
                raise ConfigError("features must be a non-empty list")
            if not raw.get("label_column"):
                raise ConfigError("explicit features need a label_column")
        if schema is None and features is None:
            raise ConfigError("csv source needs either a schema name or features")
        return SourceSpec(
            kind="csv",
            path=str(raw["path"]),
            schema=schema,
            features=tuple(features) if features is not None else None,
            label_column=raw.get("label_column"),
        )
    if kind == "synthetic_sensor":
        n_rows = raw.get("n_rows", 10_000)
        fraction = raw.get("anomaly_fraction", 0.5)
        if not isinstance(n_rows, int) or isinstance(n_rows, bool) or n_rows < 2:
            raise ConfigError("n_rows must be an integer >= 2")
        if not isinstance(fraction, (int, float)) or not 0.0 < float(fraction) < 1.0:
            raise ConfigError("anomaly_fraction must lie strictly between 0 and 1")
        violable = raw.get("violable_features")
        return SourceSpec(
            kind="synthetic_sensor",
            n_rows=n_rows,
            anomaly_fraction=float(fraction),
            violable_features=tuple(violable) if violable is not None else None,
        )
    return SourceSpec(kind="fixtures")


_TOP_LEVEL_KEYS = {
    "seed",
    "source",
    "mode",
    "models",
    "independent_classifiers",
    "explainers",
    "fusion",
    "train_fraction",
    "undersample",
    "out_dir",
}

_EXPLAINER_KEYS = {
    "methods",
    "max_explained_instances",
    "background_size",
    "lime_samples_per_instance",
    "lime_kernel_width",
    "lime_instances",
    "lime_ridge",
    "permutation_rounds",
    "shap_exact_cap",
}


def parse_config(raw: Mapping) -> PipelineConfig:
    if not isinstance(raw, Mapping):
        raise ConfigError("config must be a JSON object")
    extra = set(raw) - _TOP_LEVEL_KEYS
    if extra:
        raise ConfigError(f"unknown config fields: {sorted(extra)}")

    seed = raw.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("seed is required and must be an integer")

    source = _parse_source(raw.get("source"))

    mode = raw.get("mode", "binary")
    if mode not in ("binary", "multiclass"):
        raise ConfigError(f"mode must be binary or multiclass, got {mode!r}")

    models = _parse_family_map(
        raw.get("models", [f.value for f in RANKED_FAMILIES]), "models"
    )
    if not models and source.kind != "fixtures":
        raise ConfigError("at least one model must be enabled")

    classifiers = _parse_family_map(
        raw.get("independent_classifiers", [f.value for f in EVALUATION_FAMILIES]),
        "independent_classifiers",
    )

    exp_raw = dict(raw.get("explainers", {}))
    extra = set(exp_raw) - _EXPLAINER_KEYS
    if extra:
        raise ConfigError(f"unknown explainer fields: {sorted(extra)}")
    methods = tuple(exp_raw.pop("methods", XAI_METHOD_NAMES))
    bad = [m for m in methods if m not in XAI_METHOD_NAMES]
    if bad or (not methods and source.kind != "fixtures"):
        raise ConfigError(
            f"explainer methods must be a non-empty subset of {XAI_METHOD_NAMES}"
        )
    max_explained = exp_raw.pop("max_explained_instances", 2000)
    if not isinstance(max_explained, int) or max_explained < 1:
        raise ConfigError("max_explained_instances must be a positive integer")
    try:
        ExplainerConfig(seed=0, **exp_raw)
    except (TypeError, ExplainError) as exc:
        raise ConfigError(f"bad explainer settings: {exc}") from None

    fus_raw = raw.get("fusion", {})
    try:
        fusion = FusionSpec(
            points=tuple(fus_raw.get("points", (3, 2, 1))),
            mode=fus_raw.get("mode", "weighted_points"),
            top_k=fus_raw.get("top_k", 4),
        )
    except FusionError as exc:
        raise ConfigError(f"bad fusion settings: {exc}") from None

    train_fraction = raw.get("train_fraction", 0.7)
    try:
        SamplerConfig(seed=0, train_fraction=train_fraction)
    except DataError as exc:
        raise ConfigError(str(exc)) from None

    cfg = PipelineConfig(
        seed=seed,
        source=source,
        mode=mode,
        models=models,
        classifiers=classifiers,
        explain_methods=methods,
        explainer=exp_raw,
        max_explained_instances=max_explained,
        fusion=fusion,
        train_fraction=float(train_fraction),
        undersample=bool(raw.get("undersample", True)),
        out_dir=str(raw.get("out_dir", "xaifuse-out")),
    )

    p = cfg.known_feature_count()
    if p is not None and cfg.fusion.top_k > p:
        raise ConfigError(
            f"fusion top_k={cfg.fusion.top_k} exceeds the {p} available features"
        )
    return cfg


# -- manifest -----------------------------------------------------------------


@dataclass(frozen=True)
class ExplainCost:
    """Wall time and model rows scored by one (model, method) explanation."""

    model: str
    method: str
    seconds: float
    model_rows: int


@dataclass(frozen=True)
class RunManifest:
    config_hash: str
    version: str
    stages: tuple[tuple[str, float], ...]
    artifacts: tuple[str, ...]
    explanations: tuple[ExplainCost, ...] = ()

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "version": self.version,
            "stages": [{"name": n, "seconds": s} for n, s in self.stages],
            "explanations": [asdict(c) for c in self.explanations],
            "artifacts": list(self.artifacts),
        }


class _StageClock:
    def __init__(self) -> None:
        self.stages: list[tuple[str, float]] = []

    def run(self, name: str, fn):
        t0 = time.perf_counter()
        result = fn()
        self.stages.append((name, time.perf_counter() - t0))
        return result


def _write_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _write_manifest(
    out: Path,
    cfg_hash: str,
    clock: _StageClock,
    artifacts: list[str],
    costs: Sequence[ExplainCost] = (),
) -> RunManifest:
    manifest = RunManifest(
        config_hash=cfg_hash,
        version=__version__,
        stages=tuple(clock.stages),
        artifacts=tuple(sorted(artifacts)),
        explanations=tuple(costs),
    )
    _write_json(out / "manifest.json", manifest.to_dict())
    return manifest


# -- stages -------------------------------------------------------------------


def _load_source(cfg: PipelineConfig) -> Dataset:
    src = cfg.source
    if src.kind == "synthetic_sensor":
        return generate_sensor_dataset(
            n=src.n_rows,
            anomaly_fraction=src.anomaly_fraction,
            seed=cfg.seed,
            violable_features=src.violable_features,
        )
    if src.schema is not None:
        schema = _SCHEMAS[src.schema]
    else:
        schema = FeatureSchema(tuple(src.features), src.label_column)
    return load_csv(src.path, schema)


def _train_all(cfg: PipelineConfig, train: Dataset) -> dict[str, Any]:
    models: dict[str, Any] = {}
    for family, overrides in cfg.models:
        try:
            models[family.value] = train_model(
                family, train.rows, train.labels, seed=cfg.seed, overrides=overrides
            )
        except Exception as exc:
            raise TrainingError(f"training {family.value} failed: {exc}") from exc
    return models


def _explanation_rows(
    cfg: PipelineConfig, train: Dataset
) -> tuple[np.ndarray, np.ndarray]:
    n = train.n_rows
    if n <= cfg.max_explained_instances:
        return train.rows, train.labels
    idx = rng_for(cfg.seed, "explain-rows").choice(
        n, size=cfg.max_explained_instances, replace=False
    )
    idx = np.sort(idx)
    return train.rows[idx], train.labels[idx]


def _explain_all(
    cfg: PipelineConfig,
    models: dict[str, Any],
    train: Dataset,
    rows: np.ndarray,
    labels: np.ndarray,
) -> tuple[dict[str, list[ImportanceVector]], list[ExplainCost]]:
    by_method: dict[str, list[ImportanceVector]] = {m: [] for m in cfg.explain_methods}
    costs: list[ExplainCost] = []
    probe = cfg.explainer_config(seed=0)
    background = train_sd = None
    if "shap" in by_method:
        background = select_background(train.rows, probe.background_size, cfg.seed)
    if "lime" in by_method:
        train_sd = train.rows.std(axis=0)

    def timed(tag: str, method: str, explain) -> None:
        t0 = time.perf_counter()
        vector = explain()
        seconds = time.perf_counter() - t0
        by_method[method].append(vector)
        costs.append(ExplainCost(tag, method, seconds, vector.model_rows))

    for tag, model in models.items():
        if "shap" in by_method:
            timed(
                tag,
                "shap",
                lambda: shap_global(
                    shap_values(
                        model, rows, background, exact_cap=probe.shap_exact_cap
                    ),
                    model_tag=tag,
                ),
            )
        if "lime" in by_method:
            lime_cfg = cfg.explainer_config(
                seed=derive_seed(cfg.seed, "explain", "lime", tag)
            )
            timed(
                tag,
                "lime",
                lambda: lime_global(model, rows, train_sd, lime_cfg, model_tag=tag),
            )
        if "permutation" in by_method:
            timed(
                tag,
                "permutation",
                lambda: permutation_importance(
                    model,
                    rows,
                    labels,
                    rounds=probe.permutation_rounds,
                    seed=derive_seed(cfg.seed, "explain", "permutation", tag),
                    model_tag=tag,
                ),
            )
    return by_method, costs


def _rank_tables(
    schema: FeatureSchema, by_method: dict[str, list[ImportanceVector]]
) -> dict[str, RankTable]:
    tables = {}
    for method, vectors in by_method.items():
        ranks = np.column_stack([to_ranks(v) for v in vectors])
        tables[method] = RankTable(
            feature_names=schema.feature_names,
            sources=tuple(v.model for v in vectors),
            ranks=ranks,
        )
    return tables


def _evaluate_sets(
    cfg: PipelineConfig,
    train: Dataset,
    test: Dataset,
    feature_sets: dict[str, list[str]],
) -> dict[str, dict[str, dict]]:
    results: dict[str, dict[str, dict]] = {}
    for family, overrides in cfg.classifiers:
        per_set = {}
        for set_name, features in feature_sets.items():
            report = evaluate_feature_subset(
                train,
                test,
                features,
                family,
                seed=cfg.seed,
                overrides=overrides,
            )
            per_set[set_name] = report.to_dict()
        results[family.value] = per_set
    return results


# -- report emission -----------------------------------------------------------


def _emit_run_report(
    out: Path,
    cfg: PipelineConfig,
    schema: FeatureSchema,
    train: Dataset,
    test: Dataset,
    by_method: dict[str, list[ImportanceVector]],
    tables: dict[str, RankTable],
    per_method: dict[str, FusedRanking],
    leveled: FusedRanking,
    feature_sets: dict[str, list[str]],
    results: dict[str, dict[str, dict]],
) -> list[str]:
    artifacts: list[str] = []

    def track(name: str) -> Path:
        artifacts.append(name)
        return out / name

    all_vectors = [v for vs in by_method.values() for v in vs]
    write_importance_csv(track("importances.csv"), schema.feature_names, all_vectors)
    for method, table in tables.items():
        write_rank_table(table, track(f"ranks_{method}.csv"))
    for method, fused in per_method.items():
        write_fused(fused, track(f"fused_{method}.csv"))
    write_fused(leveled, track("fused_leveled.csv"))

    # canonical JSON sorts map keys, so the display order travels as lists
    _write_json(
        track("metrics.json"),
        {
            "config_hash": cfg.config_hash(),
            "run": {
                "version": __version__,
                "mode": cfg.mode,
                "source": cfg.source.kind,
                "train_rows": train.n_rows,
                "test_rows": test.n_rows,
                "features": schema.feature_count,
            },
            "feature_set_order": list(feature_sets),
            "classifier_order": list(results),
            "feature_sets": feature_sets,
            "classifiers": results,
        },
    )
    # no fixture comparison applies to user or generated data
    _write_json(track("conformance.json"), None)
    track("summary.md").write_text(render_summary_from_artifacts(out), encoding="utf-8")
    return artifacts


def _run_summary_lines(metrics: dict) -> list[str]:
    run = metrics["run"]
    set_names = metrics["feature_set_order"]
    lines = [
        "# Run summary",
        "",
        f"- config hash: {metrics['config_hash']}",
        f"- toolkit version: {run['version']}",
        f"- mode: {run['mode']}",
        f"- source: {run['source']}",
        f"- rows: {run['train_rows']} train / {run['test_rows']} test",
        f"- features: {run['features']}",
        "",
        "## Feature sets",
        "",
        "| Set | Features |",
        "|---|---|",
    ]
    for name in set_names:
        lines.append(f"| {name} | {', '.join(metrics['feature_sets'][name])} |")
    lines.append("")
    lines.append("## Metrics by independent classifier")
    for classifier in metrics["classifier_order"]:
        per_set = metrics["classifiers"][classifier]
        lines.append("")
        lines.append(f"### {classifier}")
        lines.append("")
        lines.append("| Metric | " + " | ".join(set_names) + " |")
        lines.append("|---|" + "---|" * len(set_names))
        for metric in ("accuracy", "precision", "recall", "f1"):
            cells = " | ".join(f"{per_set[s][metric]:.4f}" for s in set_names)
            lines.append(f"| {metric} | {cells} |")
    lines.append("")
    return lines


def render_summary_from_artifacts(out_dir: str | Path) -> str:
    """The Markdown summary of a run or conformance directory, built from
    its JSON artifacts alone. Runs write exactly this text to summary.md,
    so rebuilding it later reproduces the file byte for byte."""
    out = Path(out_dir)
    metrics_path = out / "metrics.json"
    conf_path = out / "conformance.json"
    if not metrics_path.exists() and not conf_path.exists():
        raise DataError(f"no run artifacts under {out}")

    if metrics_path.exists():
        metrics = json.loads(metrics_path.read_text(encoding="utf-8"))
        try:
            lines = _run_summary_lines(metrics)
        except KeyError as exc:
            raise DataError(f"{metrics_path} lacks the field {exc}") from None
    else:
        lines = ["# Conformance summary", ""]
    conf = None
    if conf_path.exists():
        conf = json.loads(conf_path.read_text(encoding="utf-8"))
    if conf is None:
        lines += [
            "## Conformance",
            "",
            "null (runs on generated or user data have no reference column)",
            "",
        ]
    else:
        lines.append(conformance_markdown(ConformanceReport.from_dict(conf)))
    lines.append(reference_metrics_markdown())
    return "\n".join(lines)


def run_fixture_conformance(out_dir: str | Path, spec: FusionSpec | None = None):
    """Fuse the shipped rank tables and judge them against the reference
    columns; no training involved."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    clock = _StageClock()
    artifacts: list[str] = []

    def fuse_all():
        computed = {}
        for dataset in DATASETS:
            tables = load_rank_fixtures(dataset)
            ds_spec = FusionSpec(
                points=(spec or FusionSpec()).points,
                mode=(spec or FusionSpec()).mode,
                top_k=REFERENCE_TOP_K[dataset],
            )
            computed[dataset] = two_level_fuse(tables, ds_spec)
        return computed

    computed = clock.run("fuse", fuse_all)
    report = clock.run("conformance", lambda: conformance_check(computed))

    for dataset, (per_method, leveled) in computed.items():
        for method, fused in per_method.items():
            name = f"fused_{dataset}_{method}.csv"
            write_fused(fused, out / name)
            artifacts.append(name)
        name = f"fused_{dataset}_leveled.csv"
        write_fused(leveled, out / name)
        artifacts.append(name)

    _write_json(out / "conformance.json", report.to_dict())
    artifacts.append("conformance.json")
    (out / "summary.md").write_text(render_summary_from_artifacts(out), encoding="utf-8")
    artifacts.append("summary.md")

    cfg_hash = sha256(b"fixture-conformance").hexdigest()
    manifest = _write_manifest(out, cfg_hash, clock, artifacts)
    return manifest, report


def run_pipeline(cfg: PipelineConfig, out_dir: str | Path | None = None) -> RunManifest:
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if cfg.source.kind == "fixtures":
        manifest, _ = run_fixture_conformance(out, cfg.fusion)
        return manifest

    clock = _StageClock()
    dataset = clock.run("load", lambda: _load_source(cfg))
    if cfg.fusion.top_k > dataset.schema.feature_count:
        raise ConfigError(
            f"fusion top_k={cfg.fusion.top_k} exceeds the "
            f"{dataset.schema.feature_count} available features"
        )
    dataset = clock.run("clean", lambda: clean(dataset))
    dataset = clock.run("map_labels", lambda: map_labels(dataset, cfg.mode))
    if cfg.undersample:
        dataset = clock.run("undersample", lambda: undersample(dataset, cfg.seed))
    train, test, _scaler = clock.run(
        "split",
        lambda: split_and_scale(
            dataset, SamplerConfig(seed=cfg.seed, train_fraction=cfg.train_fraction)
        ),
    )

    models = clock.run("train", lambda: _train_all(cfg, train))
    rows, labels = _explanation_rows(cfg, train)
    by_method, costs = clock.run(
        "explain", lambda: _explain_all(cfg, models, train, rows, labels)
    )
    tables = clock.run("rank", lambda: _rank_tables(dataset.schema, by_method))
    per_method, leveled = clock.run(
        "fuse", lambda: two_level_fuse(tables, cfg.fusion)
    )

    feature_sets: dict[str, list[str]] = {
        "all_features": list(dataset.schema.feature_names)
    }
    for method, fused in per_method.items():
        feature_sets[method] = [f.name for f in top_k(fused, cfg.fusion.top_k)]
    feature_sets["leveled"] = [f.name for f in top_k(leveled, cfg.fusion.top_k)]

    results = clock.run(
        "evaluate", lambda: _evaluate_sets(cfg, train, test, feature_sets)
    )

    artifacts = clock.run(
        "report",
        lambda: _emit_run_report(
            out,
            cfg,
            dataset.schema,
            train,
            test,
            by_method,
            tables,
            per_method,
            leveled,
            feature_sets,
            results,
        ),
    )
    return _write_manifest(out, cfg.config_hash(), clock, artifacts, costs)
