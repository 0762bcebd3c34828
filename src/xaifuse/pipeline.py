"""End-to-end orchestration: data preparation, model training, explanation,
rank fusion, feature-subset evaluation, and report emission.

Every stage draws its randomness from a sub-seed derived off the master
seed, so a config that hashes the same produces byte-identical artifacts.
"""

from __future__ import annotations

import json
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from hashlib import sha256
from pathlib import Path
from types import UnionType
from typing import Any, Mapping, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .artifacts import make_dir, read_json, write_json, write_text
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
    conformance_check,
    conformance_markdown,
    evaluate_feature_subset,
    reference_metrics_markdown,
)
from .explainers import (
    XAI_METHOD_NAMES,
    ExplainError,
    ExplainerConfig,
    ImportanceVector,
    lime_global,
    permutation_importance,
    select_background,
    shap_global,
    shap_values,
    write_importance_csv,
)
from .fixtures import DATASETS, REFERENCE_TOP_K, load_rank_fixtures
from .fusion import (
    FusedRanking,
    FusionError,
    FusionSpec,
    RankTable,
    to_ranks,
    top_k,
    two_level_fuse,
    write_fusion,
    write_rank_table,
)
from .models import (
    EVALUATION_FAMILIES,
    RANKED_FAMILIES,
    ModelFamily,
    family_class,
    resolve_params,
    train_model,
)
from .seeding import derive_seed, subsample


class ConfigError(Exception):
    pass


class TrainingError(Exception):
    pass


_SCHEMAS = {"veremi": VEREMI_SCHEMA, "sensor": SENSOR_SCHEMA}


# -- configuration ------------------------------------------------------------
#
# The dataclasses here, with ExplainerConfig, FusionSpec and SamplerConfig's
# train_fraction, are the config schema: each init field is a key, its
# annotation the JSON type and its default the value of an absent key.
# `parse_config` walks them; the README's config reference tabulates them.

# metadata of the fields that only a source of one kind takes
_CSV = {"kind": "csv"}
_SENSOR = {"kind": "synthetic_sensor"}


@dataclass(frozen=True)
class SourceSpec:
    kind: str  # csv | synthetic_sensor
    path: str | None = field(default=None, metadata=_CSV)
    schema: str | None = field(default=None, metadata=_CSV)
    features: tuple[str, ...] | None = field(default=None, metadata=_CSV)
    label_column: str | None = field(default=None, metadata=_CSV)
    n_rows: int = field(default=10_000, metadata=_SENSOR)
    anomaly_fraction: float = field(default=0.5, metadata=_SENSOR)
    violable_features: tuple[str, ...] | None = field(default=None, metadata=_SENSOR)

    def __post_init__(self) -> None:
        if self.kind not in ("csv", "synthetic_sensor"):
            raise ConfigError(f"unknown source kind: {self.kind!r}")
        if self.kind == "csv":
            if not self.path:
                raise ConfigError("csv source needs a path")
            if self.schema is None and self.features is None:
                raise ConfigError("csv source needs either a schema name or features")
            if self.schema is not None and self.features is not None:
                raise ConfigError("schema and features are mutually exclusive")
            if self.schema is not None and self.schema not in _SCHEMAS:
                raise ConfigError(f"unknown schema name: {self.schema!r}")
            if self.features == ():
                raise ConfigError("features must be a non-empty list")
            if self.features is not None and not self.label_column:
                raise ConfigError("explicit features need a label_column")
            if self.features is None and self.label_column is not None:
                raise ConfigError("label_column requires features")
            self.feature_schema()  # refuses repeated features or a label among them
        if self.kind == "synthetic_sensor":
            if self.n_rows < 2:
                raise ConfigError("n_rows must be at least 2")
            if not 0.0 < self.anomaly_fraction < 1.0:
                raise ConfigError("anomaly_fraction must lie strictly between 0 and 1")
            if self.violable_features == ():
                raise ConfigError("violable_features must be a non-empty list")
            unknown = set(self.violable_features or ()) - set(SENSOR_SCHEMA.feature_names)
            if unknown:
                raise ConfigError(f"unknown violable_features: {sorted(unknown)}")

    def feature_schema(self) -> FeatureSchema:
        """The schema of the source's rows. Both the parse-time top_k check
        and the load take it from here."""
        if self.kind == "synthetic_sensor":
            return SENSOR_SCHEMA
        if self.schema is not None:
            return _SCHEMAS[self.schema]
        return FeatureSchema(self.features, self.label_column)


FamilyOverrides = tuple[tuple[ModelFamily, dict], ...]


def _family_overrides(raw: Any, what: str) -> FamilyOverrides:
    if isinstance(raw, (list, tuple)):
        if not all(isinstance(name, str) for name in raw):
            raise ConfigError(f"{what} must list family names, got {raw!r}")
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
        cls = family_class(family)
        try:
            params = resolve_params(family, overrides)
            hints = get_type_hints(cls.__init__)
            for key, value in overrides.items():
                _typed(value, hints[key], f"{name}.{key}")
            cls(**params)  # the constructor's own range checks
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad overrides for {name}: {exc}") from None
        out.append((family, dict(overrides)))
    return tuple(out)


def _explainer_overrides(raw: Any, what: str) -> dict:
    return _entries(ExplainerConfig, raw, "explainer")


@dataclass(frozen=True)
class PipelineConfig:
    """A validated config of a run on generated or CSV data; the shipped
    rank tables are judged by `run_fixture_conformance`, which takes no
    config. `models`, `independent_classifiers` and `explainers` keep what
    the config wrote, as the hash covers only that; `explainer` and
    `sampler` are resolved from the fields."""

    seed: int
    source: SourceSpec
    mode: str = "binary"
    models: FamilyOverrides = field(
        default=tuple((f, {}) for f in RANKED_FAMILIES),
        metadata={"parse": _family_overrides},
    )
    independent_classifiers: FamilyOverrides = field(
        default=tuple((f, {}) for f in EVALUATION_FAMILIES),
        metadata={"parse": _family_overrides},
    )
    explainers: dict = field(
        default_factory=dict, metadata={"parse": _explainer_overrides}
    )
    fusion: FusionSpec = field(default_factory=FusionSpec)
    train_fraction: float = SamplerConfig.train_fraction
    undersample: bool = True
    out_dir: str = "xaifuse-out"
    explainer: ExplainerConfig = field(init=False)
    sampler: SamplerConfig = field(init=False)

    def __post_init__(self) -> None:
        if self.mode not in ("binary", "multiclass"):
            raise ConfigError(f"mode must be binary or multiclass, got {self.mode!r}")
        explainer = _built(ExplainerConfig, "explainer", self.explainers)
        object.__setattr__(self, "explainer", explainer)
        sampler = _built(
            SamplerConfig,
            "sampler",
            {"seed": self.seed, "train_fraction": self.train_fraction},
        )
        object.__setattr__(self, "sampler", sampler)
        if not self.models:
            raise ConfigError("at least one model must be enabled")
        if not explainer.methods:
            raise ConfigError("explainer methods must not be empty")
        schema = self.source.feature_schema()
        if self.fusion.top_k > schema.feature_count:
            raise ConfigError(
                f"fusion top_k={self.fusion.top_k} exceeds the "
                f"{schema.feature_count} available features"
            )

    @property
    def explain_methods(self) -> tuple[str, ...]:
        return self.explainer.methods

    def config_hash(self) -> str:
        """sha256 of the canonical JSON of every key but out_dir, which never
        changes what a run computes. Model hyperparameters and explainer
        settings enter as written, every other key as resolved."""
        doc = _resolved(self)
        del doc["out_dir"]
        doc["models"] = {f.value: o for f, o in self.models}
        doc["independent_classifiers"] = {
            f.value: o for f, o in self.independent_classifiers
        }
        doc["explainers"] = {
            "methods": self.explainer.methods,
            "max_explained_instances": self.explainer.max_explained_instances,
            **self.explainers,
        }
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return sha256(canonical.encode("utf-8")).hexdigest()


def _keys(cls, kind: Any) -> dict[str, Any]:
    """The init fields of the dataclass `cls` that a section of this kind
    takes, by name."""
    return {
        f.name: f
        for f in fields(cls)
        if f.init and f.metadata.get("kind", kind) == kind
    }


def _resolved(section) -> dict:
    """A section's keys with their values, nested sections likewise; keys
    whose value is None are left out."""
    out = {}
    for name in _keys(type(section), getattr(section, "kind", None)):
        value = getattr(section, name)
        if value is not None:
            out[name] = _resolved(value) if is_dataclass(value) else value
    return out


def _built(cls, where: str, values: Mapping):
    """cls(**values), a failed range check raised as a ConfigError."""
    try:
        return cls(**values)
    except (DataError, ExplainError, FusionError) as exc:
        raise ConfigError(f"bad {where} settings: {exc}") from None


def _entries(cls, raw: Any, where: str) -> dict:
    """The entries of the config section `raw`, checked against the
    dataclass `cls`: `raw` is a map, each key names a field that sections of
    its kind take, and each value has the type that `_typed` reads off the
    field's annotation, unless the field's metadata names a parser."""
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{where} must be a map, got {raw!r}")
    keys = _keys(cls, raw.get("kind"))
    extra = set(raw) - set(keys)
    if extra:
        raise ConfigError(f"unknown {where} fields: {sorted(extra)}")
    for name, f in keys.items():
        if name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where} lacks the required key {name!r}")
    hints = get_type_hints(cls)
    out = {}
    for name, value in raw.items():
        parse = keys[name].metadata.get("parse")
        out[name] = parse(value, name) if parse else _typed(value, hints[name], name)
    return out


_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _typed(value: Any, hint: Any, name: str) -> Any:
    """`value` if it has the JSON type that the annotation `hint` names: an
    integer is never a boolean, a number may be written as an integer, a
    tuple is written as a list and a dataclass as a section, and a number
    is finite. A union such as `X | None` or `float | str` takes a value of
    any of its types."""
    if is_dataclass(hint):
        return _built(hint, name, _entries(hint, value, name))
    options = get_args(hint) if get_origin(hint) in (Union, UnionType) else (hint,)
    if value is None and type(None) in options:
        return None
    options = tuple(o for o in options if o is not type(None))
    if get_origin(options[0]) is tuple:  # tuple[X, ...] or tuple[X, ...] | None
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        (entry, _) = get_args(options[0])
        return tuple(_typed(v, entry, f"{name} entry") for v in value)
    if not any(_is_json_type(value, o) for o in options):
        wanted = " or ".join(_JSON_TYPES[o] for o in options)
        raise ConfigError(f"{name} must be {wanted}, got {value!r}")
    if isinstance(value, float) and not np.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return value


def _is_json_type(value: Any, hint: type) -> bool:
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def parse_config(raw: Any) -> PipelineConfig:
    """The run config that the JSON value `raw` describes, read by one walk
    over PipelineConfig and the section dataclasses it holds. Anything the
    schema does not take raises ConfigError."""
    return _typed(raw, PipelineConfig, "config")


# -- manifest -----------------------------------------------------------------


@dataclass(frozen=True)
class ExplainCost:
    """Wall time and model rows scored by one (model, method) explanation."""

    model: str
    method: str
    seconds: float
    model_rows: int


@dataclass(frozen=True)
class Stage:
    """Wall time of one pipeline stage."""

    name: str
    seconds: float


@dataclass(frozen=True)
class RunManifest:
    """manifest.json holds exactly these fields."""

    config_hash: str
    version: str
    stages: tuple[Stage, ...]
    artifacts: tuple[str, ...]
    explanations: tuple[ExplainCost, ...] = ()


class _StageClock:
    def __init__(self) -> None:
        self.stages: list[Stage] = []

    def run(self, name: str, fn):
        t0 = time.perf_counter()
        result = fn()
        self.stages.append(Stage(name, time.perf_counter() - t0))
        return result


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
    write_json(out / "manifest.json", asdict(manifest))
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
    return load_csv(src.path, src.feature_schema())


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
    size = cfg.explainer.max_explained_instances
    idx = subsample(train.n_rows, size, cfg.seed, "explain-rows")
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
    settings = cfg.explainer
    background = train_sd = None
    if "shap" in by_method:
        background = select_background(train.rows, settings.background_size, cfg.seed)
    if "lime" in by_method:
        train_sd = train.rows.std(axis=0)

    for tag, model in models.items():
        for method in (m for m in XAI_METHOD_NAMES if m in by_method):
            seed = derive_seed(cfg.seed, "explain", method, tag)  # shap takes none
            t0 = time.perf_counter()
            if method == "shap":
                values = shap_values(model, rows, background)
                vector = shap_global(values, model_tag=tag)
            elif method == "lime":
                vector = lime_global(model, rows, train_sd, settings, seed, model_tag=tag)
            else:
                vector = permutation_importance(
                    model, rows, labels, settings.permutation_rounds, seed, model_tag=tag
                )
            seconds = time.perf_counter() - t0
            by_method[method].append(vector)
            costs.append(ExplainCost(tag, method, seconds, vector.model_rows))
    return by_method, costs


def _rank_tables(
    schema: FeatureSchema, by_method: dict[str, list[ImportanceVector]]
) -> dict[str, RankTable]:
    tables = {}
    for method, vectors in by_method.items():
        ranks = np.column_stack([to_ranks(v.scores) for v in vectors])
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
    """Each judge's report per set name. Sets with the same ordered feature
    list share one fit: the seed and overrides do not depend on the name."""
    results: dict[str, dict[str, dict]] = {}
    for family, overrides in cfg.independent_classifiers:
        judged: dict[tuple[str, ...], dict] = {}
        per_set = {}
        for set_name, features in feature_sets.items():
            key = tuple(features)
            if key not in judged:
                judged[key] = evaluate_feature_subset(
                    train,
                    test,
                    features,
                    family,
                    seed=cfg.seed,
                    overrides=overrides,
                ).to_dict()
            per_set[set_name] = judged[key]
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
    fused: dict[str, FusedRanking],
    feature_sets: dict[str, list[str]],
    results: dict[str, dict[str, dict]],
) -> list[str]:
    all_vectors = [v for vs in by_method.values() for v in vs]
    write_importance_csv(out / "importances.csv", schema.feature_names, all_vectors)
    csvs = [f"ranks_{method}.csv" for method in tables]
    for name, table in zip(csvs, tables.values()):
        write_rank_table(table, out / name)
    csvs += write_fusion(fused, out, "fused_")

    # canonical JSON sorts map keys, so the display order travels as lists
    write_json(
        out / "metrics.json",
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
    write_json(out / "conformance.json", None)
    write_text(out / "summary.md", render_summary_from_artifacts(out))
    return ["importances.csv", *csvs, "metrics.json", "conformance.json", "summary.md"]


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
        lines = _rendered(metrics_path, _run_summary_lines)
    else:
        lines = ["# Conformance summary", ""]
    if conf_path.exists():
        # a run on generated or user data writes null here
        lines += _rendered(conf_path, _conformance_lines, null_ok=True)
    else:
        lines += _conformance_lines(None)
    lines.append(reference_metrics_markdown())
    return "\n".join(lines)


def _rendered(path: Path, render, null_ok: bool = False) -> list[str]:
    """render() of the JSON document at `path`. A file that cannot be read
    as JSON, or a document that is not an object (or null, where null_ok)
    or lacks a field or holds one of the wrong type, is a DataError that
    names the file."""
    doc = read_json(path, DataError)
    if not (isinstance(doc, dict) or (null_ok and doc is None)):
        raise DataError(f"{path} does not hold a JSON object")
    try:
        return render(doc)
    except KeyError as exc:
        raise DataError(f"{path} lacks the field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path} holds a field of the wrong type: {exc}") from None


def _conformance_lines(doc: dict | None) -> list[str]:
    if doc is None:
        return [
            "## Conformance",
            "",
            "null (runs on generated or user data have no reference column)",
            "",
        ]
    return [conformance_markdown(doc)]


def run_fixture_conformance(out_dir: str | Path):
    """Fuse the shipped rank tables with the default fusion settings and each
    dataset's reference top_k, and judge them against the reference columns;
    no training involved."""
    out = Path(out_dir)
    clock = _StageClock()

    def fuse_all():
        computed = {}
        for dataset in DATASETS:
            spec = FusionSpec(top_k=REFERENCE_TOP_K[dataset])
            computed[dataset] = two_level_fuse(load_rank_fixtures(dataset), spec)
        return computed

    computed = clock.run("fuse", fuse_all)
    report = clock.run("conformance", lambda: conformance_check(computed))

    artifacts = ["conformance.json", "summary.md"]
    for dataset, fused in computed.items():
        artifacts += write_fusion(fused, out, f"fused_{dataset}_")
    write_json(out / "conformance.json", asdict(report))
    write_text(out / "summary.md", render_summary_from_artifacts(out))

    cfg_hash = sha256(b"fixture-conformance").hexdigest()
    manifest = _write_manifest(out, cfg_hash, clock, artifacts)
    return manifest, report


def run_pipeline(cfg: PipelineConfig, out_dir: str | Path | None = None) -> RunManifest:
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    clock = _StageClock()
    dataset = clock.run("load", lambda: _load_source(cfg))
    dataset = clock.run("clean", lambda: clean(dataset))
    dataset = clock.run("map_labels", lambda: map_labels(dataset, cfg.mode))
    if cfg.undersample:
        dataset = clock.run("undersample", lambda: undersample(dataset, cfg.seed))
    train, test, _scaler = clock.run(
        "split",
        lambda: split_and_scale(dataset, cfg.sampler),
    )
    # only now, so a data error (exit 3) leaves no empty directory behind,
    # and before training, so an unwritable out_dir fails in seconds
    make_dir(out)

    models = clock.run("train", lambda: _train_all(cfg, train))
    rows, labels = _explanation_rows(cfg, train)
    by_method, costs = clock.run(
        "explain", lambda: _explain_all(cfg, models, train, rows, labels)
    )
    tables = clock.run("rank", lambda: _rank_tables(dataset.schema, by_method))
    fused = clock.run("fuse", lambda: two_level_fuse(tables, cfg.fusion))

    feature_sets: dict[str, list[str]] = {
        "all_features": list(dataset.schema.feature_names)
    }
    for name, ranking in fused.items():
        feature_sets[name] = [f.name for f in top_k(ranking, cfg.fusion.top_k)]

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
            fused,
            feature_sets,
            results,
        ),
    )
    return _write_manifest(out, cfg.config_hash(), clock, artifacts, costs)
