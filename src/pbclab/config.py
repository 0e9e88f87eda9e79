"""Scenario configuration documents: schema, overrides, variants.

A configuration is a plain YAML mapping with sections

* ``model``       - circuit parameters (SI units: H, F, Ohm, V)
* ``controller``  - controller type, gains, target voltage, feedback source
* ``observers``   - list of observer blocks (name, kind, gains)
* ``scenario``    - initial state, horizon, step, sampling, events
* ``output``      - artifact switches (csv/svg/metrics), checkpoints, band
* ``variants``    - optional list of labeled override sets, each producing
  one run in the same figure (curves are overlaid per variant)
* ``description`` - optional one-line string shown by ``presets list``

The keys, types and defaults of ``model``, ``controller``, ``observers``
(one block each) and ``scenario`` (and its events) are the fields of
``CukParams``, ``ControllerSpec``, ``ObserverSpec``, ``Scenario`` and
``EventSpec``; a field without a default is a required key.  Unknown keys
are rejected everywhere and every value is type-checked; the value rules
are those of :func:`pbclab.sim.validate_scenario`, which every validated
document passes.  A document round-trips through :func:`canonical_dump`
unchanged, and ``--set dotted.path=value`` overrides address any entry,
including list elements (``observers.0.gamma=1e11``).
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import typing

import yaml

from .sim import Scenario, ScenarioError, _check_band_frac, validate_scenario

__all__ = [
    "ConfigError",
    "default_config",
    "load_config",
    "loads_config",
    "validate_config",
    "scenario_of",
    "canonical_dump",
    "apply_overrides",
    "expand_variants",
    "scenario_from_config",
]


class ConfigError(ValueError):
    """Malformed configuration document or override."""


_RENAMES = {"params": "model", "lam": "lambda"}  # dataclass field -> document key
_SECTIONS = ("model", "controller", "observers")  # Scenario fields stated at the top level
_OUTPUT_DEFAULTS = {
    "dir": None, "csv": True, "svg": True, "metrics": True,
    "checkpoints": [0.01, 0.03, 0.05], "band_frac": 0.01,
}
_VARIANT_KEYS = ("label", "set")
_TOP_KEYS = (*_SECTIONS, "scenario", "output", "variants", "description")


@functools.cache
def _schema(cls) -> dict:
    """Document key -> (field name, type, default) for each field of a
    scenario dataclass; the default is MISSING for a required key.  The
    result is cached and shared, so callers only read it."""
    hints = typing.get_type_hints(cls)
    schema = {}
    for f in dataclasses.fields(cls):
        default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        schema[_RENAMES.get(f.name, f.name)] = (f.name, hints[f.name], default)
    return schema


def _to_doc(value):
    """A scenario value in document form: dataclasses as mappings, tuples
    as lists."""
    if dataclasses.is_dataclass(value):
        return {key: _to_doc(getattr(value, name))
                for key, (name, _, _) in _schema(type(value)).items()}
    if isinstance(value, (list, tuple)):
        return [_to_doc(v) for v in value]
    return value


def default_config() -> dict:
    """A complete document with the table defaults (fresh copy)."""
    doc = _to_doc(Scenario())
    cfg = {key: doc.pop(key) for key in _SECTIONS}
    cfg["scenario"] = doc
    cfg["output"] = copy.deepcopy(_OUTPUT_DEFAULTS)
    return cfg


def _require_mapping(node, where):
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(node).__name__}")


def _reject_unknown(node: dict, allowed, where):
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


def _number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _check_mapping(schema: dict, node, where):
    """Check a mapping in place against a schema: unknown keys are errors, a
    missing key takes its default or, without one, is an error."""
    _require_mapping(node, where)
    _reject_unknown(node, schema, where)
    for key, (_, kind, default) in schema.items():
        if key not in node:
            if default is dataclasses.MISSING:
                raise ConfigError(f"{where}.{key} is required")
            node[key] = _to_doc(default)
        node[key] = _check(kind, default, node[key], f"{where}.{key}")
    return node


def _check(kind, default, value, where):
    """Type-check one value against its field type; returns it normalized."""
    if dataclasses.is_dataclass(kind):
        return _check_mapping(_schema(kind), value, where)
    if typing.get_origin(kind) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list")
        (item,) = typing.get_args(kind)
        return [_check_mapping(_schema(item), v, f"{where}.{i}") for i, v in enumerate(value)]
    if kind is tuple:
        if not isinstance(value, (list, tuple)) or len(value) != len(default):
            raise ConfigError(f"{where} must be a list of {len(default)} numbers")
        return [_number(v, f"{where}.{i}") for i, v in enumerate(value)]
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a string, got {value!r}")
        return value
    # float, or object: a kbf weight is a matrix through the Python API and
    # a number in a document
    return _number(value, where)


def loads_config(text: str) -> dict:
    """Parse and validate a YAML document string (defaults filled in)."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"YAML parse error: {exc}") from exc
    return validate_config({} if raw is None else raw)


def load_config(path) -> dict:
    with open(path) as fh:
        return loads_config(fh.read())


def validate_config(cfg: dict) -> dict:
    """Check a document in place as `scenario_of` does; returns it
    normalized."""
    scenario_of(cfg)
    return cfg


def scenario_of(cfg: dict) -> Scenario:
    """Key-, type- and value-check a document in place, filling in the
    defaults of missing keys; returns the validated scenario it states,
    built once."""
    _require_mapping(cfg, "the document")
    _reject_unknown(cfg, _TOP_KEYS, "the document")
    schema = dict(_schema(Scenario))
    for key in _SECTIONS:
        _, kind, default = schema.pop(key)
        cfg[key] = _check(kind, default, cfg.get(key, _to_doc(default)), key)
    _check_mapping(schema, cfg.setdefault("scenario", {}), "scenario")

    out = cfg.setdefault("output", {})
    _require_mapping(out, "output")
    _reject_unknown(out, _OUTPUT_DEFAULTS, "output")
    for key, value in _OUTPUT_DEFAULTS.items():
        out.setdefault(key, copy.deepcopy(value))
    if out["dir"] is not None and not isinstance(out["dir"], str):
        raise ConfigError("output.dir must be a string")
    for key in ("csv", "svg", "metrics"):
        if not isinstance(out[key], bool):
            raise ConfigError(f"output.{key} must be a boolean")
    if not isinstance(out["checkpoints"], list):
        raise ConfigError("output.checkpoints must be a list of times")
    out["checkpoints"] = [
        _number(v, f"output.checkpoints.{i}") for i, v in enumerate(out["checkpoints"])
    ]
    out["band_frac"] = _number(out["band_frac"], "output.band_frac")
    try:
        _check_band_frac(out["band_frac"])
    except ValueError as exc:
        raise ConfigError(f"output.{exc}") from exc

    variants = cfg.get("variants")
    if variants is not None:
        if not isinstance(variants, list) or not variants:
            raise ConfigError("variants must be a non-empty list")
        labels = set()
        for i, var in enumerate(variants):
            where = f"variants.{i}"
            _require_mapping(var, where)
            _reject_unknown(var, _VARIANT_KEYS, where)
            label = var.get("label")
            if not isinstance(label, str) or not label:
                raise ConfigError(f"{where}.label must be a non-empty string")
            if label in labels:
                raise ConfigError(f"duplicate variant label {label!r}")
            labels.add(label)
            _require_mapping(var.get("set", {}), f"{where}.set")
    if "description" in cfg and not isinstance(cfg["description"], str):
        raise ConfigError("description must be a string")
    scn = scenario_from_config(cfg)
    try:
        validate_scenario(scn)
    except ScenarioError as exc:
        raise ConfigError(str(exc)) from exc
    return scn


def canonical_dump(cfg: dict) -> str:
    """Stable serialization; loads back to an identical document."""
    return yaml.safe_dump(cfg, sort_keys=True, default_flow_style=False)


# -- overrides -----------------------------------------------------------------


def _parse_value(text: str):
    try:
        value = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse override value {text!r}: {exc}") from exc
    if isinstance(value, str):
        # YAML 1.1 reads "1e12" as a string; accept it as a float anyway.
        try:
            return float(value)
        except ValueError:
            return value
    return value


def _walk(cfg, parts, full):
    """Return (container, final key/index) for a dotted path."""
    node = cfg
    for j, part in enumerate(parts[:-1]):
        node = _step(node, part, full)
        if node is None:
            raise ConfigError(f"path {full!r} hits a null node at {part!r}")
    return node, parts[-1]


def _step(node, part, full):
    if isinstance(node, list):
        try:
            idx = int(part)
        except ValueError:
            raise ConfigError(f"list index expected at {part!r} in {full!r}") from None
        if not 0 <= idx < len(node):
            raise ConfigError(f"index {idx} out of range in {full!r}")
        return node[idx]
    if isinstance(node, dict):
        if part not in node:
            raise ConfigError(f"unknown path segment {part!r} in {full!r}")
        return node[part]
    raise ConfigError(f"cannot descend into scalar at {part!r} in {full!r}")


def get_path(cfg, path: str):
    """Read the value at a dotted path."""
    parts = path.split(".")
    node, last = _walk(cfg, parts, path)
    return _step(node, last, path)


def set_path(cfg, path: str, value):
    """Assign at a dotted path.  New observer/event list entries are allowed
    one past the end; everything else must already exist."""
    parts = path.split(".")
    node, last = _walk(cfg, parts, path)
    if isinstance(node, list):
        try:
            idx = int(last)
        except ValueError:
            raise ConfigError(f"list index expected at {last!r} in {path!r}") from None
        if idx == len(node):
            node.append(value)
        elif 0 <= idx < len(node):
            node[idx] = value
        else:
            raise ConfigError(f"index {idx} out of range in {path!r}")
    elif isinstance(node, dict):
        # unknown keys survive until re-validation, which rejects them
        node[last] = value
    else:
        raise ConfigError(f"cannot assign into scalar at {last!r} in {path!r}")


def apply_overrides(cfg: dict, assignments) -> dict:
    """Apply ``path=value`` strings and re-validate."""
    for text in assignments:
        if "=" not in text:
            raise ConfigError(f"override {text!r} is not of the form path=value")
        path, _, value = text.partition("=")
        path = path.strip()
        if not path:
            raise ConfigError(f"override {text!r} has an empty path")
        set_path(cfg, path, _parse_value(value.strip()))
    return validate_config(cfg)


def expand_variants(cfg: dict):
    """List of (label, concrete config) pairs, one per run of the figure,
    each to be checked, and its scenario built, by `scenario_of`."""
    variants = cfg.get("variants")
    if not variants:
        return [(cfg["scenario"]["label"], cfg)]
    out = []
    for var in variants:
        sub = copy.deepcopy(cfg)
        sub.pop("variants", None)
        for path, value in var.get("set", {}).items():
            set_path(sub, path, copy.deepcopy(value))
        sub["scenario"]["label"] = var["label"]
        out.append((var["label"], sub))
    return out


# -- bridge to the simulation types ----------------------------------------------


def _build(cls, node: dict):
    """The dataclass `cls` from a checked document mapping."""
    kwargs = {}
    for key, (name, kind, _) in _schema(cls).items():
        value = node[key]
        if dataclasses.is_dataclass(kind):
            value = _build(kind, value)
        elif typing.get_origin(kind) is list:
            value = [_build(typing.get_args(kind)[0], v) for v in value]
        elif kind is tuple:
            value = tuple(value)
        kwargs[name] = value
    return cls(**kwargs)


def scenario_from_config(cfg: dict) -> Scenario:
    return _build(Scenario, {**cfg["scenario"], **{key: cfg[key] for key in _SECTIONS}})
