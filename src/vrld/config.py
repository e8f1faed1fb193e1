"""Experiment configuration: a sectioned key = value text file with explicit
per-key types.  Unknown sections or keys are errors, not warnings; silent
typos corrupt experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "parse_config_text"]


class ConfigError(ValueError):
    pass


def _parse_bool(s: str) -> bool:
    t = s.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


def _parse_floats(s: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in s.replace(",", " ").split())


def _parse_strs(s: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in s.split(",") if tok.strip())


_PARSERS = {
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "str": lambda s: s.strip(),
    "floats": _parse_floats,
    "strs": _parse_strs,
}

_REQUIRED = object()

# section -> key -> (type, default); _REQUIRED marks keys that must appear
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "potential": {
        "name": ("str", _REQUIRED),
        "n": ("int", None),
        "d": ("int", None),
        "seed": ("int", 0),
        "spread": ("float", 1.0),
        "zero_mean": ("bool", False),
        "scales": ("floats", None),
        "a": ("float", None),
        "n_copies": ("int", None),
        "box": ("float", None),
        "mu": ("floats", None),
        "sigma": ("float", None),
        "data": ("str", None),
        "lam": ("float", None),
    },
    "sampler": {
        "variant": ("str", _REQUIRED),
        "eta": ("float", None),
        "gamma": ("float", 1.0),
        "batch": ("int", 1),
        "epoch": ("int", 1),
        "steps": ("int", None),
        "auto": ("bool", False),
        "eps": ("float", None),
    },
    "theory": {
        "alpha_mode": ("str", "declared"),
        "alpha": ("float", None),
        "H0": ("float", None),
        "A_star": ("float", None),
        "B_star": ("float", None),
        "C_star": ("float", 1.0),
        "lambda_dagger": ("float", None),
        "L_prime": ("float", None),
        "C_F": ("float", None),
    },
    "anneal": {
        "eta_bar": ("float", _REQUIRED),
        "gamma_bar": ("float", _REQUIRED),
        "sigma": ("float", _REQUIRED),
        "mu": ("float", _REQUIRED),
        "g": ("float", math.e),
    },
    "run": {
        "replicates": ("int", 1),
        "seed": ("int", 0),
        "burn_in": ("int", 0),
        "thin": ("int", 1),
        "out": ("str", "runs"),
        "x0": ("floats", None),
    },
    "compare": {
        "variants": ("strs", _REQUIRED),
        "metric": ("str", "suboptimality"),
        "threshold": ("float", _REQUIRED),
    },
    "sweep": {
        "axis": ("str", _REQUIRED),
        "values": ("floats", _REQUIRED),
    },
}

_OPTIONAL_SECTIONS = {"theory", "anneal", "compare", "sweep"}

# keys each built-in potential accepts beyond "name"
_POTENTIAL_KEYS = {
    "gaussian_quadratic": {"n", "d", "seed", "spread", "zero_mean", "scales"},
    "double_well": {"a", "d", "n_copies", "box"},
    "gaussian_mixture": {"mu", "sigma", "n_copies"},
    "logistic_l2": {"data", "lam"},
}


@dataclass
class ExperimentConfig:
    potential: dict = field(default_factory=dict)
    sampler: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)
    theory: dict | None = None
    anneal: dict | None = None
    compare: dict | None = None
    sweep: dict | None = None
    # section -> the keys the text sets; the others hold their schema default
    given: dict[str, frozenset[str]] = field(default_factory=dict)

    def is_set(self, section: str, key: str) -> bool:
        """Whether the text sets ``key`` rather than leaving it at its default."""
        return key in self.given.get(section, ())

    def to_text(self) -> str:
        """Normalised serialisation; parse(to_text()) reproduces the config.
        It writes the keys the text set and any other key moved off its default."""
        lines: list[str] = []
        for section in ("potential", "sampler", "theory", "anneal", "run", "compare", "sweep"):
            data = getattr(self, section)
            if data is None:
                continue
            lines.append(f"[{section}]")
            for key, value in data.items():
                if value is None or (not self.is_set(section, key) and value == _SCHEMA[section][key][1]):
                    continue
                if isinstance(value, bool):
                    rendered = "true" if value else "false"
                elif isinstance(value, tuple):
                    rendered = ", ".join(repr(v) if isinstance(v, float) else str(v) for v in value)
                elif isinstance(value, float):
                    rendered = repr(value)
                else:
                    rendered = str(value)
                lines.append(f"{key} = {rendered}")
            lines.append("")
        return "\n".join(lines)


def parse_config_text(text: str) -> ExperimentConfig:
    sections: dict[str, dict[str, str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            if current in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{current}]")
            sections[current] = {}
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section: {line!r}")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = value

    for required in ("potential", "sampler", "run"):
        sections.setdefault(required, {})

    parsed: dict[str, dict | None] = {}
    errors: list[str] = []
    for section, raw_items in sections.items():
        schema = _SCHEMA[section]
        out: dict = {}
        for key, raw in raw_items.items():
            if key not in schema:
                errors.append(f"[{section}] unknown key {key!r}")
                continue
            typ, _ = schema[key]
            try:
                out[key] = _PARSERS[typ](raw)
            except (ValueError, ConfigError) as exc:
                errors.append(f"[{section}] {key}: {exc}")
        for key, (typ, default) in schema.items():
            if key not in out:
                if default is _REQUIRED:
                    errors.append(f"[{section}] missing required key {key!r}")
                else:
                    out[key] = default
        parsed[section] = out
    for optional in _OPTIONAL_SECTIONS:
        if optional not in sections:
            parsed[optional] = None

    # potential-specific key hygiene: only keys meaningful for the named
    # potential may be set explicitly
    pot = parsed.get("potential") or {}
    name = pot.get("name")
    if name is not None:
        allowed = _POTENTIAL_KEYS.get(name)
        if allowed is None:
            errors.append(f"[potential] unknown potential name {name!r}")
        else:
            for key in sections.get("potential", {}):
                if key != "name" and key in _SCHEMA["potential"] and key not in allowed:
                    errors.append(f"[potential] key {key!r} does not apply to {name!r}")

    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return ExperimentConfig(
        potential=parsed["potential"],
        sampler=parsed["sampler"],
        run=parsed["run"],
        theory=parsed["theory"],
        anneal=parsed["anneal"],
        compare=parsed["compare"],
        sweep=parsed["sweep"],
        given={section: frozenset(keys) for section, keys in sections.items()},
    )


def parse_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
