"""Experiment configuration: a sectioned key = value text file with explicit
per-key types.  Unknown sections or keys are errors, not warnings; silent
typos corrupt experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "parse_config_text", "render_value"]


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


def render_value(value) -> str:
    """A value as its key's parser reads it back: a float by repr, a tuple as
    its rendered entries joined by commas."""
    if isinstance(value, tuple):
        return ", ".join(map(render_value, value))
    return repr(value) if isinstance(value, float) else str(value)


_REQUIRED = object()

# section -> key -> (type, default); _REQUIRED marks keys that must appear
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "potential": {"name": ("str", _REQUIRED)},  # and the named built-in's keys, _POTENTIALS
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

# built-in -> the keys its [potential] section takes besides name; a None
# default leaves the value to the builder's own default
_POTENTIALS: dict[str, dict[str, tuple[str, object]]] = {
    "gaussian_quadratic": {"n": ("int", _REQUIRED), "d": ("int", _REQUIRED), "seed": ("int", 0),
                           "spread": ("float", 1.0), "zero_mean": ("bool", False), "scales": ("floats", None)},
    "double_well": {"a": ("float", None), "d": ("int", None), "n_copies": ("int", None), "box": ("float", None)},
    "gaussian_mixture": {"mu": ("floats", None), "sigma": ("float", None), "n_copies": ("int", None)},
    "logistic_l2": {"data": ("str", _REQUIRED), "lam": ("float", None)},
}


def _keys(section: str, potential: str | None = None) -> dict[str, tuple[str, object]]:
    """The keys of a section; [potential] takes name and the named built-in's."""
    return {**_SCHEMA[section], **_POTENTIALS.get(potential, {})} if section == "potential" else _SCHEMA[section]


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
            schema = _keys(section, data.get("name"))
            for key, value in data.items():
                if value is None or (not self.is_set(section, key) and value == schema[key][1]):
                    continue
                rendered = ("true" if value else "false") if isinstance(value, bool) else render_value(value)
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
        name = raw_items.get("name", "").strip() if section == "potential" else None
        if section == "potential" and name not in _POTENTIALS:
            # a missing or unknown name: the section's other keys go unchecked
            raw_items = {key: raw for key, raw in raw_items.items() if key == "name"}
            if raw_items:
                errors.append(f"[potential] unknown potential name {name!r}")
        schema = _keys(section, name)
        out: dict = {}
        for key, raw in raw_items.items():
            if key not in schema:
                inapplicable = section == "potential" and any(key in keys for keys in _POTENTIALS.values())
                errors.append(f"[potential] key {key!r} does not apply to {name!r}" if inapplicable
                              else f"[{section}] unknown key {key!r}")
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
