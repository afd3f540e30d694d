"""Experiment configuration: sectioned key/value files, strictly validated.

Every key a config may set is listed once, in _KEYS, and every kind once,
in its builder registry.  Unknown sections, keys or kinds are errors (with
a nearest-match suggestion), so a typo can never fall back to a default.
"""

from __future__ import annotations

import configparser
import difflib
import math
from dataclasses import dataclass, field as dfield
from pathlib import Path

import numpy as np

from .errors import AdmissibilityLost, ConfigurationError
from .geometry import (
    Background,
    flat_background,
    kahler_product_background,
    load_background,
    pluriclosed_background,
)
from .grid_field import RealField, TorusGrid, make_grid, read_field


@dataclass
class ExperimentConfig:
    dims: tuple = (16, 16, 16, 16)
    periods: tuple = (1.0, 1.0, 1.0, 1.0)
    bg_kind: str = "flat"
    bg_params: dict = dfield(default_factory=dict)
    beta: float = 0.5
    alpha: float = 1.0
    cfl: float = 0.5
    dt_max: float = 1.0
    t_end: float = 1.0
    steady_tol: float = 1e-9
    snapshot_stride: int = 10
    admissibility_floor: float = 1e-10
    steady_criterion: str = "osc"
    spectral_filter: bool = False
    initial_kind: str = "zero"
    initial_params: dict = dfield(default_factory=dict)
    f_plus: str = "zero"
    f_minus: str = "zero"
    forcing_params: dict = dfield(default_factory=dict)
    normalize_compat6: bool = True
    gauge: bool = True
    monitors_enabled: str = "default"
    monitors_safety: float = 1.0
    out_dir: str = "out"
    field_dump_stride: int = 0
    id_betas: tuple = (0.3, 0.7, 1.0)
    id_amplitude: float = 0.01
    id_seed: int = 42
    id_band: int = 1
    id_tolerance: float = 1e-8


def _suggest(bad: str, pool) -> str:
    close = difflib.get_close_matches(bad, sorted(pool), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def _floats(s: str):
    return tuple(float(x) for x in s.replace(",", " ").split())


def _ints(s: str):
    return tuple(int(x) for x in s.replace(",", " ").split())


def _bool(s: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[s.lower()]
    except KeyError:
        raise ValueError(f"Not a boolean: {s}") from None


def _modes(s: str):
    """'k,m,a; k,m,a; ...' -> [(k, m, a), ...]"""
    return [(int(k), int(m), float(a)) for k, m, a in
            (chunk.split(",") for chunk in map(str.strip, s.split(";"))
             if chunk)]


# section -> key -> (ExperimentConfig field, converter): every key a config
# may set.  A key whose field is a dict is stored in it under its own name.
_KEYS = {
    "grid": {"dims": ("dims", _ints), "periods": ("periods", _floats)},
    "background": {
        "kind": ("bg_kind", str), "c_g": ("bg_params", float),
        "c_h": ("bg_params", float), "g_eps": ("bg_params", float),
        "h_eps": ("bg_params", float), "g_k": ("bg_params", int),
        "h_m": ("bg_params", int), "modes": ("bg_params", _modes),
        "path": ("bg_params", str)},
    "flow": {
        "beta": ("beta", float), "alpha": ("alpha", float),
        "cfl": ("cfl", float), "dt_max": ("dt_max", float),
        "t_end": ("t_end", float), "steady_tol": ("steady_tol", float),
        "snapshot_stride": ("snapshot_stride", int),
        "admissibility_floor": ("admissibility_floor", float),
        "steady_criterion": ("steady_criterion", str),
        "spectral_filter": ("spectral_filter", _bool)},
    "initial": {
        "kind": ("initial_kind", str), "amplitude": ("initial_params", float),
        "a_amp": ("initial_params", float), "b_amp": ("initial_params", float),
        "seed": ("initial_params", int), "band": ("initial_params", int),
        "a_k": ("initial_params", int), "b_m": ("initial_params", int),
        "path": ("initial_params", str)},
    "forcing": {
        "f_plus": ("f_plus", str), "f_minus": ("f_minus", str),
        "f_plus_eps": ("forcing_params", float),
        "f_minus_eps": ("forcing_params", float),
        "f_plus_k": ("forcing_params", int),
        "f_minus_m": ("forcing_params", int),
        "normalize_compat6": ("normalize_compat6", _bool),
        "gauge": ("gauge", _bool)},
    "monitors": {"enabled": ("monitors_enabled", str),
                 "safety": ("monitors_safety", float)},
    "output": {"directory": ("out_dir", str),
               "field_dump_stride": ("field_dump_stride", int)},
    "identities": {
        "betas": ("id_betas", _floats), "amplitude": ("id_amplitude", float),
        "seed": ("id_seed", int), "band": ("id_band", int),
        "tolerance": ("id_tolerance", float)},
}


def parse_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:  # read here: ConfigParser.read skips a file it cannot read
        cp.read_string(path.read_text(encoding="utf-8"), source=path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigurationError(f"config parse error: {exc}") from exc

    for section in cp.sections():
        if section not in _KEYS:
            raise ConfigurationError(
                f"unknown section [{section}]{_suggest(section, _KEYS)}")
        for key in cp[section]:
            if key not in _KEYS[section]:
                raise ConfigurationError(
                    f"unknown key {key!r} in [{section}]"
                    f"{_suggest(key, _KEYS[section])}")

    cfg = ExperimentConfig()
    try:
        for section, keys in _KEYS.items():
            for key, (name, convert) in keys.items():
                if cp.has_option(section, key):
                    value = convert(cp.get(section, key))
                    if isinstance(getattr(cfg, name), dict):
                        getattr(cfg, name)[key] = value
                    else:
                        setattr(cfg, name, value)
    except (ValueError, TypeError, configparser.InterpolationError) as exc:
        raise ConfigurationError(f"invalid config value: {exc}") from exc
    for params in (cfg.bg_params, cfg.initial_params):
        if "path" in params:  # relative to the config file; absolute kept
            params["path"] = str(path.parent / params["path"])

    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.alpha <= 0 or not (0.0 < cfg.beta <= cfg.alpha):
        raise ConfigurationError(
            f"need 0 < beta <= alpha, got beta={cfg.beta}, alpha={cfg.alpha}"
        )
    if not (0.0 < cfg.beta / cfg.alpha <= 1.0):
        raise ConfigurationError("beta/alpha must lie in (0, 1]")
    if not (0.0 < cfg.cfl <= 1.0):
        raise ConfigurationError(f"cfl must lie in (0, 1], got {cfg.cfl}")
    if cfg.snapshot_stride < 1 or cfg.field_dump_stride < 0:
        raise ConfigurationError("strides must be >= 1 (dump stride >= 0)")
    if cfg.t_end < 0:
        raise ConfigurationError("t_end must be nonnegative")
    # safety scales the torsion and curvature maxima of the bound constants:
    # below 1 it would shrink them (a negative value flips their sign)
    if not (1.0 <= cfg.monitors_safety < math.inf):
        raise ConfigurationError(
            f"[monitors] safety must be finite and >= 1, got "
            f"{cfg.monitors_safety}")
    for what, kind, registry in (("background", cfg.bg_kind, _BACKGROUNDS),
                                 ("initial", cfg.initial_kind, _INITIAL),
                                 ("forcing", cfg.f_plus, _FORCING),
                                 ("forcing", cfg.f_minus, _FORCING)):
        if kind not in registry:
            raise ConfigurationError(
                f"unknown {what} kind {kind!r}{_suggest(kind, registry)}")
    if not cfg.id_betas:  # the suite would check nothing and pass
        raise ConfigurationError("[identities] betas lists no ratio")


# ---------------------------------------------------------------------------
# builders: one registry per kind, kind -> builder


def _existing_path(params: dict, what: str) -> str:
    path = params.get("path")
    if path is None or not Path(path).exists():
        raise ConfigurationError(f"{what} needs an existing path, got {path!r}")
    return path


def build_grid(cfg: ExperimentConfig) -> TorusGrid:
    return make_grid(cfg.dims, cfg.periods)


def _kahler_cos(grid: TorusGrid, p: dict) -> Background:
    n1, n2, n3, n4 = grid.shape
    x1 = np.arange(n1) * grid.periods[0] / n1
    x3 = np.arange(n3) * grid.periods[2] / n3
    gp = p.get("c_g", 1.0) * (1.0 + p.get("g_eps", 0.0) * np.cos(
        2 * np.pi * p.get("g_k", 1) * x1 / grid.periods[0]))
    hp = p.get("c_h", 1.0) * (1.0 + p.get("h_eps", 0.0) * np.cos(
        2 * np.pi * p.get("h_m", 1) * x3 / grid.periods[2]))
    return kahler_product_background(
        grid, gp[:, None] * np.ones((1, n2)), hp[:, None] * np.ones((1, n4)))


# kind -> builder(grid, cfg.bg_params)
_BACKGROUNDS = {
    "flat": lambda grid, p: flat_background(
        grid, p.get("c_g", 1.0), p.get("c_h", 1.0)),
    "kahler_cos": _kahler_cos,
    "pluriclosed_cos": lambda grid, p: pluriclosed_background(
        grid, p.get("c_g", 1.0), p.get("c_h", 1.0), p.get("modes", [])),
    "files": lambda grid, p: load_background(
        _existing_path(p, "[background] kind = files")),
}


def build_background(cfg: ExperimentConfig, grid: TorusGrid) -> Background:
    return _BACKGROUNDS[cfg.bg_kind](grid, cfg.bg_params)


def inadmissible_initial(cfg, seed, exc: AdmissibilityLost):
    """exc, raised by the configured initial state, as an error naming that
    state: its kind, and its seed and amplitude or its path."""
    p, label = cfg.initial_params, f"[initial] kind = {cfg.initial_kind}"
    if cfg.initial_kind == "random":
        label += (f", seed {p.get('seed', 0) if seed is None else seed}, "
                  f"amplitude {p.get('amplitude', 0.01)}")
    elif cfg.initial_kind == "file":
        label += f", path {p['path']}"
    return AdmissibilityLost(f"the initial state ({label}) is not admissible:"
                             f" {exc}", exc.t, exc.which, exc.value)


def _random_initial(cfg, grid, bg, seed) -> RealField:
    from .identities import random_test_field

    p = cfg.initial_params
    return random_test_field(grid, p.get("seed", 0) if seed is None else seed,
                             p.get("amplitude", 0.01), p.get("band", 1), bg=bg)


def _split_sine(cfg, grid, bg, seed) -> RealField:
    p = cfg.initial_params
    a_amp, a_k = p.get("a_amp", 0.05), p.get("a_k", 1)
    b_amp, b_m = p.get("b_amp", 0.05), p.get("b_m", 1)
    L1, L3 = grid.periods[0], grid.periods[2]
    return RealField.from_function(
        grid,
        lambda x1, x2, x3, x4: a_amp * np.sin(2 * np.pi * a_k * x1 / L1)
        + b_amp * np.sin(2 * np.pi * b_m * x3 / L3),
    )


def _file_initial(cfg, grid, bg, seed) -> RealField:
    f = read_field(_existing_path(cfg.initial_params, "[initial] kind = file"),
                   grid=grid)
    if not isinstance(f, RealField):
        raise ConfigurationError("initial data file must hold a real field")
    return f


# kind -> builder(cfg, grid, bg, seed override or None)
_INITIAL = {
    "zero": lambda cfg, grid, bg, seed: RealField.zeros(grid),
    "random": _random_initial,
    "split_sine": _split_sine,
    "file": _file_initial,
}


def build_initial(cfg: ExperimentConfig, grid: TorusGrid,
                  bg: Background, seed_override: int | None = None) -> RealField:
    try:  # the random data is checked as it is built
        return _INITIAL[cfg.initial_kind](cfg, grid, bg, seed_override)
    except AdmissibilityLost as exc:
        raise inadmissible_initial(cfg, seed_override, exc) from exc


# log_cos: f_plus = beta log(1 + eps cos(2 pi k x1/L1)), f_minus alike in x3
_FORCING = ("zero", "log_cos")


def build_forcing(cfg: ExperimentConfig, grid: TorusGrid, beta: float):
    """(f_plus, f_minus) as fields, or (None, None) for a free flow."""
    if cfg.f_plus == "zero" and cfg.f_minus == "zero":
        return None, None
    p = cfg.forcing_params
    x1, _, x3, _ = grid.mesh()

    def factor(kind, eps, k, coord, scale):
        if kind == "zero":
            return RealField.zeros(grid)
        if not (-1.0 < eps < 1.0):
            raise ConfigurationError("forcing amplitude must lie in (-1, 1)")
        return RealField(grid, scale * np.log(
            1.0 + eps * np.cos(2 * np.pi * k * coord)) * np.ones(grid.shape))

    return (factor(cfg.f_plus, p.get("f_plus_eps", 0.0), p.get("f_plus_k", 1),
                   x1 / grid.periods[0], beta),
            factor(cfg.f_minus, p.get("f_minus_eps", 0.0),
                   p.get("f_minus_m", 1), x3 / grid.periods[2], 1.0))
