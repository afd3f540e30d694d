"""Experiment configuration: sectioned key/value files, strictly validated.

Unknown sections or keys are errors (with a nearest-match suggestion), so
a typo can never silently fall back to a default.
"""

from __future__ import annotations

import configparser
import difflib
import math
from dataclasses import dataclass, field as dfield
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .geometry import (
    Background,
    flat_background,
    kahler_product_background,
    load_background,
    pluriclosed_background,
)
from .grid_field import RealField, TorusGrid, make_grid, read_field

_SCHEMA = {
    "grid": {"dims", "periods"},
    "background": {"kind", "c_g", "c_h", "g_eps", "g_k", "h_eps", "h_m",
                   "modes", "path"},
    "flow": {"beta", "alpha", "cfl", "dt_max", "t_end", "steady_tol",
             "snapshot_stride", "admissibility_floor", "steady_criterion",
             "spectral_filter"},
    "initial": {"kind", "amplitude", "seed", "band", "a_amp", "a_k",
                "b_amp", "b_m", "path"},
    "forcing": {"f_plus", "f_plus_eps", "f_plus_k", "f_minus", "f_minus_eps",
                "f_minus_m", "normalize_compat6", "gauge"},
    "monitors": {"enabled", "safety"},
    "output": {"directory", "field_dump_stride"},
    "identities": {"betas", "amplitude", "seed", "band", "tolerance"},
}


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


def parse_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(f"config parse error: {exc}") from exc

    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigurationError(
                f"unknown section [{section}]{_suggest(section, _SCHEMA)}"
            )
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise ConfigurationError(
                    f"unknown key {key!r} in [{section}]"
                    f"{_suggest(key, _SCHEMA[section])}"
                )

    cfg = ExperimentConfig()

    def get(section, key, default=None):
        if cp.has_option(section, key):
            return cp.get(section, key)
        return default

    try:
        if cp.has_section("grid"):
            if get("grid", "dims") is not None:
                cfg.dims = _ints(get("grid", "dims"))
            if get("grid", "periods") is not None:
                cfg.periods = _floats(get("grid", "periods"))
        if cp.has_section("background"):
            cfg.bg_kind = get("background", "kind", "flat")
            for k in ("c_g", "c_h", "g_eps", "h_eps"):
                v = get("background", k)
                if v is not None:
                    cfg.bg_params[k] = float(v)
            for k in ("g_k", "h_m"):
                v = get("background", k)
                if v is not None:
                    cfg.bg_params[k] = int(v)
            if get("background", "modes") is not None:
                modes = []
                for chunk in get("background", "modes").split(";"):
                    chunk = chunk.strip()
                    if not chunk:
                        continue
                    k, m, a = chunk.split(",")
                    modes.append((int(k), int(m), float(a)))
                cfg.bg_params["modes"] = modes
            if get("background", "path") is not None:
                cfg.bg_params["path"] = get("background", "path")
        if cp.has_section("flow"):
            cfg.beta = float(get("flow", "beta", cfg.beta))
            cfg.alpha = float(get("flow", "alpha", cfg.alpha))
            cfg.cfl = float(get("flow", "cfl", cfg.cfl))
            cfg.dt_max = float(get("flow", "dt_max", cfg.dt_max))
            cfg.t_end = float(get("flow", "t_end", cfg.t_end))
            cfg.steady_tol = float(get("flow", "steady_tol", cfg.steady_tol))
            cfg.snapshot_stride = int(get("flow", "snapshot_stride",
                                          cfg.snapshot_stride))
            cfg.admissibility_floor = float(
                get("flow", "admissibility_floor", cfg.admissibility_floor)
            )
            cfg.steady_criterion = get("flow", "steady_criterion",
                                       cfg.steady_criterion)
            cfg.spectral_filter = cp.getboolean("flow", "spectral_filter",
                                                fallback=False)
        if cp.has_section("initial"):
            cfg.initial_kind = get("initial", "kind", "zero")
            for k in ("amplitude", "a_amp", "b_amp"):
                v = get("initial", k)
                if v is not None:
                    cfg.initial_params[k] = float(v)
            for k in ("seed", "band", "a_k", "b_m"):
                v = get("initial", k)
                if v is not None:
                    cfg.initial_params[k] = int(v)
            if get("initial", "path") is not None:
                cfg.initial_params["path"] = get("initial", "path")
        if cp.has_section("forcing"):
            cfg.f_plus = get("forcing", "f_plus", "zero")
            cfg.f_minus = get("forcing", "f_minus", "zero")
            for k in ("f_plus_eps", "f_minus_eps"):
                v = get("forcing", k)
                if v is not None:
                    cfg.forcing_params[k] = float(v)
            for k in ("f_plus_k", "f_minus_m"):
                v = get("forcing", k)
                if v is not None:
                    cfg.forcing_params[k] = int(v)
            cfg.normalize_compat6 = cp.getboolean(
                "forcing", "normalize_compat6", fallback=True
            )
            cfg.gauge = cp.getboolean("forcing", "gauge", fallback=True)
        if cp.has_section("monitors"):
            cfg.monitors_enabled = get("monitors", "enabled", "default")
            cfg.monitors_safety = float(get("monitors", "safety", 1.0))
        if cp.has_section("output"):
            cfg.out_dir = get("output", "directory", cfg.out_dir)
            cfg.field_dump_stride = int(get("output", "field_dump_stride", 0))
        if cp.has_section("identities"):
            if get("identities", "betas") is not None:
                cfg.id_betas = _floats(get("identities", "betas"))
            cfg.id_amplitude = float(get("identities", "amplitude",
                                         cfg.id_amplitude))
            cfg.id_seed = int(get("identities", "seed", cfg.id_seed))
            cfg.id_band = int(get("identities", "band", cfg.id_band))
            cfg.id_tolerance = float(get("identities", "tolerance",
                                         cfg.id_tolerance))
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"invalid config value: {exc}") from exc

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
    known_bg = {"flat", "kahler_cos", "pluriclosed_cos", "files"}
    if cfg.bg_kind not in known_bg:
        raise ConfigurationError(
            f"unknown background kind {cfg.bg_kind!r}{_suggest(cfg.bg_kind, known_bg)}"
        )
    known_u0 = {"zero", "random", "split_sine", "file"}
    if cfg.initial_kind not in known_u0:
        raise ConfigurationError(
            f"unknown initial kind {cfg.initial_kind!r}"
            f"{_suggest(cfg.initial_kind, known_u0)}"
        )
    for name in (cfg.f_plus, cfg.f_minus):
        if name not in {"zero", "log_cos"}:
            raise ConfigurationError(f"unknown forcing kind {name!r}")


# ---------------------------------------------------------------------------
# builders


def _existing_path(params: dict, what: str) -> str:
    path = params.get("path")
    if path is None or not Path(path).exists():
        raise ConfigurationError(f"{what} needs an existing path, got {path!r}")
    return path


def build_grid(cfg: ExperimentConfig) -> TorusGrid:
    return make_grid(cfg.dims, cfg.periods)


def build_background(cfg: ExperimentConfig, grid: TorusGrid) -> Background:
    p = cfg.bg_params
    if cfg.bg_kind == "flat":
        return flat_background(grid, p.get("c_g", 1.0), p.get("c_h", 1.0))
    if cfg.bg_kind == "kahler_cos":
        n1, n2, n3, n4 = grid.shape
        x1 = np.arange(n1) * grid.periods[0] / n1
        x3 = np.arange(n3) * grid.periods[2] / n3
        gp = p.get("c_g", 1.0) * (
            1.0 + p.get("g_eps", 0.0)
            * np.cos(2 * np.pi * p.get("g_k", 1) * x1 / grid.periods[0])
        )
        hp = p.get("c_h", 1.0) * (
            1.0 + p.get("h_eps", 0.0)
            * np.cos(2 * np.pi * p.get("h_m", 1) * x3 / grid.periods[2])
        )
        return kahler_product_background(
            grid, gp[:, None] * np.ones((1, n2)), hp[:, None] * np.ones((1, n4))
        )
    if cfg.bg_kind == "pluriclosed_cos":
        return pluriclosed_background(
            grid, p.get("c_g", 1.0), p.get("c_h", 1.0), p.get("modes", [])
        )
    if cfg.bg_kind == "files":
        return load_background(_existing_path(p, "[background] kind = files"))
    raise ConfigurationError(f"unknown background kind {cfg.bg_kind!r}")


def build_initial(cfg: ExperimentConfig, grid: TorusGrid,
                  bg: Background, seed_override: int | None = None) -> RealField:
    p = cfg.initial_params
    if cfg.initial_kind == "zero":
        return RealField.zeros(grid)
    if cfg.initial_kind == "random":
        from .identities import random_test_field

        seed = seed_override if seed_override is not None else p.get("seed", 0)
        return random_test_field(
            grid, seed, p.get("amplitude", 0.01), p.get("band", 1),
            bg=bg, beta=cfg.beta / cfg.alpha,
        )
    if cfg.initial_kind == "split_sine":
        a_amp = p.get("a_amp", 0.05)
        b_amp = p.get("b_amp", 0.05)
        a_k = p.get("a_k", 1)
        b_m = p.get("b_m", 1)
        L1, L3 = grid.periods[0], grid.periods[2]
        return RealField.from_function(
            grid,
            lambda x1, x2, x3, x4: a_amp * np.sin(2 * np.pi * a_k * x1 / L1)
            + b_amp * np.sin(2 * np.pi * b_m * x3 / L3),
        )
    if cfg.initial_kind == "file":
        f = read_field(_existing_path(p, "[initial] kind = file"), grid=grid)
        if not isinstance(f, RealField):
            raise ConfigurationError("initial data file must hold a real field")
        return f
    raise ConfigurationError(f"unknown initial kind {cfg.initial_kind!r}")


def build_forcing(cfg: ExperimentConfig, grid: TorusGrid, beta: float):
    """(f_plus, f_minus) as fields, or (None, None) for a free flow."""
    p = cfg.forcing_params
    if cfg.f_plus == "zero" and cfg.f_minus == "zero":
        return None, None
    L1, L3 = grid.periods[0], grid.periods[2]

    def logcos(eps, k, coord, scale):
        if not (-1.0 < eps < 1.0):
            raise ConfigurationError("forcing amplitude must lie in (-1, 1)")
        return scale * np.log(1.0 + eps * np.cos(2 * np.pi * k * coord))

    x1, _, x3, _ = grid.mesh()
    if cfg.f_plus == "log_cos":
        fp = RealField(
            grid,
            logcos(p.get("f_plus_eps", 0.0), p.get("f_plus_k", 1), x1 / L1, beta)
            * np.ones(grid.shape),
        )
    else:
        fp = RealField.zeros(grid)
    if cfg.f_minus == "log_cos":
        fm = RealField(
            grid,
            logcos(p.get("f_minus_eps", 0.0), p.get("f_minus_m", 1), x3 / L3, 1.0)
            * np.ones(grid.shape),
        )
    else:
        fm = RealField.zeros(grid)
    return fp, fm
