"""Config-file handling: model files, run configs, hardware files, sidecars.

All files are INI-style key/value sections.  Physical quantities carry their
unit in the key name (``delta_ev``, ``tau_fs``, ``carrier_ev``); energies are
always eV on disk and converted to rad/fs on load.  Floats are written with
``repr`` so a load/save cycle is bit-exact.

Model files use sections [model], [modes], [drive].  Run configs add [run]
plus per-backend sections; the metadata sidecar written next to every output
is itself a complete run config (fully resolved values, seeds included), so
feeding it back reproduces the run byte-for-byte.  The [meta] section carries
versions and diagnostics and is ignored on load.
"""

from __future__ import annotations

import configparser
import dataclasses
import io

import numpy as np

from . import __version__
from .errors import ConfigError
from .model import (
    DriveSpec,
    Envelope,
    LvcmSpec,
    build_ci_model,
    build_plet_model,
    build_toy_model,
    build_vaet_model,
)
from .pulses import HardwareParams
from .units import ev_to_rad_per_fs, ev_to_rad_per_fs_complex, rad_per_fs_to_ev


def _parser() -> configparser.ConfigParser:
    p = configparser.ConfigParser(inline_comment_prefixes=("#",))
    p.optionxform = str  # keep key case
    return p


def _read_ini(path, what: str) -> dict:
    """An INI file's sections as dicts; an unreadable, non-UTF-8 or malformed file raises ConfigError."""
    p = _parser()
    try:
        if not p.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read {what} file {path}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {what} file {path}: not valid UTF-8 at byte {exc.start}") from exc
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        raise ConfigError(f"config parse error: {exc.message.splitlines()[0]}", line=line) from exc
    return {s: dict(p[s]) for s in p.sections()}


def floats(text: str) -> list:
    return [float(tok) for tok in text.replace(",", " ").split()]


def ints(text: str) -> list:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _complexes(text: str) -> list:
    return [complex(tok) for tok in text.split()]


def _boolean(text: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]  # KeyError: not a boolean


def parse_value(section: dict, key: str, kind=float, default=None):
    """``kind`` applied to ``section[key]`` (``default`` when given and the key is absent).

    Text that ``kind`` rejects raises a ConfigError naming the key.
    """
    text = section[key] if default is None else section.get(key, default)
    try:
        return kind(text)
    except (ValueError, KeyError):
        raise ConfigError(f"cannot parse {text!r}", key=key) from None


def parse_bool(section: dict, key: str, default=None) -> bool:
    """``section[key]`` as 1/0, true/false, yes/no or on/off; see :func:`parse_value`."""
    return parse_value(section, key, _boolean, default)


# --- model files -----------------------------------------------------------------


def spec_to_sections(spec: LvcmSpec) -> dict:
    """Model as config sections (energies in eV, full precision)."""
    m, n = spec.state_count, spec.mode_count
    model = {
        "states": str(m),
        "modes": str(n),
        "delta_ev": " ".join(repr(complex(rad_per_fs_to_ev(v))) for v in spec.delta.ravel()),
        "kappa_ev": " ".join(repr(complex(rad_per_fs_to_ev(v))) for v in spec.kappa.ravel()),
    }
    if spec.labels:
        model["labels"] = " ".join(spec.labels)
    sections = {"model": model}
    if n:
        sections["modes"] = {"nu_ev": " ".join(repr(float(rad_per_fs_to_ev(v))) for v in spec.nu)}
    if spec.drive is not None:
        d = spec.drive
        sections["drive"] = {
            "transitions": " ".join(f"{lo}:{hi}" for lo, hi in d.transitions),
            "dipoles": " ".join(f"{float(a)!r},{float(b)!r}" for a, b in d.dipoles),
            "polarization": " ".join(repr(complex(v)) for v in d.polarization),
            "carrier_ev": repr(float(rad_per_fs_to_ev(d.carrier_rad_per_fs))),
            "envelope": d.envelope.kind,
            "amplitude": repr(d.envelope.amplitude),
            "center_fs": repr(d.envelope.center_fs),
            "width_fs": repr(d.envelope.width_fs),
            "rwa": str(d.rwa).lower(),
            "rotating_states": " ".join(str(s) for s in d.rotating_states),
        }
    return sections


#: each preset's settings; the [model] keys after ``preset`` are its builder's arguments, in order
PRESET_SECTIONS = {
    "toy": {"model": {"preset": "toy", "modes": "2", "lambda_over_delta": "1.0"}},
    "ci": {
        "model": {"preset": "ci", "kx_ev": "0.02", "kz_ev": "0.02", "nux_ev": "0.08", "nuz_ev": "0.08"}
    },
    # vaet and plet parameter values are illustrative workbench choices,
    # not measured or published numbers
    "vaet": {
        "model": {
            "preset": "vaet",
            "e_d_ev": "0.0",
            "e_a_ev": "-0.0124",
            "delta_ev": "0.0124",
            "kappa_d1_ev": "0.0062",
            "kappa_d2_ev": "0.0062",
            "kappa_a2_ev": "-0.0062",
            "kappa_a3_ev": "0.0062",
            "nu_ev": "0.0124 0.0186 0.0248",
        }
    },
    "plet": {
        "model": {
            "preset": "plet",
            "omega_ev": "0.0 2.0 2.02 1.98",
            "mu1": "0.012 0.0",
            "mu2": "0.0 0.012",
            "v1_ev": "0.01",
            "v2_ev": "0.01",
        },
        "drive": {
            "polarization": "0.7071067811865476 0.7071067811865476j",
            "carrier_ev": "2.0",
            "envelope": "constant",
            "amplitude": "1.0",
            "rwa": "true",
        },
    },
}


def _with_preset(sections) -> dict:
    """``sections`` with the named model preset's settings laid under the keys they already give."""
    preset = PRESET_SECTIONS.get(sections.get("model", {}).get("preset", "").strip().lower(), {})
    return {**sections, **{name: {**kv, **sections.get(name, {})} for name, kv in preset.items()}}


def spec_from_sections(sections) -> LvcmSpec:
    sections = _with_preset(sections)
    try:
        model = sections["model"]
    except KeyError:
        raise ConfigError("missing [model] section") from None
    try:
        return _spec_from_model(model, sections)
    except KeyError as exc:
        raise ConfigError("model config is missing a required setting", key=exc.args[0]) from None


def _envelope(section: dict) -> Envelope:
    return Envelope(
        kind=section.get("envelope", "constant"),
        amplitude=parse_value(section, "amplitude", float, "1.0"),
        center_fs=parse_value(section, "center_fs", float, "0.0"),
        width_fs=parse_value(section, "width_fs", float, "1.0"),
    )


def _pairs(kind, sep: str, first=None):
    """Parser for whitespace-separated pairs such as ``0:1 1:2``.

    ``first`` parses the left value of each pair (default: ``kind``).
    """
    first = kind if first is None else first

    def pair(tok):
        a, b = tok.split(sep)  # ValueError unless exactly two parts
        return first(a), kind(b)

    return lambda text: tuple(pair(tok) for tok in text.split())


def _sized(section: dict, key: str, kind, count: int, default=None) -> list:
    """:func:`parse_value` of a list that must hold exactly ``count`` values."""
    values = parse_value(section, key, kind, default)
    if len(values) != count:
        raise ConfigError(f"need {count} values, got {len(values)}", key=key)
    return values


#: builders of the presets that take no [drive] section
_BUILDERS = {"toy": build_toy_model, "ci": build_ci_model, "vaet": build_vaet_model}
#: preset [model] keys that hold other than one float
_KINDS = {
    "modes": int, "nu_ev": floats, "omega_ev": floats, "mu1": floats, "mu2": floats, "v1_ev": complex, "v2_ev": complex
}


def _spec_from_model(model: dict, sections) -> LvcmSpec:
    preset = model.get("preset", "custom").strip().lower()
    if preset in _BUILDERS and "drive" in sections:
        raise ConfigError(f"the {preset} preset takes no [drive] section", key="drive")
    if preset in PRESET_SECTIONS:
        keys = [k for k in PRESET_SECTIONS[preset]["model"] if k != "preset"]
        args = [parse_value(model, k, _KINDS.get(k, float)) for k in keys]
        if preset in _BUILDERS:
            return _BUILDERS[preset](*args)
        drive = sections["drive"]
        return build_plet_model(
            *args,
            parse_value(drive, "polarization", _complexes),
            parse_value(drive, "carrier_ev"),
            _envelope(drive),
            rwa=parse_bool(drive, "rwa"),
        )
    if preset != "custom":
        raise ConfigError(f"unknown model preset {preset!r}", key="preset")
    m = parse_value(model, "states", int)
    n = parse_value(model, "modes", int)
    delta = np.array(_sized(model, "delta_ev", _complexes, m * m), dtype=complex).reshape(m, m)
    kappa_list = _sized(model, "kappa_ev", _complexes, m * m * n, "") if n else []
    kappa = np.array(kappa_list, dtype=complex).reshape(m, m, n) if n else np.zeros((m, m, 0))
    nu_ev = np.array(_sized(sections["modes"], "nu_ev", floats, n)) if n else np.zeros(0)
    labels = tuple(model["labels"].split()) if "labels" in model else None
    drive = None
    if "drive" in sections:
        d = sections["drive"]
        drive = DriveSpec(
            transitions=parse_value(d, "transitions", _pairs(int, ":")),
            dipoles=parse_value(d, "dipoles", _pairs(float, ",")),
            polarization=tuple(parse_value(d, "polarization", _complexes)),
            carrier_rad_per_fs=ev_to_rad_per_fs(parse_value(d, "carrier_ev")),
            envelope=_envelope(d),
            rwa=parse_bool(d, "rwa", "true"),
            rotating_states=tuple(parse_value(d, "rotating_states", ints, "")),
        )
    return LvcmSpec(
        ev_to_rad_per_fs_complex(delta),
        ev_to_rad_per_fs_complex(kappa),
        ev_to_rad_per_fs(nu_ev),
        drive=drive,
        labels=labels,
    )


def save_model(spec: LvcmSpec, path) -> None:
    p = _parser()
    for name, kv in spec_to_sections(spec).items():
        p[name] = kv
    with open(path, "w", encoding="utf-8") as fh:
        p.write(fh)


def load_model(path) -> LvcmSpec:
    return spec_from_sections(_read_ini(path, "model"))


# --- hardware files ---------------------------------------------------------------


#: hardware fields that hold one float, in declaration order
_SCALAR_FIELDS = tuple(f.name for f in dataclasses.fields(HardwareParams) if isinstance(f.default, float))


def hardware_to_sections(hw: HardwareParams) -> dict:
    cal = hw.duration_calibration
    return {
        "hardware": {
            "sideband_rabi_khz": f"{hw.sideband_rabi_khz[0]!r} {hw.sideband_rabi_khz[1]!r}",
            **{name: repr(getattr(hw, name)) for name in _SCALAR_FIELDS},
            "duration_slope_us_per_rad": " ".join(f"{n}:{c!r}" for n, (c, _) in sorted(cal.items())),
            "duration_floor_us": " ".join(f"{n}:{f!r}" for n, (_, f) in sorted(cal.items())),
        }
    }


def hardware_from_sections(sections) -> HardwareParams:
    """Hardware parameters of a ``[hardware]`` section; :class:`HardwareParams` checks their ranges."""
    h = sections.get("hardware", {})
    defaults = HardwareParams()
    if not h:
        return defaults

    per_chain = _pairs(float, ":", first=int)  # n:value, n an integer chain size
    cal = dict(defaults.duration_calibration)
    if "duration_slope_us_per_rad" in h or "duration_floor_us" in h:
        slopes = dict(parse_value(h, "duration_slope_us_per_rad", per_chain, "")) or {
            n: c for n, (c, _) in cal.items()
        }
        floors = dict(parse_value(h, "duration_floor_us", per_chain, "")) or {
            n: f for n, (_, f) in cal.items()
        }
        cal = {n: (slopes[n], floors.get(n, 0.0)) for n in slopes}
    rabi = _sized(h, "sideband_rabi_khz", floats, 2) if "sideband_rabi_khz" in h else defaults.sideband_rabi_khz
    return HardwareParams(
        sideband_rabi_khz=(rabi[0], rabi[1]),
        **{name: parse_value(h, name, float, getattr(defaults, name)) for name in _SCALAR_FIELDS},
        duration_calibration=cal,
    )


def load_hardware(path) -> HardwareParams:
    return hardware_from_sections(_read_ini(path, "hardware"))


# --- run configs -------------------------------------------------------------------

RUN_DEFAULTS = {
    "backend": "exact",
    "output": "trace.csv",
    "tau_fs": "400.0",
    "grid_points": "40",
    "seed": "1234",
    "initial_state": "0",
}

EXACT_DEFAULTS = {"eps_int": "1e-08", "eps_cut": "0.0001", "nbar": "0.0", "cutoffs": ""}
EHRENFEST_DEFAULTS = {"trajectories": "100", "nbar": "0.0", "tol": "1e-10"}
ION_DEFAULTS = {
    "trotter_steps": "600",
    "cutoffs": "",
    "motional_dephasing": "true",
    "heating": "true",
    "laser_dephasing": "true",
    "runs_per_point": "0",
    "physical_rotations": "false",
}
ESTIMATE_DEFAULTS = {
    "lambdas": "1 5 10 20 30",
    "modes_list": "2 3 4 5",
    "runs_per_point": "100",
    "time_points": "40",
    "trotter_steps": "600",
}

BACKENDS = ("exact", "ehrenfest", "ion-ideal", "ion-noisy", "compile", "estimate")


@dataclasses.dataclass
class RunConfig:
    """Fully resolved run settings, ready to execute or to serialize as a sidecar."""

    sections: dict

    def section(self, name: str) -> dict:
        return self.sections.get(name, {})

    def spec(self) -> LvcmSpec:
        return spec_from_sections(self.sections)

    def hardware(self) -> HardwareParams:
        return hardware_from_sections(self.sections)


def resolve_run_config(sections: dict) -> RunConfig:
    """Fill in every default, a named preset's settings too, so the resolved config is self-contained."""
    sections = _with_preset(sections)
    out = {}
    out["run"] = {**RUN_DEFAULTS, **sections.get("run", {})}
    backend = out["run"]["backend"]
    if backend not in BACKENDS:
        raise ConfigError(f"unknown backend {backend!r}", key="backend")
    for name in ("model", "modes", "drive", "hardware"):
        if name in sections:
            out[name] = dict(sections[name])
    if backend in ("exact", "ion-ideal", "ion-noisy"):
        # the ion backends' cutoff search and leakage warning use its eps_cut
        out["exact"] = {**EXACT_DEFAULTS, **sections.get("exact", {})}
    if backend == "ehrenfest":
        out["ehrenfest"] = {**EHRENFEST_DEFAULTS, **sections.get("ehrenfest", {})}
    elif backend in ("ion-ideal", "ion-noisy", "compile"):
        out["ion"] = {**ION_DEFAULTS, **sections.get("ion", {})}
    elif backend == "estimate":
        out["estimate"] = {**ESTIMATE_DEFAULTS, **sections.get("estimate", {})}
    return RunConfig(out)


def load_run_sections(path) -> dict:
    """A run config file's sections as written (no defaults, no [meta])."""
    return {name: kv for name, kv in _read_ini(path, "config").items() if name != "meta"}


def load_run_config(path) -> RunConfig:
    return resolve_run_config(load_run_sections(path))


def write_sidecar(config: RunConfig, path, diagnostics: dict | None = None) -> None:
    """Write the resolved config (plus a [meta] block ignored on load)."""
    p = _parser()
    for name, kv in config.sections.items():
        p[name] = {k: str(v) for k, v in kv.items()}
    meta = {"ionvib_version": __version__}
    if diagnostics:
        meta.update({k: str(v) for k, v in diagnostics.items()})
    p["meta"] = meta
    with open(path, "w", encoding="utf-8") as fh:
        p.write(fh)
