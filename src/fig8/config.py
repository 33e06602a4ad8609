"""Run configuration: one JSON-serializable object tying together the
potential, integrator settings, solver tolerances, scan and continuation
parameters, and output location. Command-line flags override file values.
"""

import json
from dataclasses import dataclass, field, replace

from .artifacts import write_json
from .dynamics import PotentialSpec
from .integrate import IntegratorConfig

__all__ = ["RunConfig", "ConfigError", "load_config", "parse_potential"]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Malformed configuration file or flag."""


@dataclass(frozen=True)
class RunConfig:
    potential: PotentialSpec = field(default_factory=PotentialSpec.lj)
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    newton_tol: float = 1e-10
    newton_max_iter: int = 50
    scan_y0_range: tuple[float, float] = (0.45, 1.3)
    scan_v_range: tuple[float, float] = (0.05, 0.7)
    scan_n_y0: int = 200
    scan_n_v: int = 200
    continuation_step: float = 0.01
    continuation_steps: int = 500
    orbit_samples: int = 2400
    out_dir: str = "fig8-out"
    jobs: int = 1

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "potential": self.potential.to_json_dict(),
            "integrator": self.integrator.to_json_dict(),
            "newton_tol": self.newton_tol,
            "newton_max_iter": self.newton_max_iter,
            "scan_y0_range": list(self.scan_y0_range),
            "scan_v_range": list(self.scan_v_range),
            "scan_n_y0": self.scan_n_y0,
            "scan_n_v": self.scan_n_v,
            "continuation_step": self.continuation_step,
            "continuation_steps": self.continuation_steps,
            "orbit_samples": self.orbit_samples,
            "out_dir": self.out_dir,
            "jobs": self.jobs,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "RunConfig":
        try:
            schema = d.get("schema", SCHEMA_VERSION)
            if schema != SCHEMA_VERSION:
                raise ConfigError(f"unsupported config schema {schema}")
            kwargs = {}
            if "potential" in d:
                kwargs["potential"] = PotentialSpec.from_json_dict(d["potential"])
            if "integrator" in d:
                kwargs["integrator"] = IntegratorConfig.from_json_dict(d["integrator"])
            for key in ("newton_tol", "continuation_step"):
                if key in d:
                    kwargs[key] = float(d[key])
            for key in ("newton_max_iter", "scan_n_y0", "scan_n_v",
                        "continuation_steps", "orbit_samples", "jobs"):
                if key in d:
                    kwargs[key] = int(d[key])
            for key in ("scan_y0_range", "scan_v_range"):
                if key in d:
                    lo, hi = d[key]
                    kwargs[key] = (float(lo), float(hi))
            if "out_dir" in d:
                kwargs["out_dir"] = str(d["out_dir"])
            return cls(**kwargs)
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad config: {exc}") from exc

    def save(self, path):
        write_json(path, self.to_json_dict())

    def override(self, **kwargs) -> "RunConfig":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **kwargs)


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            return RunConfig.from_json_dict(json.load(fh))
    except (OSError,) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def parse_potential(text: str) -> PotentialSpec:
    """Compact CLI syntax: lj | lj:b,a | homogeneous:a. Any other kind is
    a ConfigError naming the two kinds."""
    name, _, argstr = text.partition(":")
    args = [float(a) for a in argstr.split(",") if a] if argstr else []
    try:
        if name == "lj":
            return PotentialSpec.lj(*args) if args else PotentialSpec.lj()
        if name == "homogeneous":
            return PotentialSpec.homogeneous(args[0])
        return PotentialSpec(kind=name)  # rejected, naming the kinds
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"bad potential {text!r}: {exc}") from exc
