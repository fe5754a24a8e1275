"""Named weight families, constructible from CLI flags or a config file.

The config file is INI: one section per family name, a ``kind`` key
naming the construction, and the kind's parameters:

    [my-two-point]
    kind = spatial
    alpha = 0
    decays = 1, 1/2

    [perturbed]
    kind = theta-shift
    theta = 2
    amp = 1
    power = 2

Numbers may be integers, ratios (1/2), or decimals; ratios and decimal
literals are kept exact where the family supports an exact backend.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .asymptotics import (SingularityClass, WeightFamily, alpha_exp_family,
                          ewens_family, exp_weight_family, polylog_family,
                          theta_shift_family)
from .errors import UsageError
from .generalized import (GeneralizedWeights, SpatialModel,
                          exp_polynomial_weights, spatial_class_params,
                          spatial_effective_weights)

KINDS = ("ewens", "theta-shift", "polylog", "exp-weight", "alpha-exp",
         "spatial", "exp-poly")


@dataclass
class GeneralizedFamily:
    """Catalog handle for a family given by per-multiplicity weights."""

    fweights: GeneralizedWeights
    cls: Optional[SingularityClass]
    provenance: str
    params: dict = field(default_factory=dict)

    def require_class(self) -> SingularityClass:
        if self.cls is None:
            raise UsageError(f"family {self.provenance} has no singularity class")
        return self.cls


FamilyHandle = Union[WeightFamily, GeneralizedFamily]


def parse_number(text: str) -> Fraction:
    """Exact rational from an int, ratio, or decimal literal."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse number {text!r}") from exc


def parse_number_list(text: str) -> list:
    items = [part.strip() for part in str(text).split(",") if part.strip()]
    if not items:
        raise UsageError(f"empty number list {text!r}")
    return [parse_number(part) for part in items]


def _get(params: dict, key: str, default=None, required: bool = False):
    if key in params and params[key] is not None:
        return params[key]
    if required:
        raise UsageError(f"family parameter --{key.replace('_', '-')} is required")
    return default


def build_family(kind: str, params: dict) -> FamilyHandle:
    """Construct a catalog family; params values are strings or numbers."""
    if kind == "ewens":
        theta = parse_number(_get(params, "theta", required=True))
        fam = ewens_family(theta)
    elif kind == "theta-shift":
        fam = theta_shift_family(
            parse_number(_get(params, "theta", required=True)),
            amp=parse_number(_get(params, "amp", 1)),
            power=float(parse_number(_get(params, "power", 2))),
        )
    elif kind == "polylog":
        fam = polylog_family(float(parse_number(_get(params, "delta", required=True))))
    elif kind == "exp-weight":
        fam = exp_weight_family(
            float(parse_number(_get(params, "c", required=True))),
            float(parse_number(_get(params, "theta_exp", required=True))),
        )
    elif kind == "alpha-exp":
        fam = alpha_exp_family(
            float(parse_number(_get(params, "alpha", required=True))),
            amp=float(parse_number(_get(params, "amp", 0))),
            power=float(parse_number(_get(params, "power", 2))),
        )
    elif kind == "spatial":
        fam = _build_spatial(params)
    elif kind == "exp-poly":
        return _build_exp_poly(params)
    else:
        raise UsageError(f"unknown family kind {kind!r}; known: {', '.join(KINDS)}")
    return fam


def _build_spatial(params: dict) -> WeightFamily:
    alpha = float(parse_number(_get(params, "alpha", 0)))
    decays_text = _get(params, "decays")
    eps_text = _get(params, "eps")
    if decays_text is not None:
        model = SpatialModel.from_decays(parse_number_list(decays_text), alpha=alpha)
    elif eps_text is not None:
        eps = [float(e) for e in parse_number_list(eps_text)]
        model = SpatialModel(tuple(eps), alpha=alpha)
    else:
        raise UsageError("spatial family needs --eps or config key decays")
    base = SingularityClass("F", 1.0, math.exp(-alpha), 0.0)
    cls = spatial_class_params(model, base)
    weights = spatial_effective_weights(model)
    fam = WeightFamily(weights, cls, "spatial",
                       params={"alpha": alpha,
                               "decays": [str(d) for d in model.decays]})
    fam.model = model
    return fam


def _build_exp_poly(params: dict) -> GeneralizedFamily:
    theta = parse_number(_get(params, "theta", required=True))
    higher = {}
    for key, value in params.items():
        if key.startswith("b") and key[1:].isdigit():
            degree = int(key[1:])
            higher[degree] = parse_number(value)
    fweights = exp_polynomial_weights(theta, higher)
    return GeneralizedFamily(fweights, fweights.singularity, "exp-poly",
                             params={"theta": str(theta),
                                     **{f"b{j}": str(c) for j, c in sorted(higher.items())}})


def load_config(path: str) -> dict:
    """Parse the INI config into {name: params-dict (with 'kind')}."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise UsageError(f"config file {path!r} not found or unreadable")
    families = {}
    for section in parser.sections():
        entries = {key.replace("-", "_"): value for key, value in parser[section].items()}
        if "kind" not in entries:
            raise UsageError(f"config section [{section}] is missing 'kind'")
        families[section] = entries
    return families


def family_from_request(name: str, flag_params: dict,
                        config_path: Optional[str] = None) -> FamilyHandle:
    """Resolve --family: a config section name first, a builtin kind second."""
    if config_path is not None:
        families = load_config(config_path)
        if name in families:
            entries = dict(families[name])
            kind = entries.pop("kind")
            return build_family(kind, entries)
    if name in KINDS:
        return build_family(name, flag_params)
    hint = f"; config {config_path!r} does not define it" if config_path else ""
    raise UsageError(f"unknown family {name!r}{hint}")


def exact_capable(handle: FamilyHandle) -> bool:
    """Whether the family's weights carry an exact rule (true rationals
    rather than float snapshots), which is when the exact backend is
    worth defaulting to."""
    if isinstance(handle, GeneralizedFamily):
        return handle.fweights.has_exact_rule
    return handle.weights.has_exact_rule
