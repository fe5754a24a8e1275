"""Named weight families, constructible from CLI flags or a config file.

FAMILIES is the one registry of the built-in kinds; the CLI flags, the
accepted config keys and the parsing of every value come from it.

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
Numbers outside the double range and keys the kind does not take are
errors; flags given with a config family override its keys.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple, Optional

from .asymptotics import (SingularityClass, WeightFamily, alpha_exp_family,
                          ewens_family, exp_weight_family, polylog_family,
                          theta_shift_family)
from .errors import UsageError
from .generalized import (SpatialModel, exp_polynomial_weights,
                          spatial_class_params, spatial_effective_weights)
from .specfun import riemann_zeta


def _as_double(text: str) -> float:
    """The double nearest a literal, inf past the range; a ratio is rounded once."""
    if "/" not in text:
        return float(text)
    try:
        return float(Fraction(text))
    except OverflowError:
        return math.inf


def parse_number(text: str) -> Fraction:
    """Exact rational from an int, ratio, or decimal literal.  This is the
    one number check: all class data is float, so a literal that is
    infinite as a double, or 0.0 although it is nonzero, is refused; a
    decimal one before Fraction would build 10**exponent."""
    text = str(text).strip()
    try:
        double = _as_double(text)
        if double == 0 and Fraction(re.split("[eE]", text)[0]) == 0:
            return Fraction(0)
        if double != 0 and not math.isinf(double):
            return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse number {text!r}") from exc
    raise UsageError(f"number {text!r} is outside the double range")


def parse_number_list(text: str) -> list:
    items = [part.strip() for part in str(text).split(",") if part.strip()]
    if not items:
        raise UsageError(f"empty number list {text!r}")
    return [parse_number(part) for part in items]


class Param(NamedTuple):
    """A kind's parameter; a name ending in <j> stands for stem + digits."""

    name: str
    type: type
    help: str
    required: bool = False
    many: bool = False
    flag: bool = True

    @property
    def shown(self) -> str:
        return "--" + self.name.replace("_", "-") if self.flag else self.name

    def parse(self, text):
        values = parse_number_list(text) if self.many else [parse_number(text)]
        values = [float(v) for v in values] if self.type is float else values
        return values if self.many else values[0]


def _build_spatial(alpha: float = 0.0, eps: Optional[list] = None,
                   decays: Optional[list] = None) -> WeightFamily:
    if decays is not None:
        model = SpatialModel(decays, alpha)
    elif eps is not None:
        model = SpatialModel.from_energies(eps, alpha=alpha)
    else:
        raise UsageError("spatial family needs --eps or config key decays")
    return WeightFamily(spatial_effective_weights(model), "spatial",
                        lambda: spatial_class_params(model))


def _build_exp_poly(theta: Fraction, **higher: Fraction) -> WeightFamily:
    """Class F(1, theta) with K = sum_j b_j zeta(j); the weights are the
    per-multiplicity GeneralizedWeights."""
    higher = {int(k[1:]): b for k, b in higher.items()}
    weights = exp_polynomial_weights(theta, higher)

    def regime() -> SingularityClass:
        K = sum(float(b) * riemann_zeta(float(j)) for j, b in sorted(higher.items()))
        return SingularityClass(1.0, float(theta), K)

    return WeightFamily(weights, "exp-poly", regime)


_THETA = "weight parameter"
_AMP = "perturbation amplitude"
_POWER = "perturbation power"
_ALPHA = "site exponent"

# kind -> (constructor, parameters).  The constructors are looked up when
# called, so a wrapper installed on the module attribute sees these calls.
FAMILIES = {
    "ewens": (lambda **kw: ewens_family(**kw), (
        Param("theta", Fraction, _THETA, required=True),)),
    "theta-shift": (lambda **kw: theta_shift_family(**kw), (
        Param("theta", Fraction, _THETA, required=True),
        Param("amp", Fraction, _AMP),
        Param("power", float, _POWER))),
    "polylog": (lambda **kw: polylog_family(**kw), (
        Param("delta", float, "polylog exponent", required=True),)),
    "exp-weight": (lambda **kw: exp_weight_family(**kw), (
        Param("c", float, "exp-weight scale", required=True),
        Param("theta_exp", float, "exp-weight stretch exponent", required=True))),
    "alpha-exp": (lambda **kw: alpha_exp_family(**kw), (
        Param("alpha", float, _ALPHA, required=True),
        Param("amp", float, _AMP),
        Param("power", float, _POWER))),
    "spatial": (_build_spatial, (
        Param("alpha", float, _ALPHA),
        Param("eps", float, "mode energies, comma-separated", many=True),
        Param("decays", Fraction, "mode decay factors", many=True, flag=False))),
    "exp-poly": (_build_exp_poly, (
        Param("theta", Fraction, _THETA, required=True),
        Param("b<j>", Fraction, "coefficient of x^j in P(x)", flag=False))),
}

KINDS = tuple(FAMILIES)


def family_flags() -> dict:
    """{dest: help}, one flag per parameter name that some kind takes as a flag."""
    flags: dict = {}
    for kind, (_, params) in FAMILIES.items():
        for p in params:
            if p.flag:
                flags.setdefault(p.name, (p.help, []))[1].append(kind)
    return {name: f"{text} ({', '.join(kinds)})" for name, (text, kinds) in flags.items()}


def build_family(kind: str, params: dict) -> WeightFamily:
    """Construct a catalog family; params values are strings or numbers.
    Absent optional parameters take the constructor's defaults."""
    if kind not in FAMILIES:
        raise UsageError(f"unknown family kind {kind!r}; known: {', '.join(KINDS)}")
    build, accepted = FAMILIES[kind]
    by_name = {p.name: p for p in accepted}
    values = {}
    for key, text in params.items():
        param = by_name.get(re.sub("[0-9]+$", "<j>", key))
        if param is None:
            raise UsageError(f"family kind {kind} takes no parameter {key.replace('_', '-')!r}; "
                             f"it takes {', '.join(p.shown for p in accepted)}")
        values[key] = param.parse(text)
    for p in accepted:
        if p.required and p.name not in values:
            raise UsageError(f"family parameter {p.shown} is required")
    return build(**values)


def load_config(path: str) -> dict:
    """Parse the INI config into {name: params-dict (with 'kind')}."""
    import configparser
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
                        config_path: Optional[str] = None) -> WeightFamily:
    """Resolve --family: a config section name first, a builtin kind second.
    Flags override the keys of a config section."""
    if config_path is not None:
        families = load_config(config_path)
        if name in families:
            entries = dict(families[name])
            kind = entries.pop("kind")
            return build_family(kind, {**entries, **flag_params})
    if name in KINDS:
        return build_family(name, flag_params)
    hint = f"; config {config_path!r} does not define it" if config_path else ""
    raise UsageError(f"unknown family {name!r}{hint}")

