"""The scenario records and the paper's kinds, in pure Python.

The bath parameters, the spin layout, the flat ``Scenario`` and the ``KINDS``
table with its builder ``scenario(kind, **params)`` check every value as they
are built and import no numeric module, so a bad run configuration is
rejected before numpy loads.  ``decoherence`` and ``dynamics`` evaluate them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidParams, UnsupportedScenario


@dataclass(frozen=True)
class OhmicSpectralDensity:
    """J(w) = alpha * w^s / w_c^(s-1) * exp(-w / w_c)."""

    alpha: float
    s_ohmic: float
    omega_c: float

    def __post_init__(self):
        # written as a chained comparison so that NaN fails too
        if not 0 <= self.alpha < math.inf:
            raise InvalidParams("alpha must be finite and >= 0")
        if not 0 < self.s_ohmic < math.inf:
            raise InvalidParams("Ohmic exponent must be finite and > 0")
        if not 0 < self.omega_c < math.inf:
            raise InvalidParams("cutoff frequency must be finite and > 0")


@dataclass(frozen=True)
class ThermalBathParams:
    spectral: OhmicSpectralDensity
    temperature: float = 0.0

    def __post_init__(self):
        if not 0 <= self.temperature < math.inf:
            raise InvalidParams("temperature must be finite and >= 0")


@dataclass(frozen=True)
class SqueezedBathParams:
    spectral: OhmicSpectralDensity
    r: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if not 0 <= self.r < math.inf:
            raise InvalidParams("squeezing amplitude must be finite and >= 0")
        if not math.isfinite(self.theta):
            raise InvalidParams("squeezing phase must be finite")


@dataclass(frozen=True)
class SpinLayout:
    """Ordered subsystem spins; spin s contributes 2s+1 levels (``dims``, set once)."""

    spins: tuple
    dims: tuple = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.spins:
            raise InvalidParams("layout needs at least one spin")
        spins = []
        for s in self.spins:
            f = Fraction(s).limit_denominator(2)
            if f != Fraction(s) or f <= 0:
                raise InvalidParams(f"spin {s} is not a positive half-integer")
            spins.append(f)
        object.__setattr__(self, "spins", tuple(spins))
        object.__setattr__(self, "dims", tuple(int(2 * s) + 1 for s in spins))
        object.__setattr__(self, "dim", math.prod(self.dims))


QUBIT_QUTRIT = SpinLayout((Fraction(1, 2), Fraction(1)))


def _integer_vector(c) -> tuple[int, ...]:
    try:
        v = tuple(int(x) for x in c)
        ok = v == tuple(c)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise InvalidParams(f"coupling {c!r} is not an integer vector")
    return v


@dataclass(frozen=True)
class Scenario:
    """A spin layout and what the dephasing formula reads: sources and couplings.

    ``bath`` (thermal or squeezed) acts once on each vector of
    ``bath_couplings``, as independent copies; telegraph noise switching at
    rate ``q`` per unit of telegraph time likewise on each vector of
    ``rtn_couplings``.  q = gamma / nu, switching rate over coupling,
    separates fast (q >> 1, memoryless) from slow (q << 1, memory-bearing)
    noise.  A coupling vector holds one integer per spin.  ``nu_ratio`` is
    the telegraph clock: telegraph time per unit tau.
    """

    layout: SpinLayout
    bath: ThermalBathParams | SqueezedBathParams | None = None
    bath_couplings: tuple = ()
    q: float | None = None
    rtn_couplings: tuple = ()
    nu_ratio: float = 1.0

    def __post_init__(self):
        if self.q is not None and not 0 <= self.q < math.inf:
            raise InvalidParams("switching rate must be finite and >= 0")
        bath_c = tuple(_integer_vector(c) for c in self.bath_couplings)
        rtn_c = tuple(_integer_vector(c) for c in self.rtn_couplings)
        if (self.bath is None) != (not bath_c) or (self.q is None) != (not rtn_c):
            raise InvalidParams("a source needs coupling vectors, and a "
                                "coupling vector needs its source")
        if not (bath_c or rtn_c):
            raise InvalidParams("an environment needs at least one coupling")
        if not 0 < self.nu_ratio < math.inf:
            raise InvalidParams("nu_ratio must be finite and > 0")
        n = len(self.layout.spins)
        if n > 2:
            raise UnsupportedScenario(f"a layout holds one or two spins, not {n}")
        for c in bath_c + rtn_c:
            if len(c) != n:
                raise UnsupportedScenario(
                    f"coupling {c} does not fit a layout of {n} spin(s)")
        object.__setattr__(self, "bath_couplings", bath_c)
        object.__setattr__(self, "rtn_couplings", rtn_c)


_BATH = {"alpha": 0.1, "s_ohmic": 3.0, "omega_c": 20.0}
_SQUEEZING = {"r": 0.3, "theta": 0.0}

#: kind -> (keys with their defaults, the figure parameters; bath coupling rows;
#: telegraph coupling rows), rows for the qubit-qutrit pair.  ``spin`` (default
#: None, the pair, and kept last) selects a single spin-s qudit with one bath copy.
KINDS = {
    "squeezed": ({**_BATH, **_SQUEEZING, "spin": None}, ((1, 0), (0, 1)), ()),
    "thermal": ({**_BATH, "temperature": 0.0, "spin": None}, ((1, 0), (0, 1)), ()),
    "rtn_independent": ({"q": 0.1}, (), ((2, 0), (0, 1))),
    "rtn_common": ({"q": 0.1}, (), ((2, 1),)),
    "composite": ({**_BATH, **_SQUEEZING, "q": 0.1, "nu_ratio": 100.0},
                  ((0, 1),), ((2, 0),)),
}


def scenario(kind: str, number=None, /, **params) -> Scenario:
    """The scenario of ``kind``, a key of KINDS, with ``params`` over its defaults.

    ``number(key, value)``, if given, converts each value of ``params`` in the
    order of the defaults, after the kind and the keys are checked."""
    if not isinstance(kind, str) or kind not in KINDS:
        raise InvalidParams(f"unknown scenario kind {kind!r}")
    defaults, bath_c, rtn_c = KINDS[kind]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise InvalidParams(f"unknown key(s) {unknown} for kind {kind!r}")
    convert = number or (lambda key, value: value)
    kw = {k: convert(k, params[k]) if k in params else v for k, v in defaults.items()}
    layout = QUBIT_QUTRIT
    if kw.get("spin") is not None:
        layout, bath_c = SpinLayout((kw["spin"],)), ((1,),)
    bath = None
    if bath_c:
        J = OhmicSpectralDensity(kw["alpha"], kw["s_ohmic"], kw["omega_c"])
        bath = (ThermalBathParams(J, kw["temperature"]) if "temperature" in kw
                else SqueezedBathParams(J, kw["r"], kw["theta"]))
    return Scenario(layout, bath, bath_c, kw["q"] if rtn_c else None, rtn_c,
                    kw.get("nu_ratio", 1.0))
