"""Codec construction and noise-level-dependent family resolution."""

import math
from dataclasses import replace

from .base import (
    Codec,
    CodecSpec,
    CapacityError,
    NormalizationRecord,
    measure_normalization,
    K_CAP,
    SCHEMES,
    GROUPING_VARIANTS,
)
from .linear import RepetitionCodec, ShiftMapCodec, SphericalCodec, optimal_a
from .layered import Scheme1Codec, Scheme2Codec
from .hybrid import Type1Codec, Type2Codec
from .unbounded import UnboundedWrapCodec

_BUILDERS = {
    "repetition": RepetitionCodec,
    "shift_map": ShiftMapCodec,
    "spherical": SphericalCodec,
    "scheme1": Scheme1Codec,
    "scheme2": Scheme2Codec,
    "type1": Type1Codec,
    "type2": Type2Codec,
}


def build_codec(spec: CodecSpec) -> Codec:
    """Instantiate the codec for a fully resolved spec."""
    if spec.scheme == "unbounded_wrap":
        return UnboundedWrapCodec(spec, build_codec(spec.inner))
    return _BUILDERS[spec.scheme](spec)


def digital_depth_for_sigma(sigma: float) -> int:
    """Digital layer depth matched to the noise level, floor(-log2 sigma)."""
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must be in (0, 1), got {sigma}")
    k = int(math.floor(-math.log2(sigma)))
    if k > K_CAP:
        raise CapacityError(
            f"noise level {sigma} asks for digital depth {k} > {K_CAP} "
            "bits per dimension; beyond exact float64 bookkeeping")
    return max(k, 1)


def resolve_for_sigma(spec: CodecSpec, sigma: float) -> CodecSpec:
    """Fill in noise-adaptive parameters, returning a buildable spec.

    Shift-map specs with no multiplier get the mean-squared-error-optimal
    stretch for this noise level; hybrid specs with no k get the matched
    digital depth.  Specs that are already concrete pass through unchanged.
    """
    if not spec.is_family:
        return spec
    if spec.scheme == "shift_map":
        a, _ = optimal_a(sigma, spec.n)
        return replace(spec, a=a)
    if spec.scheme in ("type1", "type2"):
        k = digital_depth_for_sigma(sigma)
        slack = 1 if spec.scheme == "type1" else 0
        if spec.n * k - slack > spec.p:
            raise CapacityError(
                f"noise level {sigma} asks for {k} digital bits on each of "
                f"{spec.n} dimensions; only {spec.p} tracked bits available")
        return replace(spec, k=k)
    raise ValueError(f"cannot resolve scheme {spec.scheme!r}")


__all__ = [
    "Codec",
    "CodecSpec",
    "CapacityError",
    "NormalizationRecord",
    "measure_normalization",
    "build_codec",
    "resolve_for_sigma",
    "digital_depth_for_sigma",
    "optimal_a",
    "K_CAP",
    "SCHEMES",
    "GROUPING_VARIANTS",
]
