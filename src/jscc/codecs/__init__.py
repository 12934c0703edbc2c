"""Codec construction and noise-level-dependent family resolution."""

import math
from dataclasses import replace

from .base import (
    Codec,
    CodecSpec,
    CapacityError,
    NormalizationRecord,
    measure_normalization,
    DIMS_CAP,
    K_CAP,
    SCHEMES,
    GROUPING_VARIANTS,
    _SCHEMES,
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
    "unbounded_wrap": UnboundedWrapCodec,
}


def build_codec(spec: CodecSpec) -> Codec:
    """Instantiate the codec for a fully resolved spec."""
    return _BUILDERS[spec.scheme](spec)


def digital_depth_for_sigma(sigma: float) -> int:
    """Digital layer depth matched to the noise level, floor(-log2 sigma),
    and 1 for every sigma above 1/2."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    k = int(math.floor(-math.log2(min(sigma, 1.0))))
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
    if "a" in _SCHEMES[spec.scheme].open:
        return replace(spec, a=optimal_a(sigma, spec.n))
    k = digital_depth_for_sigma(sigma)
    if spec.digital_bits(k) > spec.p:
        raise CapacityError(
            f"noise level {sigma} asks for {k} digital bits on each of "
            f"{spec.n} dimensions; only {spec.p} tracked bits available")
    return replace(spec, k=k)


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
    "DIMS_CAP",
    "K_CAP",
    "SCHEMES",
    "GROUPING_VARIANTS",
]
