"""Codec construction, validation, and per-noise-level family resolution."""

import math

import pytest

from jscc.codecs import (
    DIMS_CAP,
    SCHEMES,
    CapacityError,
    CodecSpec,
    build_codec,
    digital_depth_for_sigma,
    resolve_for_sigma,
)


def test_every_concrete_scheme_builds():
    specs = [
        CodecSpec("repetition", n=2),
        CodecSpec("shift_map", n=3, a=2),
        CodecSpec("spherical", n=2, a=3),
        CodecSpec("scheme1", n=2, alpha=3.0),
        CodecSpec("scheme2", n=4, grouping_variant="shifted"),
        CodecSpec("type1", n=2, k=3),
        CodecSpec("type2", n=2, k=3),
        CodecSpec("unbounded_wrap", n=2),
    ]
    for spec in specs:
        codec = build_codec(spec)
        assert codec.dims == spec.dims
        assert spec.scheme in codec.spec.describe()


def test_family_specs_need_resolution():
    family = CodecSpec("shift_map", n=2)
    assert family.is_family
    with pytest.raises(ValueError):
        build_codec(family)
    concrete = resolve_for_sigma(family, 1e-3)
    assert concrete.a == 33
    build_codec(concrete)


def test_digital_depth_band():
    assert digital_depth_for_sigma(2.0 ** -3) == 3
    assert digital_depth_for_sigma(0.9 * 2.0 ** -3) == 3
    assert digital_depth_for_sigma(0.3) == 1
    assert digital_depth_for_sigma(0.7) == 1  # clamp at the shallow end
    assert digital_depth_for_sigma(1.0) == 1  # 0 dB
    assert digital_depth_for_sigma(10 ** (5 / 20)) == 1  # -5 dB
    for sigma in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="sigma must be positive"):
            digital_depth_for_sigma(sigma)
    with pytest.raises(CapacityError):
        digital_depth_for_sigma(2.0 ** -25.5)


def test_type_family_resolution():
    spec = resolve_for_sigma(CodecSpec("type1", n=2), 0.04)
    assert spec.k == 4
    with pytest.raises(CapacityError):
        resolve_for_sigma(CodecSpec("type2", n=4), 2.0 ** -14)


def test_concrete_specs_pass_through():
    spec = CodecSpec("scheme1", n=2, alpha=3.0)
    assert resolve_for_sigma(spec, 0.1) is spec


def test_validation_errors():
    with pytest.raises(ValueError):
        CodecSpec("nonsense", n=2)
    with pytest.raises(ValueError):
        CodecSpec("spherical", n=2)
    with pytest.raises(ValueError):
        CodecSpec("shift_map", n=2, a=1)
    with pytest.raises(ValueError):
        CodecSpec("type1", n=2, k=0)
    with pytest.raises(CapacityError):
        CodecSpec("type1", n=2, k=25, p=50)
    with pytest.raises(ValueError):
        CodecSpec("scheme2", n=1)


# The fields a spec of each scheme needs besides n.
_NEEDED = {"spherical": {"a": 3}, "scheme1": {"alpha": 3.0}}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_channel_dimensions_are_capped(scheme):
    fields = _NEEDED.get(scheme, {})
    per_n = 2 if scheme == "spherical" else 1
    assert CodecSpec(scheme, n=DIMS_CAP // per_n, **fields).dims == DIMS_CAP
    for n in (DIMS_CAP // per_n + 1, 10 ** 8):
        with pytest.raises(CapacityError, match="exceed the cap"):
            CodecSpec(scheme, n=n, **fields)


@pytest.mark.parametrize("fields", [
    {"scheme": "shift_map", "n": 2.5, "a": 3},
    {"scheme": "type1", "n": 2, "k": 2.5},
    {"scheme": "scheme1", "n": "2", "alpha": 3},
    {"scheme": "repetition", "n": 2, "p": 10.5},
    {"scheme": "repetition", "n": True},
    {"scheme": "repetition", "n": 2, "a": [3]},
    {"scheme": "repetition", "n": 2, "alpha": [3]},
    {"scheme": "scheme1", "n": 2, "alpha": "3"},
])
def test_integer_and_number_fields_are_checked(fields):
    with pytest.raises(ValueError):
        CodecSpec(**fields)


def test_describe_mentions_parameters():
    assert "a=33" in CodecSpec("shift_map", n=2, a=33).describe()
    assert "k=auto" in CodecSpec("type2", n=2).describe()
    assert "shifted" in CodecSpec("scheme2", n=2, grouping_variant="shifted").describe()
    assert CodecSpec("unbounded_wrap", n=2).describe() == "unbounded_wrap n=2"
    assert (CodecSpec("unbounded_wrap", n=3, grouping_variant="shifted").describe()
            == "unbounded_wrap n=3 shifted")
