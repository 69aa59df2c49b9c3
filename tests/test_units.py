import math

import pytest
from hypothesis import given, strategies as st

from sowp import units
from sowp.pulse import Pulse

# the wavelength (nm) of unit angular frequency, from the tabulated constants
LAM_UNIT = (units.TWO_PI * units.SPEED_OF_LIGHT_CM_S
            * units.AU_TIME_FS * 1e-15) / 1e-7


class TestWavelengthToOmega:
    def test_reference_wavelength(self):
        # quoted to 4 s.f. in the source of the reference parameters; the
        # exact conversion of 1800 nm gives 0.025313, one ulp below
        assert units.wavelength_to_omega(1800.0) == pytest.approx(0.02532, abs=1e-5)

    def test_unit_frequency_wavelength(self):
        # oracle: invert the definition with the tabulated constants
        assert LAM_UNIT == pytest.approx(45.5633, abs=2e-4)
        assert units.wavelength_to_omega(LAM_UNIT) == pytest.approx(1.0, rel=1e-12)

    def test_scaling_law(self):
        w1 = units.wavelength_to_omega(1234.5)
        w2 = units.wavelength_to_omega(2469.0)
        assert w1 == pytest.approx(2.0 * w2, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            units.wavelength_to_omega(0.0)
        with pytest.raises(ValueError):
            units.wavelength_to_omega(-500.0)


class TestIntensityToField:
    def test_atomic_unit(self):
        assert units.intensity_to_field(3.50945e16) == pytest.approx(1.0, rel=1e-12)

    def test_reference_intensity(self):
        # direct formula evaluation: sqrt(1.3e13 / 3.50945e16)
        expected = math.sqrt(1.3e13 / 3.50945e16)
        got = units.intensity_to_field(1.3e13)
        assert got == pytest.approx(expected, rel=1e-15)
        assert f"{got:.4g}" == "0.01925"

    def test_zero(self):
        assert units.intensity_to_field(0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            units.intensity_to_field(-1.0)


class TestBeatPeriod:
    @pytest.mark.parametrize("splitting, tau_fs", [
        (404.10, 82.5),
        (882.35, 37.8),
        (3685.24, 9.05),
    ])
    def test_halogen_splittings(self, splitting, tau_fs):
        got = units.splitting_to_beat_period(splitting)
        assert float(f"{got:.3g}") == tau_fs

    def test_definition_invariant(self):
        for delta in (1.0, 404.10, 3685.24, 1e5):
            tau_s = units.splitting_to_beat_period(delta) * 1e-15
            assert tau_s * delta * units.SPEED_OF_LIGHT_CM_S == pytest.approx(
                1.0, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            units.splitting_to_beat_period(0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("convert, quantity", [
    (units.wavelength_to_omega, "wavelength"),
    (units.intensity_to_field, "intensity"),
    (units.splitting_to_beat_period, "splitting"),
], ids=["wavelength", "intensity", "splitting"])
def test_rejects_non_finite(convert, quantity, value):
    with pytest.raises(ValueError, match=quantity):
        convert(value)


def test_pulse_from_infinite_wavelength_names_it():
    # an infinite wavelength gave omega = 0 and then A0 = F0/0
    with pytest.raises(ValueError, match="wavelength"):
        Pulse.from_lab(math.inf, 8, 1e13)


@given(st.floats(min_value=1e-3, max_value=1e9))
def test_wavelength_law(lam):
    # omega = 2 pi c / lambda
    assert units.wavelength_to_omega(lam) * lam == pytest.approx(LAM_UNIT,
                                                                 rel=1e-12)


@given(st.floats(min_value=1e-8, max_value=1e20))
def test_intensity_law(intensity):
    # I = F0^2 I_atomic
    field = units.intensity_to_field(intensity)
    assert field * field * units.ATOMIC_INTENSITY_WCM2 == pytest.approx(
        intensity, rel=1e-12)


@given(st.floats(min_value=1e-3, max_value=1e6),
       st.floats(min_value=1.0001, max_value=10.0))
def test_conversions_monotone(x, factor):
    assert units.wavelength_to_omega(x * factor) < units.wavelength_to_omega(x)
    assert units.intensity_to_field(x * factor) > units.intensity_to_field(x)
    assert units.splitting_to_beat_period(x * factor) < units.splitting_to_beat_period(x)


def test_time_round_trip():
    assert units.fs_to_au(units.au_to_fs(123.456)) == pytest.approx(123.456, rel=1e-14)
