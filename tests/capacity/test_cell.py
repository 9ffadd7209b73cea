"""Picosecond quantization of attribution segments (``to_ps``)."""

from repro.sim.trace import to_ps

PS_PER_S = 10 ** 12


class TestQuantization:
    def test_to_ps_is_integer_picoseconds(self):
        assert to_ps(1.0) == PS_PER_S
        assert to_ps(1.5e-6) == 1_500_000
        assert isinstance(to_ps(0.123456), int)

    def test_quantization_error_is_subpicosecond(self):
        value = 3.141592653589793e-3
        assert abs(to_ps(value) / PS_PER_S - value) < 1.0 / PS_PER_S
