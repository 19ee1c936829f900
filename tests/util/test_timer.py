"""Tests for the model clock."""

import pytest

from repro.util.timer import ModelClock


class TestModelClock:
    def test_charge_accumulates(self):
        c = ModelClock()
        c.charge(1.5, "compute")
        c.charge(0.5, "comm")
        assert c.now == pytest.approx(2.0)
        assert c.breakdown() == {"compute": 1.5, "comm": 0.5}

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            ModelClock().charge(-1.0)

    def test_advance_to_future(self):
        c = ModelClock()
        c.charge(1.0)
        c.advance_to(3.0, "wait")
        assert c.now == pytest.approx(3.0)
        assert c.breakdown()["wait"] == pytest.approx(2.0)

    def test_advance_to_past_is_noop(self):
        c = ModelClock()
        c.charge(5.0)
        c.advance_to(2.0)
        assert c.now == pytest.approx(5.0)
        assert "wait" not in c.breakdown()

    def test_fraction(self):
        c = ModelClock()
        c.charge(3.0, "compute")
        c.charge(1.0, "comm")
        assert c.fraction("comm") == pytest.approx(0.25)
        assert c.fraction("missing") == 0.0

    def test_fraction_of_zero_clock(self):
        assert ModelClock().fraction("compute") == 0.0

    def test_reset(self):
        c = ModelClock()
        c.charge(1.0)
        c.reset()
        assert c.now == 0.0
        assert c.breakdown() == {}
