"""The machine form of an attribution (``attribution_payload``)."""

from repro.sim.trace import ATTRIBUTION_SCHEMA, attribution_payload


class TestAttributionPayload:
    def test_schema_and_exact_total(self):
        payload = attribution_payload({"b.y": 2, "a.x": 1}, source="test")
        assert payload["schema"] == ATTRIBUTION_SCHEMA
        assert list(payload["segments_ps"]) == ["a.x", "b.y"]  # sorted
        assert payload["total_ps"] == 3
