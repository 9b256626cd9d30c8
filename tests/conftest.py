import pytest

import confmod.chiral as ch
import confmod.modular as md


@pytest.fixture
def bw_applications(monkeypatch):
    """Counts of the pairs of synthesis tables (chiral._mode_synthesis) and
    of the modular flow applications (apply_flow_real) made in the test."""
    calls = {"synthesis": 0, "flow": 0}
    synthesis, flow = ch._mode_synthesis, md._PlaneOperators.apply_flow_real

    def counted_synthesis(model, angles):
        calls["synthesis"] += 1
        return synthesis(model, angles)

    def counted_flow(self, t, cols):
        calls["flow"] += 1
        return flow(self, t, cols)

    monkeypatch.setattr(ch, "_mode_synthesis", counted_synthesis)
    monkeypatch.setattr(md._PlaneOperators, "apply_flow_real", counted_flow)
    return calls
