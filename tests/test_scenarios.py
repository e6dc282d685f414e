"""Catalog integrity and report plumbing for the end-to-end scenarios.

The heavy scenario content is exercised by the acceptance suite; here we
pin the catalog, the report shape, and one full run of every scenario.
"""

import pytest

from jumploci.scenarios import (CATALOG, ScenarioError, ScenarioReport,
                                describe_scenarios, run_scenario)


EXPECTED = [
    "sl3-witness", "g1-bruteforce", "depth-gap-product", "pencil-resonance",
    "tangent-match", "weight-equivariance", "transversality-product",
    "torus-pi-equals-r11",
]


def test_catalog_names_and_descriptions():
    assert [name for name, _ in CATALOG] == EXPECTED
    for name, desc in describe_scenarios():
        assert name in EXPECTED
        assert desc and not desc.endswith((",", ";"))


def test_unknown_scenario_raises():
    with pytest.raises(ScenarioError):
        run_scenario("atlantis")


def test_report_shape():
    rep = ScenarioReport("demo")
    assert rep.holds  # vacuously
    rep.check("first", True, "fine")
    rep.check("second", False, "broke")
    assert not rep.holds
    d = rep.to_dict()
    assert d["scenario"] == "demo" and d["holds"] is False
    assert [c["ok"] for c in d["checks"]] == [True, False]
    lines = rep.lines()
    assert lines[0] == "scenario demo: FAIL"
    assert any("broke" in line for line in lines)


@pytest.mark.parametrize("name", EXPECTED)
def test_cheap_scenarios_hold(name):
    report = run_scenario(name)
    assert report.holds, "\n".join(report.lines())
    d = report.to_dict()
    assert d["scenario"] == name
    assert d["checks"]


def test_scenario_field_override():
    from jumploci.scalars import GF
    report = run_scenario("tangent-match", field=GF(5))
    assert report.holds, "\n".join(report.lines())
