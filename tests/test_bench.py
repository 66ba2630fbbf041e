import json
import pathlib

import jsonschema
import pytest

from kernelbench import (
    DEFAULT_FRAMES,
    OPERATOR_COUNTS,
    RESOLUTIONS,
    WARMUP_FRAMES,
    Engine,
    FrameStats,
    RunReport,
    Scenario,
    ScenarioReport,
    ScenarioRow,
    scenario_operators,
    scenario_resolutions,
)

SCHEMA = json.loads(
    (pathlib.Path(__file__).parent.parent / "docs" / "report_schema.json").read_text()
)


def test_fixed_sweep_constants():
    assert RESOLUTIONS == ((320, 240), (640, 480), (1280, 720), (1920, 1080))
    assert OPERATOR_COUNTS == (2, 10, 20, 50, 100, 500)
    assert WARMUP_FRAMES == 5
    assert DEFAULT_FRAMES == 120


def test_operator_sweep_labels_and_shape():
    report = scenario_operators(frames=1, resolution=(48, 32))
    assert report.scenario is Scenario.OPERATOR_SWEEP
    assert [row.label for row in report.rows] == ["2", "10", "20", "50", "100", "500"]
    for row in report.rows:
        assert row.report.frame_count == 1
        assert RunReport.from_dict(row.report.to_dict()) == row.report


def test_operator_sweep_time_grows_with_repeats():
    report = scenario_operators(frames=2, resolution=(64, 48))
    times = [row.report.mean_processing_ms for row in report.rows]
    assert times == sorted(times)
    assert times[-1] > times[0] * 10


def test_resolution_sweep_labels(tiny_resolution_report):
    report = tiny_resolution_report
    assert report.scenario is Scenario.RESOLUTION_SWEEP
    assert [row.label for row in report.rows] == [
        "320x240",
        "640x480",
        "1280x720",
        "1920x1080",
    ]


def test_resolution_sweep_time_grows_with_pixels(tiny_resolution_report):
    times = [row.report.mean_processing_ms for row in tiny_resolution_report.rows]
    assert times == sorted(times)
    assert times[0] > 0.0


def test_host_note_documents_warmup(tiny_resolution_report):
    assert str(WARMUP_FRAMES) in tiny_resolution_report.host_note
    assert "warmup" in tiny_resolution_report.host_note


def test_scenario_report_validates_rows():
    report = RunReport([FrameStats(1.0, 2.0)], 60.0)
    with pytest.raises(ValueError):
        ScenarioReport(Scenario.OPERATOR_SWEEP, (), "host")
    with pytest.raises(ValueError):
        ScenarioReport(
            Scenario.OPERATOR_SWEEP,
            (ScenarioRow("2", report), ScenarioRow("2", report)),
            "host",
        )


def test_scenario_report_dict_round_trip(tiny_resolution_report):
    report = tiny_resolution_report
    assert ScenarioReport.from_dict(report.to_dict()) == report
    rehydrated = ScenarioReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert rehydrated == report
    tampered = report.to_dict()
    tampered["rows"][1]["report"]["mean_processing_ms"] = 99.0
    with pytest.raises(ValueError, match="mean_processing_ms"):
        ScenarioReport.from_dict(tampered)


def test_serialized_reports_validate_against_schema(tiny_resolution_report):
    jsonschema.validate(tiny_resolution_report.to_dict(), SCHEMA)
    operators = scenario_operators(frames=1, resolution=(48, 32))
    jsonschema.validate(operators.to_dict(), SCHEMA)


def test_chainref_engine_runs_the_sweep():
    report = scenario_operators(engine=Engine.CHAIN_REFERENCE, frames=1, resolution=(32, 24))
    assert len(report.rows) == 6
    for row in report.rows:
        assert RunReport.from_dict(row.report.to_dict()) == row.report


@pytest.fixture(scope="module")
def tiny_resolution_report():
    return scenario_resolutions(frames=2)
