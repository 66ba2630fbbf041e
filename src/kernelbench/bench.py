"""The two sensitivity-sweep benchmark scenarios and their reports.

The resolution sweep runs the Sobel detector at four fixed frame sizes; the
operator sweep runs one normalized 3x3 smoothing kernel with increasing
repeat counts at a fixed size. Each row discards warmup frames before
aggregating, and reports serialize to versioned JSON.
"""

from __future__ import annotations

import platform
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

import numpy as np

from .kernels import Kernel
from .pipeline import DEFAULT_VSYNC_HZ, DetectorKind, FramePattern, RunReport, SyntheticSource, run
from .shadergen import ChainPass, ChainSpec

RESOLUTIONS = ((320, 240), (640, 480), (1280, 720), (1920, 1080))
OPERATOR_COUNTS = (2, 10, 20, 50, 100, 500)
WARMUP_FRAMES = 5
DEFAULT_FRAMES = 120
SCHEMA_VERSION = 1

# The operator sweep's fixed workload: a 3x3 box smoother, applied normalized.
SMOOTHING_KERNEL = Kernel(np.ones((3, 3)))


class Scenario(Enum):
    RESOLUTION_SWEEP = "resolutions"
    OPERATOR_SWEEP = "operators"


@dataclass(frozen=True)
class ScenarioRow:
    """One labeled benchmark run within a scenario."""

    label: str
    report: RunReport


@dataclass(frozen=True)
class ScenarioReport:
    """All rows of one scenario plus host context and a schema version."""

    scenario: Scenario
    rows: tuple[ScenarioRow, ...]
    host_note: str
    schema_version: ClassVar[int] = SCHEMA_VERSION

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        if not self.rows:
            raise ValueError("a scenario report needs at least one row")
        labels = [row.label for row in self.rows]
        if len(set(labels)) != len(labels):
            raise ValueError(f"row labels must be unique, got {labels}")

    def to_dict(self) -> dict:
        """Plain-data form for JSON serialization; from_dict inverts it."""
        return {
            "schema_version": self.schema_version,
            "scenario": self.scenario.value,
            "host_note": self.host_note,
            "rows": [
                {"label": row.label, "report": row.report.to_dict()} for row in self.rows
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioReport":
        """Rebuild a report, checking each row as RunReport.from_dict does.

        Raises:
            ValueError: if a key is missing, schema_version is not the int
                SCHEMA_VERSION (a bool or float equal to it is rejected too),
                or a row does not load.
        """
        try:
            version = data["schema_version"]
            if type(version) is not int or version != SCHEMA_VERSION:
                raise ValueError(
                    f"schema_version is {version!r}, this reader needs {SCHEMA_VERSION}"
                )
            rows = tuple(
                ScenarioRow(row["label"], RunReport.from_dict(row["report"]))
                for row in data["rows"]
            )
            return cls(Scenario(data["scenario"]), rows, data["host_note"])
        except KeyError as exc:
            raise ValueError(f"scenario report is missing the key {exc.args[0]!r}") from None


def _host_note() -> str:
    return (
        f"{platform.platform()}; Python {platform.python_version()}; "
        f"numpy {np.__version__}; first {WARMUP_FRAMES} frames of each row "
        f"discarded as warmup"
    )


def _sweep(scenario: Scenario, cases, frames: int, vsync: float) -> ScenarioReport:
    """Run each (label, (width, height), work) case on a seeded gradient source."""
    rows = []
    for label, (width, height), work in cases:
        source = SyntheticSource(width, height, FramePattern.MOVING_GRADIENT, seed=0)
        report = run(source, work, frames=frames, vsync_hz=vsync, warmup=WARMUP_FRAMES)
        rows.append(ScenarioRow(label, report))
    return ScenarioReport(scenario, rows, _host_note())


def scenario_resolutions(
    frames: int = DEFAULT_FRAMES, vsync: float = DEFAULT_VSYNC_HZ
) -> ScenarioReport:
    """Sobel over synthetic sources at the four fixed resolutions.

    Per-pixel work is constant, so CPU processing time should track pixel
    count linearly across the rows.
    """
    cases = ((f"{w}x{h}", (w, h), DetectorKind.SOBEL) for w, h in RESOLUTIONS)
    return _sweep(Scenario.RESOLUTION_SWEEP, cases, frames, vsync)


def scenario_operators(
    frames: int = DEFAULT_FRAMES,
    vsync: float = DEFAULT_VSYNC_HZ,
    resolution: tuple = (320, 240),
) -> ScenarioReport:
    """The smoothing kernel at fixed resolution, swept over repeat counts.

    Chain time should track the repeat count linearly: each additional
    application adds the same per-frame work.
    """
    cases = (
        (str(n), resolution, ChainSpec((ChainPass(SMOOTHING_KERNEL, normalize=True, repeat=n),)))
        for n in OPERATOR_COUNTS
    )
    return _sweep(Scenario.OPERATOR_SWEEP, cases, frames, vsync)
