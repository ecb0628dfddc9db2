"""Measurement harness: campaigns, records, locations, pacing, surge."""

from repro.measure.campaign import CampaignRunner
from repro.measure.ethics import DEFAULT_PACING, OVERLOAD_PACING, PacingPolicy
from repro.measure.faults import FaultPlan
from repro.measure.locations import (
    LocationCell,
    location_matrix,
    mean_by_client,
    ordering_by_cell,
)
from repro.measure.parallel import (
    CampaignOutcome,
    CampaignSpec,
    CellSpec,
    ParallelCampaign,
    UnitResult,
    WorkUnit,
    matrix_cells,
)
from repro.measure.records import (
    ChunkedColumnStore,
    ColumnStore,
    GroupedValues,
    MeasurementRecord,
    Method,
    ReducibleResults,
    ResultSet,
    TargetKind,
    record_to_row,
)
from repro.measure.store import ShardedResultStore
from repro.measure.supervise import (
    FailedUnit,
    RetryPolicy,
    Supervisor,
    UnitJournal,
)
from repro.measure.surge import (
    POST_SEPTEMBER_MONTHS,
    PRE_SEPTEMBER_MONTHS,
    SNOWFLAKE_USER_TIMELINE,
    SurgePoint,
    post_september_level,
    pre_september_level,
    surge_level_for,
)

__all__ = [
    "CampaignOutcome", "CampaignRunner", "CampaignSpec",
    "CellSpec", "ChunkedColumnStore", "ColumnStore", "DEFAULT_PACING",
    "FailedUnit", "FaultPlan", "GroupedValues", "LocationCell",
    "MeasurementRecord", "Method", "OVERLOAD_PACING",
    "POST_SEPTEMBER_MONTHS", "PRE_SEPTEMBER_MONTHS", "PacingPolicy",
    "ParallelCampaign", "ReducibleResults", "ResultSet", "RetryPolicy",
    "SNOWFLAKE_USER_TIMELINE", "ShardedResultStore", "Supervisor",
    "SurgePoint", "TargetKind", "UnitJournal", "UnitResult", "WorkUnit",
    "location_matrix", "matrix_cells", "mean_by_client", "ordering_by_cell",
    "post_september_level", "pre_september_level", "record_to_row",
    "surge_level_for",
]
