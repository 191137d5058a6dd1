"""RQL: the paper's contribution — mechanisms, rewrite, SnapIds, session."""

from repro.core.aggregates import (
    CrossSnapshotAggregate,
    binary_op,
    identity_element,
    make_cross_snapshot_aggregate,
    merge_avg_stored,
    merge_stored_value,
    parse_col_func_pairs,
)
from repro.core.mechanisms import RQLResult
from repro.core.parallel import (
    ParallelExecutor,
    ParallelRunInfo,
    partition_snapshots,
)
from repro.core.rewrite import rewrite_qq, validate_qs, wrap_qs
from repro.core.sortmerge import (
    SortMergeAggregateDataInTableRun,
    sort_merge_aggregate_data_in_table,
)
from repro.core.session import RQLSession
from repro.core.snapids import SNAPIDS_TABLE, SnapIds

__all__ = [
    "CrossSnapshotAggregate",
    "ParallelExecutor",
    "ParallelRunInfo",
    "RQLResult",
    "RQLSession",
    "SNAPIDS_TABLE",
    "SortMergeAggregateDataInTableRun",
    "sort_merge_aggregate_data_in_table",
    "SnapIds",
    "binary_op",
    "identity_element",
    "make_cross_snapshot_aggregate",
    "merge_avg_stored",
    "merge_stored_value",
    "parse_col_func_pairs",
    "partition_snapshots",
    "rewrite_qq",
    "validate_qs",
    "wrap_qs",
]
