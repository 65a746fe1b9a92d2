"""boundforge: a miniature finite-domain kernel, a catalog of proven feature
bounds for partitions and binary sequences, and the incremental selection of
the most-filtering bounds, all audited by an exhaustive brute-force oracle."""

from .bounds import BoundCandidate, BoundVerdict, catalog, decoy, post_bound, verify_on
from .kernel import (
    ConstraintHandle,
    LabelResult,
    Model,
    TrailMark,
    VarRef,
    labeling,
    post_lex_greater,
)
from .objects import (
    BinSeqFeatures,
    PartitionFeatures,
    binseq_features,
    make_binseq_model,
    make_partition_model,
    partition_features,
    post_binseq,
    post_partition,
)
from .oracle import AuditReport, audit, enum_binseqs, enum_partitions, max_sum_squares, omax_omin_bounds
from .selector import (
    ObjectScenario,
    SelectionReport,
    SolutionRecord,
    compute_all_solutions,
    enumerate_all_solutions,
    run_baseline,
    run_selection,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "BinSeqFeatures",
    "BoundCandidate",
    "BoundVerdict",
    "ConstraintHandle",
    "LabelResult",
    "Model",
    "ObjectScenario",
    "PartitionFeatures",
    "SelectionReport",
    "SolutionRecord",
    "TrailMark",
    "VarRef",
    "audit",
    "binseq_features",
    "catalog",
    "compute_all_solutions",
    "decoy",
    "enum_binseqs",
    "enum_partitions",
    "enumerate_all_solutions",
    "labeling",
    "make_binseq_model",
    "make_partition_model",
    "max_sum_squares",
    "omax_omin_bounds",
    "partition_features",
    "post_binseq",
    "post_bound",
    "post_lex_greater",
    "post_partition",
    "run_baseline",
    "run_selection",
    "verify_on",
]
