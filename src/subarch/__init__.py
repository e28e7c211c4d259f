"""Toolkit for enumerating, costing and ranking encoder subarchitectures.

The pipeline: enumerate the valid points of an architectural search space,
attach surrogate metrics (closed-form counts or ingested measurements),
scalarize each candidate against a maximum point, and rank. A toy-scale
numeric network cross-checks every closed-form count.
"""

from .costs import (
    CostBreakdown,
    DominanceReport,
    LayerShape,
    cost_breakdown,
    dominance_report,
    embedding_params,
    flop_count,
    flop_oracle,
    linear_flops,
    param_count,
    shape_list,
    shape_oracle_params,
)
from .engine import (
    CandidateReport,
    ExtractionReport,
    SearchConfig,
    exceed_flags,
    rank_candidates,
    render_json,
    render_text,
    run_extraction,
    w_coefficient,
)
from .errors import ConfigError, DataError, SubarchError, VerificationError
from .metrics import (
    ConstantErrorModel,
    MaxPoint,
    MeasurementRecord,
    MetricTriple,
    SyntheticErrorModel,
    analytic_metrics,
    ingest_measurements,
    parse_measurements,
    serialize_measurements,
)
from .space import (
    ArchParams,
    EmbeddingConfig,
    SearchSpace,
    enumerate_space,
    stride_subsample,
    validate,
)

# The toy network needs numpy; its names load it on first access (PEP 562),
# so importing the package for enumerate, cost and rank does not.
_TOYNET_NAMES = (
    "ToyNet",
    "ToyNetConfig",
    "attention",
    "count_instantiated_params",
    "distillation_loss",
    "forward",
    "forward_with_stats",
    "gelu",
    "kd_loss",
    "layer_norm",
    "softmax",
)


def __getattr__(name: str):
    if name in _TOYNET_NAMES:
        from . import toynet

        return getattr(toynet, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
