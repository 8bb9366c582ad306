"""Cost-based layer selection and community detection on multi-layer score networks."""

from .build import build_network, edge_weight, normalize_layer
from .community import (
    LeidenConfig,
    LeidenResult,
    SupraGraph,
    canonicalize,
    leiden,
    multislice_modularity,
)
from .compare import (
    bidirectional_f,
    bidirectional_purity,
    one_way_f,
    one_way_purity,
    overlap_matrix,
    restrict_to_shared,
)
from .config import PipelineConfig
from .evaluation import (
    build_design_matrix,
    cross_validate,
    fit_ridge,
    inject_missingness,
    missingness_sweep,
    regression_metrics,
    regression_report,
)
from .model import (
    CovariateTable,
    MultiLayerNetwork,
    NodeRef,
    Partition,
    ScoreTable,
    TargetTable,
    layer_node_set,
    validate_score_table,
)
from .pipeline import build_pruned_network, initialize, run_selection
from .pruning import (
    edge_null_probability,
    edge_p_value,
    prune_network,
    quantize_weights,
)
from .selector import (
    InitResult,
    IterationRecord,
    IterationTrace,
    LayerCostBreakdown,
    availability_ratio,
    cobalt_init,
    cobalt_select,
    community_similarity,
    layer_cost,
    project_partition,
    stopping_condition,
)

__version__ = "0.1.0"
