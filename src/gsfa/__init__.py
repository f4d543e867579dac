"""Graph-based slow feature analysis with exact-label training graphs.

Feature extraction over weighted training graphs: pre-defined graphs
(reordering, clustered, serial), exact-label graph construction from
one or many labels, free-response spectra, the linear solver, a
hierarchical network, and label estimators.
"""

from .builders import (
    CompactLabels,
    EquivalenceReport,
    LabelSet,
    auxiliary_labels,
    build_clustered_graph,
    build_ell_graph,
    build_linear_graph,
    build_serial_graph,
    clustered_equivalence_check,
    compact_binary_labels,
    decorrelate_labels,
    deltas_from_eigenvalues,
    load_labels,
    normalize_labels,
    save_labels,
    serial_groups,
)
from .datagen import (
    SyntheticClassificationSpec,
    SyntheticRegressionSpec,
    counter_normal,
    counter_uniform,
    gen_classification,
    gen_regression,
)
from .errors import (
    ArchitectureError,
    BinningError,
    ContractError,
    DegenerateGraphError,
    DegenerateLabelError,
    DependentLabelError,
    DimensionError,
    FormatError,
    GsfaError,
    GsfaWarning,
    InconsistentGraphWarning,
    NegativeEigenvalueWarning,
    ParameterError,
    RankError,
    RegularizationWarning,
    SingularityError,
    TruncationWarning,
)
from .estimators import (
    CentroidClassifier,
    LinearRegressionEstimator,
    LinearScalingEstimator,
    SoftGcEstimator,
    chance_rmse,
    classify,
    error_rate,
    fit_linear_regression,
    fit_linear_scaling,
    fit_nearest_centroid,
    fit_soft_gc,
    rmse,
)
from .graph import (
    ConsistencyReport,
    EllFactors,
    GraphStructure,
    TrainingGraph,
    check_consistency,
    eliminate_negative_weights,
    ell_gamma,
    load_graph,
    save_graph,
    weighted_delta,
)
from .hierarchy import (
    HgsfaNetwork,
    LayerSpec,
    load_network,
    network_extract,
    save_network,
    train_hgsfa,
    validate_architecture,
)
from .matrixio import (
    load_matrix,
    load_matrix_binary,
    load_matrix_csv,
    save_matrix_binary,
    save_matrix_csv,
)
from .solver import (
    ExpansionSpec,
    GsfaModel,
    GsfaNode,
    PcaModel,
    derivative_covariance,
    expand,
    extract_features,
    load_model,
    pca_reduce,
    sample_covariance,
    save_model,
    train_gsfa,
    train_node,
    weighted_mean,
)
from .spectrum import (
    FreeResponseSpectrum,
    build_m_matrix,
    expected_noise_delta,
    export_edges,
    export_spectrum,
    optimal_free_responses,
)

__version__ = "0.1.0"
