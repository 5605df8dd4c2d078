"""Blind separation of sparse, uncorrelated sources from linear mixtures.

The toolkit whitens mixture channels by Gram-Schmidt orthogonalization,
reads off phase-space heading vectors, clusters the headings belonging to
one dominant source by component-wise sorting, and extracts sources one at
a time by projection and deflation.  A minimum-heading-change baseline,
synthetic scenario generators, and a Monte Carlo RMS-error harness round
out the package.
"""

from .clustering import (
    Cluster,
    ClusterTables,
    SortedComponent,
    build_adjacency,
    cross_check_components,
    expand_and_remap,
    extract_cluster,
    find_cluster,
    find_largest_run,
    gap_threshold,
    sort_component,
)
from .config import PRESET_NAMES, ScenarioConfig, load_config, load_preset
from .errors import (
    AllRunsFailedError,
    ClusterFormationFailedError,
    DegenerateClusterError,
    DimensionMismatchError,
    EmptyClusterError,
    NoConsecutivePairError,
    NonFiniteError,
    NoRunFoundError,
    RankDeficientError,
    SparseBssError,
    TooFewHeadingsError,
    TooShortError,
    ZeroChannelError,
)
from .evaluation import (
    Association,
    EvalReport,
    associate,
    monte_carlo,
    pointwise_error,
    rms_metrics,
    source_errors,
)
from .headings import (
    HeadingSet,
    apply_velocity_threshold,
    compute_headings,
    compute_velocities,
    normalize_headings,
)
from .separation import (
    EstimatedDirection,
    IterationDiagnostics,
    MethodParams,
    SeparationResult,
    deflate,
    mhc_find_direction,
    project_source,
    separate,
    weighted_average_heading,
)
from .signals import normalize_rms, normalize_unit_norm, rms
from .simulate import (
    GaussianPulseSpec,
    add_noise,
    generate_gaussian_sources,
    generate_shifted_uniform_sources,
    min_peak_contribution,
    mix,
)
from .whitening import WhitenedData, gram_schmidt_whiten

__version__ = "0.1.0"
