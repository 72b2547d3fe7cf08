"""Exact laboratory for gradient flows of single-neuron rectified regression.

The package simulates the piecewise-linear gradient flow exactly
(spectral closed form per activation pattern, certified boundary-event
detection), enumerates the piecewise-quadratic loss landscape, and
evaluates the initialization certificates that explain which minima the
flow can and cannot reach.
"""

from .dataset import (
    Dataset,
    ValidationReport,
    augment_bias,
    dataset_from_json,
    dataset_to_json,
    load_dataset,
    save_dataset,
    validate_dataset,
)
from .errors import (
    DegenerateDirectionError,
    GeometryError,
    NumericalError,
    PreconditionError,
    ReluFlowError,
    SizeError,
    StructuralError,
)
from .expsum import ExpSum, Root
from .flow import (
    FlowEvent,
    FlowSegment,
    Trajectory,
    count_hyperplane_crossings,
    norm_certificate,
    revisit_report,
    simulate_flow,
    simulate_linear_flow,
)
from .geometry import (
    ActivationPattern,
    PartitionCell,
    enumerate_partitions,
    g_value,
    partition_count_bound,
    pattern_of,
)
from .landscape import (
    MinimaCensus,
    VirtualMinimizer,
    compare_support_losses,
    gradient,
    loss,
    minima_census,
    relu_vs_linear_gap,
    virtual_minimizer,
)
from .criteria import (
    BConditionReport,
    BoundaryCrossingContext,
    CosineForm,
    alpha_star,
    bad_minimum_exclusion,
    check_B_conditions,
    cosine_form,
    crossing_context,
    no_deactivation_certificate,
)
from .deepnet import (
    DeepNet,
    LayerProblem,
    backprop_labels,
    balancedness_drift,
    forward_trace,
    network_gradients,
)

__version__ = "0.1.0"
