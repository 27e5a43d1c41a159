"""Vertex percolation on configuration-model random regular multigraphs.

The package samples uniform pairings (perfect matchings on labelled points
grouped into buckets), deletes buckets at rate p = n**-alpha, and measures
what survives: degree census, bushes hanging off the 2-core, the kernel,
the giant component, and vertex/edge expansion with certified bounds.
"""

from perclab.pairing import (
    Configuration,
    DegreeSequence,
    InvalidDegreeSequenceError,
    Multigraph,
    SamplingFailureError,
    is_simple,
    pair_probability,
    project,
    sample_configuration,
    sample_simple_regular,
)
from perclab.percolation import (
    DeletionParams,
    PercolationOutcome,
    apply_deletion,
    choose_deletion_set,
    reinstate,
)
from perclab.decomposition import decompose, two_core, kernel, bushes
from perclab.theory import ModelParams, predictions
from perclab.harness import ExperimentConfig, TrialRecord, run_experiment, run_trial

__version__ = "0.1.0"

__all__ = [
    "Configuration",
    "DegreeSequence",
    "DeletionParams",
    "ExperimentConfig",
    "InvalidDegreeSequenceError",
    "ModelParams",
    "Multigraph",
    "PercolationOutcome",
    "SamplingFailureError",
    "TrialRecord",
    "apply_deletion",
    "bushes",
    "choose_deletion_set",
    "decompose",
    "is_simple",
    "kernel",
    "pair_probability",
    "predictions",
    "project",
    "reinstate",
    "run_experiment",
    "run_trial",
    "sample_configuration",
    "sample_simple_regular",
    "two_core",
]
