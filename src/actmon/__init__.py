"""Runtime monitoring of ReLU activation patterns for classifiers.

The package builds per-class "comfort zones" from the on/off activation
patterns a network produced on its correctly classified training data,
stores each zone as a BDD, optionally enlarges zones by Hamming distance,
and answers whether an operation-time input's pattern falls inside the
zone of the predicted class.
"""

from .bdd import BddRef, BddStore
from .errors import (
    ActmonError,
    FormatVersionError,
    FrozenStoreError,
    SchemaError,
)
from .patterns import (
    NeuronSelection,
    binarize,
    hamming,
    identity_selection,
    score_neurons,
    select_top_fraction,
)
from .network import (
    Layer,
    LayerTrace,
    ModelSpec,
    decide,
    forward,
    layer_gradient,
    load_model,
    make_blobs,
    save_model,
    train_toy,
)
from .traces import TraceHeader, TraceRecord, read_traces, write_traces
from .monitor import (
    Monitor,
    Verdict,
    build,
    load_monitor,
    query,
    save_monitor,
)
from .evaluation import (
    EvalRow,
    GammaChoice,
    choose_gamma,
    evaluate,
    gamma_sweep,
    write_report_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ActmonError",
    "BddRef",
    "BddStore",
    "EvalRow",
    "FormatVersionError",
    "FrozenStoreError",
    "GammaChoice",
    "Layer",
    "LayerTrace",
    "ModelSpec",
    "Monitor",
    "NeuronSelection",
    "SchemaError",
    "TraceHeader",
    "TraceRecord",
    "Verdict",
    "binarize",
    "build",
    "choose_gamma",
    "decide",
    "evaluate",
    "forward",
    "gamma_sweep",
    "hamming",
    "identity_selection",
    "layer_gradient",
    "load_model",
    "load_monitor",
    "make_blobs",
    "query",
    "read_traces",
    "save_model",
    "save_monitor",
    "score_neurons",
    "select_top_fraction",
    "train_toy",
    "write_report_csv",
    "write_traces",
]
