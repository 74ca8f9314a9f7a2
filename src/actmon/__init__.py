"""Runtime monitoring of ReLU activation patterns for classifiers.

The package builds per-class "comfort zones" from the on/off activation
patterns a network produced on its correctly classified training data,
stores each zone as a BDD, and answers whether an operation-time input's
pattern lies within Hamming distance ``gamma`` of the zone of the
predicted class.
"""

from types import ModuleType as _Module

from .bdd import BddStore
from .errors import (
    ActmonError,
    FormatVersionError,
    FrozenStoreError,
    SchemaError,
)
from .patterns import (
    NeuronSelection,
    binarize,
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
    load_model,
    make_blobs,
    save_model,
    train_toy,
)
from .traces import (
    TraceHeader,
    TraceRecord,
    extract,
    read_traces,
    write_traces,
)
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

# the names imported above, so that the export list has one place
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _Module))
