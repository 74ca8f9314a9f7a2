"""The package's public names: a change to the exports or to the BDD
store's methods shows in these lists."""

import actmon
from actmon import BddStore


def test_exported_names():
    assert actmon.__all__ == [
        "ActmonError", "BddStore", "EvalRow", "FormatVersionError",
        "FrozenStoreError", "GammaChoice", "Layer", "LayerTrace",
        "ModelSpec", "Monitor", "NeuronSelection", "SchemaError",
        "TraceHeader", "TraceRecord", "Verdict", "binarize", "build",
        "choose_gamma", "decide", "evaluate", "extract", "forward",
        "gamma_sweep", "identity_selection", "load_model", "load_monitor",
        "make_blobs", "query", "read_traces", "save_model", "save_monitor",
        "score_neurons", "select_top_fraction", "train_toy",
        "write_report_csv", "write_traces",
    ]
    for name in actmon.__all__:
        assert hasattr(actmon, name)


def test_store_method_names():
    assert sorted(name for name, value in vars(BddStore).items()
                  if callable(value) and not name.startswith("_")) == [
        "contains", "contains_with_cost", "distance", "encode_set", "exists",
        "freeze", "node_count", "sat_count", "to_json",
    ]
