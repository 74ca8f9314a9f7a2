"""The package's public names: a change to the exports, to the BDD
store's methods or to the public dataclasses' fields shows in these
lists."""

import dataclasses

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
        "freeze", "node_count", "sat_count", "to_dict",
    ]


def test_dataclass_field_names():
    assert {name: [field.name for field in dataclasses.fields(
        getattr(actmon, name))] for name in [
        "NeuronSelection", "Monitor", "TraceHeader", "TraceRecord",
        "EvalRow", "GammaChoice", "Layer", "ModelSpec", "LayerTrace"]} == {
        "NeuronSelection": ["layer", "layer_width", "indices", "index_array"],
        "Monitor": ["selection", "gamma", "store", "zones"],
        "TraceHeader": ["layer", "width", "classes"],
        "TraceRecord": ["id", "true_label", "pred_label", "activations"],
        "EvalRow": ["gamma", "n_total", "n_out_of_pattern", "out_rate",
                    "n_out_misclassified", "misclassified_within_out_rate",
                    "overall_misclassification_rate", "n_nozone"],
        "GammaChoice": ["gamma", "qualified"],
        "Layer": ["weights", "bias", "activation"],
        "ModelSpec": ["layers", "metadata"],
        "LayerTrace": ["outputs"],
    }
