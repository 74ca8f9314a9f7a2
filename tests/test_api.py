"""The package's public names: a change to the exports shows in this list."""

import actmon


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
