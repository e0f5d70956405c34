"""Published reference accuracies for non-binding comparison tables.

These numbers depend on corpora, preprocessing details and seeds that are
not fully recoverable, so they are displayed next to fresh results as
context and never asserted by any test.
"""

REFERENCE = {
    "cnn_top1": 0.85,            # best top-1, 500 epochs, 60/20/20 split
    "svm_best_accuracy": 0.4811, # linear kernel, 100 coefficients
    # per-class accuracy, set against each class's measured recall
    "acc_angry": 0.868, "acc_disgust": 0.78, "acc_calm": 0.72,
}


def measured(accuracy_key: str, report) -> dict:
    """comparison_table's input for one MetricsReport: its accuracy under
    accuracy_key and its recall of each reference class it names."""
    values = {accuracy_key: report.accuracy}
    for name, recall in zip(report.class_names, report.recall):
        if f"acc_{name}" in REFERENCE:
            values[f"acc_{name}"] = float(recall)
    return values


def comparison_table(measured: dict) -> str:
    """Two-column table of measured vs reference values with deltas."""
    lines = [f"{'metric':<24}{'measured':>10}{'reference':>11}{'delta':>9}"]
    for key, ref in REFERENCE.items():
        if key in measured:
            got = measured[key]
            lines.append(f"{key:<24}{got:>10.4f}{ref:>11.4f}{got - ref:>+9.4f}")
        else:
            lines.append(f"{key:<24}{'-':>10}{ref:>11.4f}{'-':>9}")
    return "\n".join(lines) + "\n"
