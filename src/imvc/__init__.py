"""Interpretable multi-view clustering.

Per-view autoencoders produce embeddings, k-means on the concatenated
embeddings produces pseudo-labels, and a Gini decision tree over the
original features explains cluster membership. Alternating optimization
jointly refines the embeddings and the tree.
"""

from .data import load_dataset, load_model, save_model, synth_multiview, write_dataset
from .metrics import clustering_accuracy, pairwise_f1, purity
from .pipeline import ModelState, PipelineConfig, ServedModel, explain, fit

__version__ = "0.1.0"

__all__ = [
    "ModelState", "PipelineConfig", "ServedModel", "clustering_accuracy",
    "explain", "fit", "load_dataset", "load_model", "pairwise_f1", "purity",
    "save_model", "synth_multiview", "write_dataset",
]
