"""Input synthesis: BigDataBench-style text and Kronecker graphs."""

import importlib
from typing import TYPE_CHECKING

#: Public names and the modules that define them.  They load on first
#: access (PEP 562), so importing one submodule does not load the rest.
_EXPORTS = {
    "GRAPH_INPUTS": "repro.datagen.seeds",
    "GraphInput": "repro.datagen.seeds",
    "KroneckerSpec": "repro.datagen.kronecker",
    "REFERENCE_INPUTS": "repro.datagen.seeds",
    "TRAINING_INPUT": "repro.datagen.seeds",
    "TextSpec": "repro.datagen.text",
    "generate_kronecker_edges": "repro.datagen.kronecker",
    "get_graph_input": "repro.datagen.seeds",
    "synthesize_labeled_text": "repro.datagen.text",
    "synthesize_text": "repro.datagen.text",
}

if TYPE_CHECKING:  # also the import edges that code fingerprints follow
    from repro.datagen.kronecker import KroneckerSpec, generate_kronecker_edges
    from repro.datagen.seeds import (
        GRAPH_INPUTS,
        REFERENCE_INPUTS,
        TRAINING_INPUT,
        GraphInput,
        get_graph_input,
    )
    from repro.datagen.text import TextSpec, synthesize_labeled_text, synthesize_text

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
