"""Exact tools for chain-link surgeries bounding rational homology balls.

The package decides, with integer arithmetic throughout, which torus
bundles bound rational homology circles and which integral surgeries on
chain links bound rational homology balls, and verifies the underlying
lattice-embedding classification exhaustively at small sizes.

Modules:

* chainstring - cyclic coefficient strings, duals, canonical forms
* contfrac    - Hirzebruch-Jung continued fractions, homology orders
* families    - the ten string families and their deciders/enumerators
* lattice     - subsets of (Z^n, -Id), incidence counts, named fixtures
* embedsearch - exhaustive embedding search and the verification sweep
* classifier  - bounding verdicts, monodromy normal forms, 3-braid view
* cli         - the qball command
"""

from .chainstring import (
    canonical_form,
    cyclic_dual,
    equivalent,
    format_string,
    i_invariant,
    linear_dual,
    parse_string,
)
from .classifier import (
    braid_word,
    classify_braid_cover,
    classify_surgery,
    classify_torus_bundle,
    normalize_monodromy,
)
from .contfrac import hj_eval, hj_expand, homology_order, monodromy_matrix, torsion_order
from .embedsearch import embedding_witness, find_embedding, verify_classification
from .families import enumerate_family, enumerate_strings, in_s1, in_s2, member

__all__ = [
    "braid_word",
    "canonical_form",
    "classify_braid_cover",
    "classify_surgery",
    "classify_torus_bundle",
    "cyclic_dual",
    "embedding_witness",
    "enumerate_family",
    "enumerate_strings",
    "equivalent",
    "find_embedding",
    "format_string",
    "hj_eval",
    "hj_expand",
    "homology_order",
    "i_invariant",
    "in_s1",
    "in_s2",
    "linear_dual",
    "member",
    "monodromy_matrix",
    "normalize_monodromy",
    "parse_string",
    "torsion_order",
    "verify_classification",
]

__version__ = "0.1.0"
