"""Exact unit lattices of real quartic Galois fields and the minimal
1-norm of their exterior squares."""

__version__ = "0.1.0"

from .quadratic import QuadElem, fundamental_unit, smallest_fundamental_units
from .biquadratic import BiquadField, BiquadElem
from .quartic import CyclicQuarticField, QuarticElem, galois_generator
from .loglattice import wedge2
from .units import (KleinUnitStructure, klein_unit_structure,
                    klein_pattern_root, klein_generators, CyclicCatalogEntry,
                    verify_hasse_relations, populate_cyclic_entry)
from .verifier import verify_paper, klein_field_report, theorem_constants

__all__ = [
    "QuadElem", "fundamental_unit", "smallest_fundamental_units",
    "BiquadField", "BiquadElem",
    "CyclicQuarticField", "QuarticElem", "galois_generator",
    "wedge2",
    "KleinUnitStructure", "klein_unit_structure", "klein_pattern_root",
    "klein_generators", "CyclicCatalogEntry",
    "verify_hasse_relations", "populate_cyclic_entry",
    "verify_paper", "klein_field_report", "theorem_constants",
]
