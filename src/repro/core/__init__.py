"""The paper's primary contribution: the Policy-Embedded Bx-tree.

The three-step approach of Section 5:

1. **Policy encoding** — :mod:`repro.core.compatibility` quantifies the
   relationship between two users' policies (the α score and the
   compatibility degree C of Equation 4), and
   :mod:`repro.core.sequencing` turns compatibilities into one sequence
   value (SV) per user (Figure 5).
2. **Index construction** — :mod:`repro.core.peb_key` packs
   ``[TID]2 ⊕ [SV]2 ⊕ [ZV]2`` (Equation 5) and
   :mod:`repro.core.peb_tree` maintains the B+-tree of moving users keyed
   by PEB-keys.
3. **Query processing** — :mod:`repro.core.prq` (Figure 7) and
   :mod:`repro.core.pknn` (Figures 8–10).

:mod:`repro.core.cost_model` implements the analytical I/O cost function
of Section 6 (Equations 6 and 7).
"""

from repro.core.aggregate import CountResult, DensityResult, pcount, pdensity_grid
from repro.core.checkpoint import load_peb_tree, save_peb_tree
from repro.core.compatibility import CompatibilityResult, compatibility
from repro.core.continuous import ContinuousPRQ, MembershipEvent
from repro.core.cost_model import CostModel
from repro.core.encoders import (
    ENCODERS,
    BFSEncoder,
    Figure5Encoder,
    make_encoder,
)
from repro.core.multipolicy import grant_volume, set_compatibility, simultaneous_volume
from repro.core.peb_key import PEBKeyCodec
from repro.core.peb_tree import PEBTree
from repro.core.pknn import PKNNResult, pknn
from repro.core.prq import PRQResult, prq
from repro.core.sequencing import EncodingReport, assign_sequence_values

__all__ = [
    "BFSEncoder",
    "CompatibilityResult",
    "ContinuousPRQ",
    "CostModel",
    "CountResult",
    "DensityResult",
    "MembershipEvent",
    "pcount",
    "pdensity_grid",
    "ENCODERS",
    "EncodingReport",
    "Figure5Encoder",
    "make_encoder",
    "PEBKeyCodec",
    "PEBTree",
    "PKNNResult",
    "PRQResult",
    "assign_sequence_values",
    "compatibility",
    "grant_volume",
    "load_peb_tree",
    "pknn",
    "prq",
    "save_peb_tree",
    "set_compatibility",
    "simultaneous_volume",
]
