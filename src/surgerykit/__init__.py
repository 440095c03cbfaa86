"""Surgery presentations of 3-manifolds as framed-link diagrams, with
exact integer-lattice invariants, certified Kirby-move scripts, and the
Donaldson-type diagonalizability obstruction."""

from .calculus import (EmbeddingCertificate, ObstructionReport,
                       build_embedding_certificate, donaldson_obstruction,
                       reduce_free_word, unknotify, verify_certificate,
                       word_from_intersections)
from .intlattice import (AbelianGroupPresentation, Inertia, IntegralLattice,
                         diagonalizable_over_Z, direct_sum, e8_matrix,
                         inertia, short_vectors)
from .linkdiag import (Editor, FramedLinkDiagram, descending_switch_set,
                       linking_matrix, validate_diagram)

__version__ = "0.1.0"
