"""Set operators on sub-hypergraphs of a simplicial complex, exact
distribution pushforwards, and sparse random generation.

The lattice of sub-hypergraphs of a finite ambient complex carries the
closure, interior-complex, complement, extension, interior, and neighborhood
operators, applied through their mask functions in `hyperops.operators` or
through a word (`eval_word`, `words.eval_word_mask`); exact probability
distributions on that lattice push forward through any operator word;
product (Bernoulli) and staged (dimension-by-dimension) random models come
with closed-form transform vectors; and the truncated generators scale the
random models to vertex counts where the lattice itself is out of reach.
"""

from .complexes import (
    AmbientComplex,
    AmbientError,
    Complex,
    Hypergraph,
    full_complex,
    path_complex,
    skeleton_complex,
    standard_fixtures,
)
from .expr import OperatorExpression, ParseError, parse_expression
from .io import (
    FileFormatError,
    read_complex,
    read_hypergraph,
    read_probability,
    write_complex,
    write_hypergraph,
    write_probability,
)
from .metric import (
    PowerIndices,
    diameter,
    distance,
    eccentricity,
    figure_hypergraphs,
    minimal_powers,
    triangulated_triangle,
)
from .models import (
    ProbabilityAssignment,
    enumerate_subcomplexes,
    enumerate_subhypergraphs,
    pmf_complex,
    pmf_hypergraph,
    resolve_probabilities,
    rng_from,
    sample_complex,
    sample_complex_batch,
    sample_hypergraph,
    sample_hypergraph_batch,
    sample_hypergraph_masks,
)
from .pushforward import (
    Distribution,
    complex_product,
    complex_union_resample,
    containment_probabilities,
    empirical_distribution,
    extension_limit,
    hypergraph_product,
    interior_limit,
    marginal_gaps,
    marginals,
    point_mass,
    push_word,
    restrict_distribution,
    total_variation,
    uniform_distribution,
    verify_transforms,
)
from .sparse import (
    DerivedDims,
    TruncatedSample,
    algorithm1_truncated,
    algorithm2_truncated,
    clique_complex,
    clique_complex_in,
    closure_dimension_stats,
    counting_bound,
    derived_dims,
    dimension_stats,
    threshold_schedule,
)
from .verify import SUITES, SuiteResult, iter_standard, run_suite
from .words import Compose, Join, Meet, Power, Prim, Word, eval_word, normalize

__version__ = "0.1.0"
