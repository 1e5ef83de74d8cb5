"""Gray-Wyner rate-distortion-perception toolkit."""

__version__ = "0.7.0"

import logging
import types

# silent unless the application configures logging (e.g. the gwrdp.region
# frontier counts at DEBUG)
logging.getLogger(__name__).addHandler(logging.NullHandler())

from .prob import (
    AlphabetMismatchError,
    JointPmf,
    Kernel,
    Pmf,
    kl_divergence,
    mutual_information,
    tv_distance,
)
from .solver import (
    DistortionMatrix,
    InfeasibleError,
    PerceptionMeasure,
    RdpQuery,
    RdpResult,
    conditional_rdp,
    hamming,
)
from .region import (
    AuxChannel,
    Budgets,
    RegionFrontier,
    RegionPoint,
    RegionProblem,
    compute_frontier,
    rate_triple_for_aux,
    scalarized_search,
)
from .codec import (
    Codebook,
    CodeSizes,
    EmptyTypicalSetError,
    PagedLayer,
    circular_shift,
    compute_code_sizes,
    decode,
    encode,
    generate_codebook,
    sample_uniform_cond_typical,
)
from .derandom import (
    SeedMap,
    SeedMapError,
    build_seed_map,
    default_tail_length,
    deterministic_decode,
    deterministic_encode,
)
from .simulate import (
    BranchStats,
    ResourceCapError,
    SimConfig,
    SimReport,
    run_simulation,
)

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
